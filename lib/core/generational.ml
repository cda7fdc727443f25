open Cgc_vm

type stats = {
  minor_collections : int;
  major_collections : int;
  promoted_pages : int;
  promoted_bytes : int;
  dirty_pages_scanned : int;
}

type t = {
  gc : Gc.t;
  promote_after : int;
  age : int array; (* per page: consecutive minor survivals; -1 = promoted (old) *)
  dirty : Bitset.t; (* old pages the next minor collection must rescan *)
  carry : Bitset.t;
      (* the subset of [dirty] kept across the last rescan because the
         page still referenced young data (the mutator owes no second
         barrier for a store it already made once) *)
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable promoted_pages : int;
  mutable promoted_bytes : int;
  mutable dirty_pages_scanned : int;
}

let create ?(promote_after = 2) gc =
  if promote_after < 1 then invalid_arg "Generational.create: promote_after must be >= 1";
  let n = Heap.n_pages (Gc.heap gc) in
  {
    gc;
    promote_after;
    age = Array.make n 0;
    dirty = Bitset.create n;
    carry = Bitset.create n;
    minor_collections = 0;
    major_collections = 0;
    promoted_pages = 0;
    promoted_bytes = 0;
    dirty_pages_scanned = 0;
  }

let gc t = t.gc
let heap t = Gc.heap t.gc
let page_is_old t index = t.age.(index) < 0

let is_old t addr =
  match Gc.find_object t.gc addr with
  | Some base -> page_is_old t (Heap.page_index (heap t) base)
  | None -> false

let dirty_pages t = List.rev (Bitset.fold (fun acc i -> i :: acc) [] t.dirty)
let carried_pages t = List.rev (Bitset.fold (fun acc i -> i :: acc) [] t.carry)

let reset_stats t =
  t.minor_collections <- 0;
  t.major_collections <- 0;
  t.promoted_pages <- 0;
  t.promoted_bytes <- 0;
  t.dirty_pages_scanned <- 0

(* The write barrier: a pointer store into an old page means the next
   minor collection must rescan that page.  The dirty bit is set only
   after the store succeeds — a faulted (raising) write must not leave
   the old page spuriously dirty. *)
let set_field t base i v =
  Gc.set_field t.gc base i v;
  let index = Heap.page_index (heap t) base in
  if page_is_old t index then Bitset.add t.dirty index

(* --- minor collection --- *)

(* The page walks below read the page table's rows and bitmap words, as
   [Sweep] does, and build no page view. *)

let scanned = function Page.Pointer_free -> false | Page.Conservative | Page.Typed _ -> true

(* [f lo bytes] for each live pointer-bearing object of page [index]. *)
let iter_pointer_objects heap index f =
  let kind = Heap.kind heap index in
  if kind = Page.kind_small then begin
    if scanned (Heap.small_layout heap index) then begin
      let first = Addr.add (Heap.page_addr heap index) (Heap.first_offset heap index) in
      let object_bytes = Heap.object_bytes heap index in
      Bitset.iter_set_words (Heap.alloc_words heap index) (fun obj ->
          f (Addr.add first (obj * object_bytes)) object_bytes)
    end
  end
  else if kind = Page.kind_large_head then begin
    let l = Heap.large heap index in
    if l.Page.l_allocated && scanned l.Page.l_layout then
      f (Heap.page_addr heap index) l.Page.object_bytes
  end

(* Young-only conservative marking on the collector's trace kernel.
   One page walk sets the scope: young pages start unmarked, old pages
   start with every allocated object marked, so the kernel sees old
   objects as live and opaque (valid references, never pushed).  The
   live pointer-bearing objects of the dirty old pages, in address
   order, are extra roots covering the old-to-young edges. *)
let minor_mark t =
  let heap = heap t in
  for i = 0 to Heap.committed_pages heap - 1 do
    let kind = Heap.kind heap i in
    if kind = Page.kind_small then begin
      let mark = Heap.mark_words heap i in
      if page_is_old t i then Array.blit (Heap.alloc_words heap i) 0 mark 0 (Array.length mark)
      else Bitset.clear_words mark
    end
    else if kind = Page.kind_large_head then begin
      let l = Heap.large heap i in
      l.Page.l_marked <- page_is_old t i && l.Page.l_allocated
    end
  done;
  let dirty_objects = ref [] in
  Bitset.iter_set t.dirty (fun i ->
      iter_pointer_objects heap i (fun lo bytes ->
          let span = { Roots.lo; hi = Addr.add lo bytes; label = "dirty" } in
          dirty_objects := span :: !dirty_objects));
  t.dirty_pages_scanned <- t.dirty_pages_scanned + Bitset.count t.dirty;
  Mark.trace ~extra:(List.rev !dirty_objects) (Gc.Internal.marker t.gc) (Gc.Internal.roots t.gc)
    ~mem:(Gc.mem t.gc)

(* After the minor sweep, a dirty page keeps its bit, as a carryover,
   iff one of its words still names a young object: the store that
   created that cross-generation edge happened once, and the mutator
   owes no second barrier for it.  The test runs after the sweep so a
   word whose read faulted during the trace no longer counts: it left
   its young target unmarked, the sweep freed it, and the word now
   names no object. *)
let retain_young_refs t =
  let heap = heap t in
  let config = Gc.config t.gc in
  let names_young v =
    match Mark.classify heap config v with
    | Mark.Valid { page; _ } -> not (page_is_old t page)
    | Mark.False_in_heap _ | Mark.Outside -> false
  in
  let holds_young index =
    let found = ref false in
    iter_pointer_objects heap index (fun lo bytes ->
        Segment.iter_words (Heap.segment heap) ~alignment:config.Config.alignment ~lo
          ~hi:(Addr.add lo bytes) (fun _ v -> if (not !found) && names_young v then found := true));
    !found
  in
  Bitset.iter_set t.dirty (fun i -> if not (holds_young i) then Bitset.remove t.dirty i);
  Bitset.clear t.carry;
  Bitset.union_into ~dst:t.carry t.dirty

(* Promotion bookkeeping after a sweep: empty pages rejuvenate, occupied
   young pages age, old-enough pages are promoted.  [promoted_bytes] charges
   live bytes at the moment of promotion for both page shapes. *)
let update_ages_after_sweep t =
  let heap = heap t in
  for i = 0 to Heap.committed_pages heap - 1 do
    let kind = Heap.kind heap i in
    if Heap.vacant heap i then begin
      t.age.(i) <- 0;
      Bitset.remove t.dirty i;
      Bitset.remove t.carry i
    end
    else if kind = Page.kind_small then begin
      if not (page_is_old t i) then begin
        t.age.(i) <- t.age.(i) + 1;
        if t.age.(i) >= t.promote_after then begin
          t.age.(i) <- -1;
          t.promoted_pages <- t.promoted_pages + 1;
          t.promoted_bytes <-
            t.promoted_bytes
            + (Bitset.count_words (Heap.alloc_words heap i) * Heap.object_bytes heap i);
          (* A freshly promoted page enters the old generation dirty
             (and carried): every store into it happened while the
             page was young, when no barrier was owed, so any
             outgoing young reference it holds is uncovered until
             the first post-promotion rescan clears or re-carries
             the bit. *)
          if scanned (Heap.small_layout heap i) then begin
            Bitset.add t.dirty i;
            Bitset.add t.carry i
          end
        end
      end
    end
    else if kind = Page.kind_large_head then begin
      if not (page_is_old t i) then begin
        t.age.(i) <- t.age.(i) + 1;
        if t.age.(i) >= t.promote_after then begin
          let l = Heap.large heap i in
          for j = i to i + l.Page.n_pages - 1 do
            t.age.(j) <- -1
          done;
          t.promoted_pages <- t.promoted_pages + l.Page.n_pages;
          if l.Page.l_allocated then begin
            t.promoted_bytes <- t.promoted_bytes + l.Page.object_bytes;
            (* Same uncovered-store hazard as the small case: the
               head page carries the bit, and the rescan walks the
               whole object from there. *)
            if scanned l.Page.l_layout then begin
              Bitset.add t.dirty i;
              Bitset.add t.carry i
            end
          end
        end
      end
    end
  done

let minor t =
  let t0 = Stats.now_s () in
  t.minor_collections <- t.minor_collections + 1;
  minor_mark t;
  let t1 = Stats.now_s () in
  let (_ : Sweep.result) =
    Sweep.run ~keep_live:(page_is_old t) (heap t) (Gc.Internal.finalize t.gc) (Gc.stats t.gc)
  in
  retain_young_refs t;
  update_ages_after_sweep t;
  (* old pages, the freshly promoted included, are closed to the
     allocation cursors so fresh allocation stays young *)
  Gc.Internal.reopen ~closed:(page_is_old t) t.gc;
  Stats.add_cycle_time (Gc.stats t.gc) ~t0 ~t1 ~t2:(Stats.now_s ())

let major t =
  t.major_collections <- t.major_collections + 1;
  Gc.collect t.gc;
  (* The full collect traced every root and swept every page, so no
     page owes a barrier rescan: the whole dirty set (carryovers
     included) is cleared.  Clearing it is sound only because the
     generation clock resets with it — every surviving page returns to
     the young generation and re-earns tenure, so no old page is left
     whose young references would now be uncovered. *)
  Bitset.clear t.dirty;
  Bitset.clear t.carry;
  Array.fill t.age 0 (Array.length t.age) 0

let allocate ?pointer_free ?finalizer t bytes =
  match Gc.allocate ?pointer_free ?finalizer t.gc bytes with
  | a -> a
  | exception Gc.Out_of_memory first -> (
      major t;
      match Gc.allocate ?pointer_free ?finalizer t.gc bytes with
      | a -> a
      | exception Gc.Out_of_memory second ->
          (* Both attempts stay attributable: the rungs climbed before
             the rescuing major precede the retry's own, and a cause
             seen by either attempt survives into the merged diagnosis. *)
          raise
            (Gc.Out_of_memory
               {
                 second with
                 Gc.rungs = first.Gc.rungs @ second.Gc.rungs;
                 blacklist_starved = first.Gc.blacklist_starved || second.Gc.blacklist_starved;
                 os_refused = first.Gc.os_refused || second.Gc.os_refused;
                 memory_decayed = first.Gc.memory_decayed || second.Gc.memory_decayed;
                 pages_decayed = max first.Gc.pages_decayed second.Gc.pages_decayed;
               }))

let stats t =
  {
    minor_collections = t.minor_collections;
    major_collections = t.major_collections;
    promoted_pages = t.promoted_pages;
    promoted_bytes = t.promoted_bytes;
    dirty_pages_scanned = t.dirty_pages_scanned;
  }
