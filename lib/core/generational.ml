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

(* [f lo bytes] for each live pointer-bearing object of page [index]. *)
let iter_pointer_objects heap index f =
  match Heap.page heap index with
  | Page.Small s ->
      if s.Page.layout <> Page.Pointer_free then begin
        let first = Addr.add (Heap.page_addr heap index) s.Page.first_offset in
        Bitset.iter_set s.Page.alloc (fun obj ->
            f (Addr.add first (obj * s.Page.object_bytes)) s.Page.object_bytes)
      end
  | Page.Large_head l ->
      if l.Page.l_allocated && l.Page.l_layout <> Page.Pointer_free then
        f (Heap.page_addr heap index) l.Page.object_bytes
  | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ()

(* Young-only conservative marking on the collector's trace kernel.
   One page walk sets the scope: young pages start unmarked, old pages
   start with every allocated object marked, so the kernel sees old
   objects as live and opaque (valid references, never pushed).  The
   live pointer-bearing objects of the dirty old pages are extra roots
   covering the old-to-young edges. *)
let minor_mark t =
  let heap = heap t in
  let dirty_objects = ref [] in
  Heap.iter_committed heap (fun i p ->
      let old = page_is_old t i in
      (match p with
      | Page.Small s ->
          Bitset.clear s.Page.mark;
          if old then Bitset.union_into ~dst:s.Page.mark s.Page.alloc
      | Page.Large_head l -> l.Page.l_marked <- old && l.Page.l_allocated
      | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
      if Bitset.mem t.dirty i then
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
  List.iter (fun i -> if not (holds_young i) then Bitset.remove t.dirty i) (dirty_pages t);
  Bitset.clear t.carry;
  Bitset.union_into ~dst:t.carry t.dirty

(* Promotion bookkeeping after a sweep: empty pages rejuvenate, occupied
   young pages age, old-enough pages are promoted.  [promoted_bytes] charges
   live bytes at the moment of promotion for both page shapes. *)
let update_ages_after_sweep t =
  let heap = heap t in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Free | Page.Uncommitted ->
          t.age.(i) <- 0;
          Bitset.remove t.dirty i;
          Bitset.remove t.carry i
      | Page.Large_tail _ -> ()
      | Page.Small s ->
          if not (page_is_old t i) then begin
            t.age.(i) <- t.age.(i) + 1;
            if t.age.(i) >= t.promote_after then begin
              t.age.(i) <- -1;
              t.promoted_pages <- t.promoted_pages + 1;
              t.promoted_bytes <- t.promoted_bytes + (Bitset.count s.Page.alloc * s.Page.object_bytes);
              (* A freshly promoted page enters the old generation dirty
                 (and carried): every store into it happened while the
                 page was young, when no barrier was owed, so any
                 outgoing young reference it holds is uncovered until
                 the first post-promotion rescan clears or re-carries
                 the bit. *)
              if s.Page.layout <> Page.Pointer_free then begin
                Bitset.add t.dirty i;
                Bitset.add t.carry i
              end
            end
          end
      | Page.Large_head l ->
          if not (page_is_old t i) then begin
            t.age.(i) <- t.age.(i) + 1;
            if t.age.(i) >= t.promote_after then begin
              for j = i to i + l.Page.n_pages - 1 do
                t.age.(j) <- -1
              done;
              t.promoted_pages <- t.promoted_pages + l.Page.n_pages;
              if l.Page.l_allocated then begin
                t.promoted_bytes <- t.promoted_bytes + l.Page.object_bytes;
                (* Same uncovered-store hazard as the small case: the
                   head page carries the bit, and the rescan walks the
                   whole object from there. *)
                if l.Page.l_layout <> Page.Pointer_free then begin
                  Bitset.add t.dirty i;
                  Bitset.add t.carry i
                end
              end
            end
          end)

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
