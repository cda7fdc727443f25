open Cgc_vm

let check_page_table heap issues =
  let n = Heap.n_pages heap in
  let committed = Heap.committed_pages heap in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let free = ref 0 in
  for i = 0 to n - 1 do
    let p = Heap.page heap i in
    if i >= committed then begin
      match p with
      | Page.Uncommitted -> ()
      | Page.Free | Page.Small _ | Page.Large_head _ | Page.Large_tail _ ->
          add "page %d beyond the committed watermark is not Uncommitted" i
    end
    else begin
      match p with
      | Page.Uncommitted -> add "committed page %d is Uncommitted" i
      | Page.Free -> incr free
      | Page.Small s ->
          let page_size = Heap.page_size heap in
          if s.Page.first_offset + (s.Page.n_objects * s.Page.object_bytes) > page_size then
            add "small page %d overflows its page (%d objects of %d bytes at offset %d)" i
              s.Page.n_objects s.Page.object_bytes s.Page.first_offset
      | Page.Large_head l ->
          if l.Page.n_pages < 1 then add "large head %d with n_pages %d" i l.Page.n_pages;
          if i + l.Page.n_pages > n then add "large object at %d exceeds the reserved region" i;
          for j = i + 1 to min (n - 1) (i + l.Page.n_pages - 1) do
            match Heap.page heap j with
            | Page.Large_tail { head_index } when head_index = i -> ()
            | _ -> add "page %d should be a tail of the large object at %d" j i
          done
      | Page.Large_tail { head_index } -> (
          match if head_index >= 0 && head_index < n then Heap.page heap head_index else Page.Free with
          | Page.Large_head l when head_index < i && i < head_index + l.Page.n_pages -> ()
          | _ -> add "tail page %d has a dangling head index %d" i head_index)
    end
  done;
  if Heap.free_page_count heap <> !free then
    add "free-page count %d disagrees with the %d Free pages of the page table"
      (Heap.free_page_count heap) !free

(* Audit the kernel's precomputed row fields against their source: a
   small page's scan extent and reciprocal against its slot size and
   layout, a large head's object bytes and extent against its record, a
   typed page's pointer offsets against its layout.  The scan fast path
   trusts them completely.  A small page's alloc and mark columns must
   be two arrays, or every mark would allocate. *)
let check_descriptors heap issues =
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let d = Heap.desc heap in
  for i = 0 to Heap.n_pages heap - 1 do
    let row f = d.Heap.d_rows.((i * Heap.row_stride) + f) in
    let check_derived what layout ~object_bytes =
      let extent = Heap.scan_extent layout ~object_bytes in
      if row Heap.row_extent <> extent then
        add "descriptor extent of %s %d is %d (expected %d)" what i (row Heap.row_extent) extent;
      let offsets = d.Heap.d_pointer_offsets.(i) in
      match layout with
      | Page.Typed desc ->
          if Type_desc.is_atomic desc then add "%s %d is typed with an atomic layout" what i;
          if not (offsets == desc.Type_desc.pointer_offsets) then
            add "descriptor pointer offsets of %s %d are not its layout's" what i
      | Page.Conservative | Page.Pointer_free ->
          if Array.length offsets <> 0 then add "descriptor of untyped %s %d has pointer offsets" what i
    in
    let kind = Heap.kind heap i in
    if kind = Page.kind_small then begin
      let object_bytes = Heap.object_bytes heap i in
      check_derived "small page" (Heap.small_layout heap i) ~object_bytes;
      let mul, shift = Heap.reciprocal ~page_size:(Heap.page_size heap) object_bytes in
      if row Heap.row_recip_mul <> mul || row Heap.row_recip_shift <> shift then
        add "descriptor reciprocal of small page %d is (%d, %d) (expected (%d, %d))" i
          (row Heap.row_recip_mul) (row Heap.row_recip_shift) mul shift;
      let alloc = Heap.alloc_words heap i and mark = Heap.mark_words heap i in
      if alloc == mark then add "small page %d: its alloc and mark columns are one array" i
      else
        (* mark ⊆ alloc: the marker only marks allocated slots, sweeps
           clear both bits, and quarantine removes both — so a mark bit
           on a free (or quarantine-removed) slot means a marker wrote
           where it should not have. *)
        Bitset.iter_set_words mark (fun obj ->
            if not (Bitset.mem_words alloc obj) then
              add "mark bit on unallocated slot %d of small page %d" obj i)
    end
    else if kind = Page.kind_large_head then begin
      let l = Heap.large heap i in
      if l.Page.l_marked && not l.Page.l_allocated then
        add "mark flag set on the unallocated large object at %d" i;
      if row Heap.row_object_bytes <> l.Page.object_bytes then
        add "descriptor object_bytes of large head %d is %d (expected %d)" i
          (row Heap.row_object_bytes) l.Page.object_bytes;
      check_derived "large head" l.Page.l_layout ~object_bytes:l.Page.object_bytes
    end
    else if Array.length d.Heap.d_pointer_offsets.(i) <> 0 then
      add "descriptor of untyped page %d has pointer offsets" i
  done

(* Heap-level subset of [check], for backends that are not a [Gc.t]
   (the explicit allocator shares the page substrate but has its own
   free-list discipline). *)
let check_heap heap =
  let issues = ref [] in
  check_page_table heap issues;
  check_descriptors heap issues;
  List.rev !issues

(* Every allocation cursor names an open page of its own class and
   layout — a small page that is not quarantined — or no page. *)
let check_cursors gc issues =
  let heap = Gc.heap gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  List.iter
    (fun (granules, layout, i) ->
      let name = Printf.sprintf "class %d%s cursor" granules (Page.layout_tag layout) in
      if Bitset.mem (Gc.Internal.decayed_pages gc) i then add "%s on quarantined page %d" name i;
      let bytes = granules * Config.granule in
      match Heap.page heap i with
      | Page.Small s when s.Page.object_bytes = bytes && s.Page.layout = layout -> ()
      | p -> add "%s on page %d, which is %s" name i (Format.asprintf "%a" Page.pp p))
    (Gc.Internal.cursor_pages gc)

let check_finalizers gc issues =
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  Finalize.iter_registered
    (fun a token ->
      if not (Gc.is_allocated gc a) then
        add "finalizer %S watches the unallocated address 0x%08x" token (Cgc_vm.Addr.to_int a))
    (Gc.Internal.finalize gc)

let check_live_accounting gc issues =
  let heap = Gc.heap gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let recomputed = Heap.live_bytes heap in
  if recomputed < 0 then add "negative live bytes %d" recomputed

let check gc =
  let issues = ref [] in
  check_page_table (Gc.heap gc) issues;
  check_descriptors (Gc.heap gc) issues;
  check_cursors gc issues;
  check_finalizers gc issues;
  check_live_accounting gc issues;
  List.rev !issues

(* Invariants that must hold even when an injected fault aborted an
   allocation or expansion partway: the committed watermark never covers
   a partially materialized structure.  [check] already rules out
   non-[Uncommitted] pages past the watermark; here we audit the two
   shapes a fault can half-build — a large-object run cut short and a
   size-class page whose slot population went incoherent. *)
let check_after_fault gc =
  let issues = ref (List.rev (check gc)) in
  let heap = Gc.heap gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let committed = Heap.committed_pages heap in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Large_head l ->
          if i + l.Page.n_pages > committed then
            add "large object at %d (%d pages) extends past the committed watermark %d" i
              l.Page.n_pages committed
      | Page.Small s ->
          let allocated = Bitset.count s.Page.alloc in
          if allocated > s.Page.n_objects then
            add "small page %d has %d allocated slots of %d" i allocated s.Page.n_objects
      | Page.Free | Page.Uncommitted | Page.Large_tail _ -> ());
  List.rev !issues

(* Kept only for gcbench's frozen [mark_parallel.*] probe, and deleted
   with it. *)
let check_parallel_mark gc = check_heap (Gc.heap gc)

(* --- precise (type-accurate) mark audit --- *)

(* The exact-reachable closure of the providers' roots, walked through
   the descriptors' pointer offsets with raw heap reads — independent of
   the trace kernel and of any fault plan; a decayed word reads back as
   poison, which names no object.  [on_stale] hears every non-null root
   that names no allocated object. *)
let exact_closure p ~on_stale =
  let gc = Precise.gc p in
  let seg = Heap.segment (Gc.heap gc) in
  let reachable = Hashtbl.create 256 in
  let stack = ref [] in
  let visit a =
    if Addr.to_int a <> 0 && Gc.is_allocated gc a && not (Hashtbl.mem reachable a) then begin
      Hashtbl.replace reachable a ();
      stack := a :: !stack
    end
  in
  List.iter
    (fun a -> if Addr.to_int a <> 0 && not (Gc.is_allocated gc a) then on_stale a else visit a)
    (Precise.roots_now p);
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | base :: rest ->
        stack := rest;
        (match Precise.descriptor p base with
        | None -> () (* pointer-free or untyped: nothing exact to follow *)
        | Some desc ->
            Array.iter
              (fun off -> visit (Addr.of_int (Segment.read_word seg (Addr.add base off))))
              desc.Type_desc.pointer_offsets)
  done;
  reachable

let exact_reachable p =
  List.sort Addr.compare
    (Hashtbl.fold (fun a () acc -> a :: acc) (exact_closure p ~on_stale:ignore) [])

let check_precise_mark p =
  let gc = Precise.gc p in
  let heap = Gc.heap gc in
  let issues = ref (List.rev (check_heap heap)) in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  (* The rest of the audit asks the providers for roots and runs a
     shadow conservative mark; lift any armed fault plan so the audit
     observes the heap instead of perturbing the experiment.  Decayed
     regions still fault with no plan installed: the shadow mark
     downgrades those words, just as the poison they hold would
     classify, and the fault is counted on no plan. *)
  let mem = Gc.mem gc in
  let plan = Mem.fault_plan mem in
  Mem.set_fault_plan mem None;
  Fun.protect
    ~finally:(fun () -> Mem.set_fault_plan mem plan)
    (fun () ->
      let reachable =
        exact_closure p ~on_stale:(fun a ->
            add "root provider names the freed or decayed address 0x%x" (Addr.to_int a))
      in
      (* inclusion: everything exactly reachable must be covered by a
         conservative mark of the same heap — the precise roots are
         registered as a conservative register file, so precise marks ⊆
         conservative marks by construction, and a violation means the
         disciplines disagree about the heap itself.  The shadow mark
         runs on a marker of its own, with throwaway statistics and no
         blacklisting (marking only ever notes into the blacklist, never
         reads it, so the marks are the same): the mark bits are all it
         writes, and they are restored before returning. *)
      if Hashtbl.length reachable > 0 then begin
        let marks = Heap.save_marks heap in
        Fun.protect
          ~finally:(fun () -> Heap.restore_marks heap marks)
          (fun () ->
            let shadow =
              Mark.create heap
                { (Gc.config gc) with Config.blacklisting = false }
                (Gc.blacklist gc) (Stats.create ())
            in
            Heap.clear_marks heap;
            Mark.trace shadow (Gc.Internal.roots gc) ~mem;
            Hashtbl.iter
              (fun base () ->
                if not (Gc.Internal.is_marked gc base) then
                  add "exactly-reachable object 0x%x escapes the conservative mark"
                    (Addr.to_int base))
              reachable)
      end);
  List.rev !issues

let check_after_collect gc =
  let issues = ref (List.rev (check gc)) in
  let heap = Gc.heap gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Small s ->
          if not (Bitset.is_empty s.Page.mark) then add "mark bits left set on page %d after sweep" i
      | Page.Large_head _ | Page.Free | Page.Uncommitted | Page.Large_tail _ -> ());
  let stats = Gc.stats gc in
  let recomputed = Heap.live_bytes heap in
  if stats.Stats.live_bytes <> recomputed then
    add "stats live_bytes %d disagrees with the heap's %d" stats.Stats.live_bytes recomputed;
  List.rev !issues
