open Cgc_vm
open Cgc

(* The paper's validity test, transcribed against [Page.t] views of the
   page table and dividing where the kernel multiplies by the
   reciprocal: no code shared with [Heap.find_object], the kernel's
   [classify_row] or the rules [Mark.classify] applies. *)
let classify heap (config : Config.t) value =
  if not (Heap.contains heap value) then Mark.Outside
  else begin
    let page = Heap.page_index heap value in
    let invalid = Mark.False_in_heap { page } in
    match Heap.page heap page with
    | Page.Uncommitted | Page.Free -> invalid
    | Page.Small s ->
        let off_in_page = value - Addr.to_int (Heap.page_addr heap page) in
        let rel = off_in_page - s.Page.first_offset in
        if rel < 0 then invalid
        else begin
          let index = rel / s.Page.object_bytes in
          let displacement = rel mod s.Page.object_bytes in
          if index >= s.Page.n_objects then invalid
          else if not (Bitset.mem s.Page.alloc index) then invalid
          else if
            displacement = 0 || config.Config.interior_pointers
            || List.mem displacement config.Config.valid_displacements
          then
            Mark.Valid
              {
                base =
                  Addr.add (Heap.page_addr heap page)
                    (s.Page.first_offset + (index * s.Page.object_bytes));
                page;
              }
          else invalid
        end
    | Page.Large_head l ->
        if not l.Page.l_allocated then invalid
        else begin
          let off = value - Addr.to_int (Heap.page_addr heap page) in
          if off = 0 then Mark.Valid { base = Heap.page_addr heap page; page }
          else if
            config.Config.interior_pointers && off < l.Page.object_bytes
            (* any offset within the first page is within both regimes *)
          then Mark.Valid { base = Heap.page_addr heap page; page }
          else invalid
        end
    | Page.Large_tail { head_index } -> (
        if not config.Config.interior_pointers then invalid
        else
          match config.Config.large_validity with
          | Config.First_page_only -> invalid
          | Config.Anywhere -> (
              match Heap.page heap head_index with
              | Page.Large_head l when l.Page.l_allocated ->
                  let off = value - Addr.to_int (Heap.page_addr heap head_index) in
                  if off < l.Page.object_bytes then
                    Mark.Valid { base = Heap.page_addr heap head_index; page = head_index }
                  else invalid
              | Page.Large_head _ | Page.Uncommitted | Page.Free | Page.Small _
              | Page.Large_tail _ ->
                  invalid))
  end

type t = {
  heap : Heap.t;
  config : Config.t;
  blacklist : Blacklist.t;
  stats : Stats.t;
  mem : Mem.t;
  stack : int Stack.t;  (* object base addresses *)
  depth_limit : int option;  (* [Config.mark_stack_limit] *)
  mutable dropped : bool;  (* a push found the stack full since the last rescan *)
  mutable last_page : int;  (* page of the previous in-heap word classified; -1 none *)
}

(* A full stack drops the push: the object stays marked, and the
   recovery rescan finds its children. *)
let push t base =
  match t.depth_limit with
  | Some limit when Stack.length t.stack >= limit -> t.dropped <- true
  | Some _ | None -> Stack.push base t.stack

let set_mark_bit t page base =
  match Heap.page t.heap page with
  | Page.Small s ->
      let rel = base - Addr.to_int (Heap.page_addr t.heap page) - s.Page.first_offset in
      let index = rel / s.Page.object_bytes in
      if Bitset.mem s.Page.mark index then `Already
      else begin
        Bitset.add s.Page.mark index;
        `Newly
      end
  | Page.Large_head l ->
      if l.Page.l_marked then `Already
      else begin
        l.Page.l_marked <- true;
        `Newly
      end
  | Page.Uncommitted | Page.Free | Page.Large_tail _ ->
      (* classify returned Valid, yet the page is no longer an object
         page: it was retired between classification and marking,
         possible only when a fault plan decays pages mid-scan.
         Downgrade the reference — skip it, never retain, never crash. *)
      t.stats.Stats.mark_downgrades <- t.stats.Stats.mark_downgrades + 1;
      `Already

(* The hits a one-entry header cache scores: an in-heap word whose page
   is the previous in-heap word's page. *)
let note_page t value =
  if Heap.contains t.heap value then begin
    let page = Heap.page_index t.heap value in
    if page = t.last_page then
      t.stats.Stats.header_cache_hits <- t.stats.Stats.header_cache_hits + 1;
    t.last_page <- page
  end

let consider t value =
  t.stats.Stats.words_scanned <- t.stats.Stats.words_scanned + 1;
  note_page t value;
  match classify t.heap t.config value with
  | Mark.Outside -> ()
  | Mark.False_in_heap { page } ->
      t.stats.Stats.false_refs <- t.stats.Stats.false_refs + 1;
      if t.config.Config.blacklisting then Blacklist.note t.blacklist page
  | Mark.Valid { base; page } -> (
      t.stats.Stats.valid_refs <- t.stats.Stats.valid_refs + 1;
      match set_mark_bit t page base with
      | `Already -> ()
      | `Newly ->
          t.stats.Stats.objects_marked <- t.stats.Stats.objects_marked + 1;
          push t base)

(* A faulted read is counted and the word skipped, never retained. *)
let downgrade t =
  t.stats.Stats.words_scanned <- t.stats.Stats.words_scanned + 1;
  t.stats.Stats.read_faults <- t.stats.Stats.read_faults + 1;
  t.stats.Stats.mark_downgrades <- t.stats.Stats.mark_downgrades + 1

let scan_words t seg ~lo ~hi =
  let alignment = t.config.Config.alignment in
  if Mem.read_faults_armed t.mem then
    Segment.iter_words seg ~alignment ~lo ~hi (fun addr value ->
        match Mem.probe_read t.mem addr with
        | None -> consider t value
        | Some _reason -> downgrade t)
  else Segment.iter_words seg ~alignment ~lo ~hi (fun _addr value -> consider t value)

let scan_object t base =
  let size, pointer_free =
    match Heap.page t.heap (Heap.page_index t.heap base) with
    | Page.Small s -> (s.Page.object_bytes, s.Page.layout = Page.Pointer_free)
    | Page.Large_head l -> (l.Page.object_bytes, l.Page.l_layout = Page.Pointer_free)
    | Page.Uncommitted | Page.Free | Page.Large_tail _ ->
        (* retired between push and pop under a decaying fault plan *)
        t.stats.Stats.mark_downgrades <- t.stats.Stats.mark_downgrades + 1;
        (0, true)
  in
  if not pointer_free then scan_words t (Heap.segment t.heap) ~lo:base ~hi:(Addr.add base size)

let drain t =
  while not (Stack.is_empty t.stack) do
    scan_object t (Stack.pop t.stack)
  done

(* One overflow episode is counted per phase that dropped a push — the
   initial scan, then each rescan round — and a round rescans every
   marked object, probing each slot's mark bit. *)
let recover t =
  while t.dropped do
    t.stats.Stats.mark_stack_overflows <- t.stats.Stats.mark_stack_overflows + 1;
    t.dropped <- false;
    Heap.iter_committed t.heap (fun index p ->
        (match p with
        | Page.Small s ->
            let base = Addr.to_int (Heap.page_addr t.heap index) + s.Page.first_offset in
            for obj = 0 to s.Page.n_objects - 1 do
              if Bitset.mem s.Page.mark obj then scan_object t (base + (obj * s.Page.object_bytes))
            done
        | Page.Large_head l ->
            if l.Page.l_marked then scan_object t (Addr.to_int (Heap.page_addr t.heap index))
        | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
        drain t)
  done

let run gc =
  let heap = Gc.heap gc in
  let t =
    {
      heap;
      config = Gc.config gc;
      blacklist = Gc.blacklist gc;
      stats = Gc.stats gc;
      mem = Heap.mem heap;
      stack = Stack.create ();
      depth_limit = (Gc.config gc).Config.mark_stack_limit;
      dropped = false;
      last_page = -1;
    }
  in
  let roots = Gc.Internal.roots gc in
  Heap.clear_marks heap;
  Blacklist.begin_cycle t.blacklist;
  List.iter
    (fun (_, values) ->
      Array.iter
        (fun v ->
          consider t v;
          drain t)
        values)
    (Roots.current_registers roots);
  List.iter
    (fun { Roots.lo; hi; label = _ } ->
      (match Mem.find (Gc.mem gc) lo with
      | None -> ()
      | Some seg -> scan_words t seg ~lo ~hi);
      drain t)
    (Roots.current_ranges roots);
  recover t
