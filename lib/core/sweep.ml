open Cgc_vm

type result = {
  swept_objects : int;
  swept_bytes : int;
  live_objects : int;
  live_bytes : int;
  pages_released : int;
}

let sweep_page heap finalize stats index =
  let freed = ref 0 in
  (match Heap.page heap index with
  | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ()
  | Page.Small s ->
      let page_base = Addr.to_int (Heap.page_addr heap index) + s.Page.first_offset in
      (* Word-level enumeration of allocated slots: whole empty words of
         the alloc bitmap are skipped instead of probed bit by bit. *)
      Bitset.iter_set s.Page.alloc (fun obj ->
          if not (Bitset.mem s.Page.mark obj) then begin
            Bitset.remove s.Page.alloc obj;
            incr freed;
            stats.Stats.objects_freed <- stats.Stats.objects_freed + 1;
            stats.Stats.bytes_freed <- stats.Stats.bytes_freed + s.Page.object_bytes;
            Finalize.on_reclaimed finalize (page_base + (obj * s.Page.object_bytes))
          end);
      Bitset.clear s.Page.mark;
      if Bitset.is_empty s.Page.alloc then Heap.set_page heap index Page.Free
  | Page.Large_head l ->
      if l.Page.l_allocated && not l.Page.l_marked then begin
        l.Page.l_allocated <- false;
        incr freed;
        stats.Stats.objects_freed <- stats.Stats.objects_freed + 1;
        stats.Stats.bytes_freed <- stats.Stats.bytes_freed + l.Page.object_bytes;
        Finalize.on_reclaimed finalize (Addr.to_int (Heap.page_addr heap index));
        for j = index to index + l.Page.n_pages - 1 do
          Heap.set_page heap j Page.Free
        done
      end;
      l.Page.l_marked <- false);
  !freed

let default_policy _ _ = `Sweep

let run ?(policy = default_policy) heap finalize stats =
  let swept_objects = ref 0 in
  let swept_bytes = ref 0 in
  let live_objects = ref 0 in
  let live_bytes = ref 0 in
  let pages_released = ref 0 in
  let n_committed = Heap.committed_pages heap in
  for i = 0 to n_committed - 1 do
    match (Heap.page heap i, policy i (Heap.page heap i)) with
    | (Page.Uncommitted | Page.Free | Page.Large_tail _), _ -> ()
    | Page.Small s, `Keep_live ->
        let live_here = Bitset.count s.Page.alloc in
        live_objects := !live_objects + live_here;
        live_bytes := !live_bytes + (live_here * s.Page.object_bytes)
    | Page.Large_head l, `Keep_live ->
        if l.Page.l_allocated then begin
          incr live_objects;
          live_bytes := !live_bytes + l.Page.object_bytes
        end
    | Page.Small s, `Sweep ->
        let page_base = Addr.to_int (Heap.page_addr heap i) + s.Page.first_offset in
        let live_here = ref 0 in
        Bitset.iter_set s.Page.alloc (fun index ->
            if Bitset.mem s.Page.mark index then incr live_here
            else begin
              Bitset.remove s.Page.alloc index;
              incr swept_objects;
              swept_bytes := !swept_bytes + s.Page.object_bytes;
              Finalize.on_reclaimed finalize (page_base + (index * s.Page.object_bytes))
            end);
        Bitset.clear s.Page.mark;
        if !live_here = 0 then begin
          Heap.set_page heap i Page.Free;
          incr pages_released
        end
        else begin
          live_objects := !live_objects + !live_here;
          live_bytes := !live_bytes + (!live_here * s.Page.object_bytes)
        end
    | Page.Large_head l, `Sweep ->
        if l.Page.l_allocated then begin
          if l.Page.l_marked then begin
            incr live_objects;
            live_bytes := !live_bytes + l.Page.object_bytes
          end
          else begin
            l.Page.l_allocated <- false;
            incr swept_objects;
            swept_bytes := !swept_bytes + l.Page.object_bytes;
            Finalize.on_reclaimed finalize (Addr.to_int (Heap.page_addr heap i));
            for j = i to i + l.Page.n_pages - 1 do
              Heap.set_page heap j Page.Free
            done;
            pages_released := !pages_released + l.Page.n_pages
          end
        end;
        l.Page.l_marked <- false
  done;
  stats.Stats.objects_freed <- stats.Stats.objects_freed + !swept_objects;
  stats.Stats.bytes_freed <- stats.Stats.bytes_freed + !swept_bytes;
  stats.Stats.live_objects <- !live_objects;
  stats.Stats.live_bytes <- !live_bytes;
  {
    swept_objects = !swept_objects;
    swept_bytes = !swept_bytes;
    live_objects = !live_objects;
    live_bytes = !live_bytes;
    pages_released = !pages_released;
  }
