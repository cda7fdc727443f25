open Cgc_vm
open Cgc

type tally = {
  mutable freed : int;
  mutable freed_bytes : int;
  mutable live : int;
  mutable live_bytes : int;
  mutable released : int;
}

let reclaim tally heap finalize index =
  match Heap.page heap index with
  | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ()
  | Page.Small s ->
      let page_base = Addr.to_int (Heap.page_addr heap index) + s.Page.first_offset in
      let live0 = tally.live and freed0 = tally.freed in
      Bitset.iter_set s.Page.alloc (fun obj ->
          if Bitset.mem s.Page.mark obj then tally.live <- tally.live + 1
          else begin
            Bitset.remove s.Page.alloc obj;
            tally.freed <- tally.freed + 1;
            Finalize.on_reclaimed finalize (page_base + (obj * s.Page.object_bytes))
          end);
      Bitset.clear s.Page.mark;
      tally.freed_bytes <- tally.freed_bytes + ((tally.freed - freed0) * s.Page.object_bytes);
      let live_here = tally.live - live0 in
      if live_here = 0 then begin
        Heap.set_page heap index Page.Free;
        tally.released <- tally.released + 1
      end
      else tally.live_bytes <- tally.live_bytes + (live_here * s.Page.object_bytes)
  | Page.Large_head l ->
      if l.Page.l_allocated then begin
        if l.Page.l_marked then begin
          tally.live <- tally.live + 1;
          tally.live_bytes <- tally.live_bytes + l.Page.object_bytes
        end
        else begin
          l.Page.l_allocated <- false;
          tally.freed <- tally.freed + 1;
          tally.freed_bytes <- tally.freed_bytes + l.Page.object_bytes;
          Finalize.on_reclaimed finalize (Addr.to_int (Heap.page_addr heap index));
          for j = index to index + l.Page.n_pages - 1 do
            Heap.set_page heap j Page.Free
          done;
          tally.released <- tally.released + l.Page.n_pages
        end
      end;
      l.Page.l_marked <- false

let keep_live_page tally = function
  | Page.Small s ->
      let n = ref 0 in
      Bitset.iter_set s.Page.alloc (fun _ -> incr n);
      tally.live <- tally.live + !n;
      tally.live_bytes <- tally.live_bytes + (!n * s.Page.object_bytes)
  | Page.Large_head l ->
      if l.Page.l_allocated then begin
        tally.live <- tally.live + 1;
        tally.live_bytes <- tally.live_bytes + l.Page.object_bytes
      end
  | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ()

let run ?(keep_live = fun _ -> false) heap finalize stats =
  let tally = { freed = 0; freed_bytes = 0; live = 0; live_bytes = 0; released = 0 } in
  for i = 0 to Heap.committed_pages heap - 1 do
    if keep_live i then keep_live_page tally (Heap.page heap i) else reclaim tally heap finalize i
  done;
  stats.Stats.objects_freed <- stats.Stats.objects_freed + tally.freed;
  stats.Stats.bytes_freed <- stats.Stats.bytes_freed + tally.freed_bytes;
  stats.Stats.live_objects <- tally.live;
  stats.Stats.live_bytes <- tally.live_bytes;
  {
    Sweep.swept_objects = tally.freed;
    swept_bytes = tally.freed_bytes;
    live_objects = tally.live;
    live_bytes = tally.live_bytes;
    pages_released = tally.released;
  }
