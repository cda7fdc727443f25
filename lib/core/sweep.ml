open Cgc_vm

type result = {
  swept_objects : int;
  swept_bytes : int;
  live_objects : int;
  live_bytes : int;
  pages_released : int;
}

(* Running counts of one sweep, folded into [Stats] once at the end. *)
type tally = {
  objects : Bitset.sweep_counts;  (* [kept]: live objects; [dropped]: freed ones *)
  mutable freed_bytes : int;
  mutable live_bytes : int;
  mutable released : int;  (* pages returned to the free pool *)
}

(* The per-page reclamation, on page [index]'s row: free each allocated
   object left unmarked, clear the marks, and return the page to the
   free pool once nothing on it survived.  A small page is one
   [Bitset.sweep_words] over its bitmap words; only while some finalizer
   is registered does it also visit each freed object, in address order,
   to feed the finalization queue. *)
let reclaim tally heap finalize index =
  let kind = Heap.kind heap index in
  if kind = Page.kind_small then begin
    let objects = tally.objects and object_bytes = Heap.object_bytes heap index in
    let alloc = Heap.alloc_words heap index and mark = Heap.mark_words heap index in
    let live0 = objects.Bitset.kept and freed0 = objects.Bitset.dropped in
    if Finalize.registered_count finalize = 0 then Bitset.sweep_words ~alloc ~mark objects
    else begin
      let page_base = Addr.to_int (Heap.page_addr heap index) + Heap.first_offset heap index in
      Bitset.sweep_words ~alloc ~mark objects ~dead:(fun obj ->
          Finalize.on_reclaimed finalize (page_base + (obj * object_bytes)))
    end;
    tally.freed_bytes <- tally.freed_bytes + ((objects.Bitset.dropped - freed0) * object_bytes);
    let live_here = objects.Bitset.kept - live0 in
    if live_here = 0 then tally.released <- tally.released + Heap.release heap index
    else tally.live_bytes <- tally.live_bytes + (live_here * object_bytes)
  end
  else if kind = Page.kind_large_head then begin
    let objects = tally.objects and l = Heap.large heap index in
    if l.Page.l_allocated then begin
      if l.Page.l_marked then begin
        objects.Bitset.kept <- objects.Bitset.kept + 1;
        tally.live_bytes <- tally.live_bytes + l.Page.object_bytes
      end
      else begin
        objects.Bitset.dropped <- objects.Bitset.dropped + 1;
        tally.freed_bytes <- tally.freed_bytes + l.Page.object_bytes;
        Finalize.on_reclaimed finalize (Addr.to_int (Heap.page_addr heap index));
        tally.released <- tally.released + Heap.release heap index
      end
    end;
    l.Page.l_marked <- false
  end

(* A page kept live: its allocated objects count as live, untouched. *)
let keep_live_page tally heap index =
  let kind = Heap.kind heap index in
  if kind = Page.kind_small then begin
    let n = Bitset.count_words (Heap.alloc_words heap index) in
    tally.objects.Bitset.kept <- tally.objects.Bitset.kept + n;
    tally.live_bytes <- tally.live_bytes + (n * Heap.object_bytes heap index)
  end
  else if kind = Page.kind_large_head then begin
    let l = Heap.large heap index in
    if l.Page.l_allocated then begin
      tally.objects.Bitset.kept <- tally.objects.Bitset.kept + 1;
      tally.live_bytes <- tally.live_bytes + l.Page.object_bytes
    end
  end

let run ?(keep_live = fun _ -> false) heap finalize stats =
  let tally =
    { objects = { Bitset.kept = 0; dropped = 0 }; freed_bytes = 0; live_bytes = 0; released = 0 }
  in
  for i = 0 to Heap.committed_pages heap - 1 do
    if keep_live i then keep_live_page tally heap i else reclaim tally heap finalize i
  done;
  let freed = tally.objects.Bitset.dropped and live = tally.objects.Bitset.kept in
  stats.Stats.objects_freed <- stats.Stats.objects_freed + freed;
  stats.Stats.bytes_freed <- stats.Stats.bytes_freed + tally.freed_bytes;
  stats.Stats.live_objects <- live;
  stats.Stats.live_bytes <- tally.live_bytes;
  {
    swept_objects = freed;
    swept_bytes = tally.freed_bytes;
    live_objects = live;
    live_bytes = tally.live_bytes;
    pages_released = tally.released;
  }
