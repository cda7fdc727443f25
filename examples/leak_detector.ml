(* Using the collector as a leak detector (paper section 4): a queue
   consumer forgets to clear links, one stale integer names an old node,
   and the "bounded" queue quietly retains every node it ever dequeued.
   Finalization tokens pinpoint the survivors; clearing the link on
   dequeue fixes it.

     dune exec examples/leak_detector.exe
*)

open Cgc_vm
module Harness = Cgc_workloads.Harness
module Builder = Cgc_mutator.Builder

let run ~clear_links =
  let h = Harness.create () in
  let gc = h.Harness.gc in
  let q = Builder.queue_create h.Harness.machine in
  Harness.set_root h 0 (Addr.to_int (Builder.queue_header q));
  let window = 4 in
  let watched = ref [] in
  for i = 1 to 600 do
    let node = Builder.queue_push q i in
    (* watch every 50th element *)
    if i mod 50 = 0 then begin
      Cgc.Gc.add_finalizer gc node ~token:(Printf.sprintf "element %d" i);
      watched := (i, node) :: !watched
    end;
    (* a stale local integer happens to hold node 75's address *)
    if i = 75 then Harness.set_root h 1 (Addr.to_int node);
    while Builder.queue_length q > window do
      ignore (Builder.queue_pop ~clear_link:clear_links q)
    done
  done;
  Cgc.Gc.collect gc;
  let reclaimed = Cgc.Gc.drain_finalized gc in
  Format.printf "%s: %d watched elements finalized:@."
    (if clear_links then "links cleared on dequeue" else "links left in place")
    (List.length reclaimed);
  List.iter (fun (_, tok) -> Format.printf "    reclaimed %s@." tok) reclaimed;
  (* the survivors are the leak; ask the collector for the chain of
     words that keeps each one alive *)
  let shown = ref false in
  List.iter
    (fun (i, node) ->
      if Cgc.Gc.is_allocated gc node then
        match Cgc.Trace.why_live gc node with
        | Some chain when not !shown ->
            shown := true;
            Format.printf "    element %d still held:@.      %a@." i Cgc.Trace.pp_chain chain
        | Some (first :: _ as chain) ->
            Format.printf "    element %d still held: %d-step chain from %a@." i
              (List.length chain) Cgc.Trace.pp_step first
        | Some [] | None -> Format.printf "    element %d still allocated@." i)
    (List.rev !watched);
  Format.printf "    live bytes after GC: %d@.@." (Cgc.Gc.live_bytes gc)

let () =
  Format.printf
    "A queue keeps at most 4 elements alive, 600 pass through it, and one@.\
     stale word names element 75.  Which dequeued elements get reclaimed?@.@.";
  run ~clear_links:false;
  run ~clear_links:true;
  Format.printf
    "Without clearing, every element after 75 hangs off the false reference@.\
     (\"queues ... grow without bound\"); the missing finalization tokens say@.\
     exactly where the leak starts.  \"Queues no longer grow without bound if@.\
     the queue link field is cleared when an item is removed.\" (section 4)@."
