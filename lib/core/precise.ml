open Cgc_vm

exception Mark_aborted

type t = {
  gc : Gc.t;
  marker : Mark.t;
      (* the trace kernel on the wrapped heap, with the exact classifier
         (a word names an object only by its base, and nothing is
         blacklisted), stopping at its first unreadable word *)
  roots : Roots.t;  (* one register file: [bases] *)
  snapshot : Heap.mark_snapshot;  (* the marks as [collect] found them, reused *)
  mutable bases : int array;  (* this cycle's live provider roots *)
  mutable providers : (unit -> Addr.t list) list;
  mutable last_stale : Addr.t list;
      (* stale provider roots seen by the most recent [collect], most
         recent first, capped — for audits and error messages *)
}

let gc t = t.gc
let allocate ?finalizer t desc = Gc.Internal.allocate_typed ?finalizer t.gc desc
let add_root_provider t f = t.providers <- f :: t.providers

let descriptor t addr =
  if not (Gc.is_allocated t.gc addr) then None
  else
    match Heap.object_layout (Gc.heap t.gc) addr with
    | _, Page.Typed desc -> Some desc
    | _, (Page.Conservative | Page.Pointer_free) -> None

let roots_now t =
  List.concat_map (fun f -> try f () with Mem.Read_fault _ | Mem.Write_fault _ -> []) t.providers

let last_stale_roots t = List.rev t.last_stale

(* The providers' roots, without null and stale ones.  A stale root (a
   freed or decayed address) is counted and audited, never traced. *)
let live_roots t =
  let stats = Gc.stats t.gc in
  let live base =
    Addr.to_int base <> 0
    && (Gc.is_allocated t.gc base
       || begin
            stats.Stats.precise_stale_roots <- stats.Stats.precise_stale_roots + 1;
            if List.length t.last_stale < 8 then t.last_stale <- base :: t.last_stale;
            false
          end)
  in
  List.filter live (List.concat_map (fun f -> f ()) t.providers)

let collect t =
  let heap = Gc.heap t.gc in
  let stats = Gc.stats t.gc in
  let t0 = Stats.now_s () in
  t.last_stale <- [];
  Heap.save_marks_into heap t.snapshot;
  (* An abort resets the allocation budget, as a completed cycle does:
     a permanent fault would abort the next collect too, so the retry
     waits a budget's worth of allocation. *)
  let abort () =
    Heap.restore_marks heap t.snapshot;
    stats.Stats.precise_mark_aborts <- stats.Stats.precise_mark_aborts + 1;
    Gc.Internal.note_collected t.gc;
    raise Mark_aborted
  in
  Heap.clear_marks heap;
  (match live_roots t with
  | roots -> t.bases <- Array.of_list (List.map Addr.to_int roots)
  | exception (Mem.Read_fault _ | Mem.Write_fault _) -> abort ());
  let downgrades = stats.Stats.mark_downgrades in
  Mark.trace t.marker t.roots ~mem:(Gc.mem t.gc);
  (* A trace that stopped at a word it could not read may have missed
     objects: give up; the next budget trigger collects again. *)
  if stats.Stats.mark_downgrades > downgrades then abort ();
  let t1 = Stats.now_s () in
  stats.Stats.collections <- stats.Stats.collections + 1;
  stats.Stats.precise_collections <- stats.Stats.precise_collections + 1;
  let (_ : Sweep.result) = Gc.Internal.run_sweep t.gc in
  Gc.Internal.note_collected t.gc;
  Stats.add_cycle_time stats ~t0 ~t1 ~t2:(Stats.now_s ())

let create gc =
  let exact =
    { (Gc.config gc) with Config.interior_pointers = false; valid_displacements = []; blacklisting = false }
  in
  let t =
    {
      gc;
      marker = Mark.create ~stop_on_fault:true (Gc.heap gc) exact (Gc.blacklist gc) (Gc.stats gc);
      roots = Roots.create ();
      snapshot = Heap.mark_snapshot ();
      bases = [||];
      providers = [];
      last_stale = [];
    }
  in
  Roots.add t.roots (Roots.Register_file ("precise-roots", fun () -> t.bases));
  (* The create contract: the wrapped collector must never mark this
     heap conservatively behind the precise view's back.  Auto-collect
     goes off, and the budget/ladder paths are redirected to the exact
     collect; an aborted exact mark leaves the heap coherent (marks
     restored), so the ladder simply proceeds to its next rung. *)
  Gc.set_auto_collect gc false;
  Gc.set_collect_hook gc (Some (fun () -> try collect t with Mark_aborted -> ()));
  (* For explicitly requested conservative collections (the
     misidentification experiments), expose the exact roots as a
     register file so the conservative mark is a superset of the
     precise one by construction. *)
  Gc.add_register_roots gc ~label:"precise-roots" (fun () ->
      Array.of_list (List.map Addr.to_int (roots_now t)));
  t

let live_objects t = (Gc.stats t.gc).Stats.live_objects
