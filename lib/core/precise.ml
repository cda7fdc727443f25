open Cgc_vm

exception
  Mark_aborted of {
    addr : Addr.t;
    op : [ `Read | `Write ];
    retries : int;
  }

type t = {
  gc : Gc.t;
  descs : (Addr.t, Type_desc.t) Hashtbl.t;
  mutable providers : (unit -> Addr.t list) list;
  mark_stack : int array;
      (* preallocated exact mark stack ([Addr.t] unifies with [int]);
         sized from [Config.mark_stack_limit] like the conservative
         marker's, with the same overflow discipline *)
  mutable last_stale : Addr.t list;
      (* stale provider roots seen by the most recent [collect], most
         recent first, capped — for audits and error messages *)
}

let gc t = t.gc

let allocate ?finalizer t desc =
  let base =
    Gc.allocate
      ~pointer_free:(Type_desc.is_atomic desc)
      ?finalizer t.gc desc.Type_desc.size_bytes
  in
  Hashtbl.replace t.descs base desc;
  base

let add_root_provider t f = t.providers <- f :: t.providers

let descriptor t addr =
  if Gc.is_allocated t.gc addr then Hashtbl.find_opt t.descs addr else None

let descriptor_count t = Hashtbl.length t.descs
let iter_descriptors t f = Hashtbl.iter f t.descs

let roots_now t =
  List.concat_map
    (fun f ->
      try f () with Mem.Read_fault _ | Mem.Write_fault _ -> [])
    t.providers

let last_stale_roots t = List.rev t.last_stale

(* Abort-and-restore: the mark bits live in page metadata, so a
   snapshot is a per-page copy.  No allocation happens during an exact
   collect, so the committed-page set cannot change between save and
   restore. *)
let save_marks heap =
  let acc = ref [] in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Small s -> acc := (i, `Small (Bitset.copy s.Page.mark)) :: !acc
      | Page.Large_head l -> acc := (i, `Large l.Page.l_marked) :: !acc
      | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
  !acc

let restore_marks heap snapshot =
  List.iter
    (fun (i, saved) ->
      match (Heap.page heap i, saved) with
      | Page.Small s, `Small bits ->
          Bitset.clear s.Page.mark;
          Bitset.union_into ~dst:s.Page.mark bits
      | Page.Large_head l, `Large m -> l.Page.l_marked <- m
      | _, _ -> ())
    snapshot

(* How many times a faulting exact pointer slot is re-read before the
   phase gives up.  Chance-style plans are transient (each probe rolls
   again); countdown/decay plans re-arm or persist, so the budget is
   deliberately small. *)
let transient_retries = 3

let read_field_retrying t base i =
  let stats = Gc.stats t.gc in
  let rec go attempt =
    try Gc.get_field t.gc base i
    with Mem.Read_fault { addr; _ } ->
      if attempt < transient_retries then begin
        stats.Stats.precise_mark_retries <- stats.Stats.precise_mark_retries + 1;
        go (attempt + 1)
      end
      else raise (Mark_aborted { addr; op = `Read; retries = attempt })
  in
  go 0

(* The exact trace.  Raises [Mark_aborted] (and nothing else) on an
   unrecoverable access fault; the caller owns restoring mark state. *)
let mark_exact t =
  let heap = Gc.heap t.gc in
  let stats = Gc.stats t.gc in
  let word = (Gc.config t.gc).Config.granule in
  let stack = t.mark_stack in
  let cap = Array.length stack in
  let top = ref 0 in
  let overflowed = ref false in
  let push base =
    if !top >= cap then begin
      if not !overflowed then
        stats.Stats.mark_stack_overflows <- stats.Stats.mark_stack_overflows + 1;
      overflowed := true
    end
    else begin
      stack.(!top) <- Addr.to_int base;
      incr top
    end
  in
  (* every caller has checked [Gc.is_allocated], so [base] is an exact
     object base *)
  let mark_and_push base =
    if Heap.mark_object heap base then begin
      stats.Stats.objects_marked <- stats.Stats.objects_marked + 1;
      push base
    end
  in
  let visit_child value =
    (* null and non-object words are ordinary exact-map dataflow (a nil
       tail, a scalar slot the descriptor doesn't cover): skipped, not
       stale.  Staleness is a root-provider property. *)
    if value <> 0 && Gc.is_allocated t.gc value then mark_and_push (Addr.of_int value)
  in
  let scan_object base =
    match Hashtbl.find_opt t.descs base with
    | None -> () (* unknown layout: treat as atomic *)
    | Some desc ->
        Array.iter
          (fun off -> visit_child (read_field_retrying t base (off / word)))
          desc.Type_desc.pointer_offsets
  in
  let drain () =
    while !top > 0 do
      decr top;
      scan_object (Addr.of_int stack.(!top))
    done
  in
  List.iter
    (fun f ->
      let roots =
        try f () with
        | Mem.Read_fault { addr; _ } ->
            raise (Mark_aborted { addr; op = `Read; retries = 0 })
        | Mem.Write_fault { addr; _ } ->
            raise (Mark_aborted { addr; op = `Write; retries = 0 })
      in
      List.iter
        (fun base ->
          if Addr.to_int base = 0 then ()
          else if not (Gc.is_allocated t.gc base) then begin
            (* a provider handed us a freed or decayed address: counted
               and audited, never silently `Already`-swallowed *)
            stats.Stats.precise_stale_roots <- stats.Stats.precise_stale_roots + 1;
            if List.length t.last_stale < 8 then t.last_stale <- base :: t.last_stale
          end
          else mark_and_push base)
        roots)
    t.providers;
  drain ();
  (* Bounded-stack overflow discipline, exact-map flavor: instead of
     rescanning dirty heap regions conservatively, rescan every marked
     object that has a descriptor — dropped children are re-discovered
     because [visit_child] pushes only newly-marked objects, so each
     round either marks something new or terminates the loop. *)
  while !overflowed do
    overflowed := false;
    Hashtbl.iter
      (fun base (_ : Type_desc.t) ->
        if Gc.is_allocated t.gc base && Heap.is_marked heap base then scan_object base)
      t.descs;
    drain ()
  done

(* Evict descriptors of swept objects (they would otherwise accumulate
   across cycles: [allocate] only ever [Hashtbl.replace]s on
   reallocation of the same base). *)
let evict_swept_descriptors t =
  Hashtbl.filter_map_inplace
    (fun base desc -> if Gc.is_allocated t.gc base then Some desc else None)
    t.descs

let collect t =
  let heap = Gc.heap t.gc in
  let stats = Gc.stats t.gc in
  let t0 = Stats.now_s () in
  t.last_stale <- [];
  let snapshot = save_marks heap in
  Heap.clear_marks heap;
  (try mark_exact t
   with Mark_aborted _ as e ->
     restore_marks heap snapshot;
     stats.Stats.precise_mark_aborts <- stats.Stats.precise_mark_aborts + 1;
     raise e);
  let t1 = Stats.now_s () in
  stats.Stats.collections <- stats.Stats.collections + 1;
  stats.Stats.precise_collections <- stats.Stats.precise_collections + 1;
  let (_ : Sweep.result) = Gc.Internal.run_sweep t.gc in
  evict_swept_descriptors t;
  Gc.Internal.note_collected t.gc;
  let t2 = Stats.now_s () in
  stats.Stats.mark_seconds <- stats.Stats.mark_seconds +. (t1 -. t0);
  stats.Stats.sweep_seconds <- stats.Stats.sweep_seconds +. (t2 -. t1);
  stats.Stats.total_gc_seconds <- stats.Stats.total_gc_seconds +. (t2 -. t0)

let create gc =
  let cap =
    match (Gc.config gc).Config.mark_stack_limit with
    | Some n -> max 2 n
    | None -> 4096
  in
  let t =
    {
      gc;
      descs = Hashtbl.create 256;
      providers = [];
      mark_stack = Array.make cap 0;
      last_stale = [];
    }
  in
  (* The create contract: the wrapped collector must never mark this
     heap conservatively behind the precise view's back.  Auto-collect
     goes off, and the budget/ladder paths are redirected to the exact
     collect; an aborted exact mark leaves the heap coherent (marks
     restored), so the ladder simply proceeds to its next rung. *)
  Gc.set_auto_collect gc false;
  Gc.set_collect_hook gc (Some (fun () -> try collect t with Mark_aborted _ -> ()));
  (* For explicitly requested conservative collections (the
     misidentification experiments), expose the exact roots as a
     register file so the conservative mark is a superset of the
     precise one by construction. *)
  Gc.add_register_roots gc ~label:"precise-roots" (fun () ->
      Array.of_list (List.map Addr.to_int (roots_now t)));
  t

let live_objects t = (Gc.stats t.gc).Stats.live_objects
