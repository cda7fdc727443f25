(* churn: allocation-heavy closed loop.  Each step allocates one object
   and stores it into a random slot of a rooted slot table, so the
   previous occupant (nearly always) dies.  About 70% of requests are
   8-32 B cons cells, 30% pointer-free 16-256 B blobs, and one in a
   thousand an 8-40 KB large object.  Cons cells point at another slot's
   object half of the time and otherwise carry integer-like payload, a
   tenth of it base-conversion constants that land in the heap's
   address band (false references for the blacklist).  Default collector
   configuration: eager sweep, blacklisting on, one marker domain. *)

open Cgc_vm
open Common
module Gc = Cgc.Gc
module Stats = Cgc.Stats

let slots = 32768
let table_slots = 256 (* one 1 KB pointer array per table *)
let tables = slots / table_slots
let phase_steps = 25_000
let phases_per_round = 32
let heap_base = 0x0100_0000
let heap_max = 24 * 1024 * 1024

type kind = Cons | Blob | Large

let kind_code = function Cons -> 0 | Blob -> 1 | Large -> 2

(* The request stream: kind and size in bytes (a multiple of 4). *)
let request rng =
  let r = Rng.float rng in
  if r < 0.001 then (Large, 8192 + (4 * Rng.int rng 8193))
  else if r < 0.70 then (Cons, 8 + (4 * Rng.int rng 7))
  else (Blob, 16 + (4 * Rng.int rng 61))

let payload rng =
  if Rng.chance rng 0.1 then Cgc_workloads.Platform.conversion_value rng else Rng.int rng 65536

(* Word 0 of every object: its size in words, kind and whether word 1
   holds a pointer.  Below 2^17, so never a heap address. *)
let stamp ~words kind ~has_ptr = (words lsl 3) lor (kind_code kind lsl 1) lor if has_ptr then 1 else 0

type env = {
  gc : Gc.t;
  table : Addr.t array;  (** the slot-table arrays, rooted in static data *)
  shadow : int array;  (** slot -> object address, the benchmark's own copy *)
  rng : Rng.t;
}

let slot_of env i = (env.table.(i / table_slots), i mod table_slots)

(* Allocate one request, fill it, and store it into slot [i].  Returns
   the address; [alloc] wraps the [Gc.allocate] call. *)
let step env ~alloc i =
  let kind, bytes = request env.rng in
  let words = bytes / 4 in
  let pointer_free = kind = Blob in
  let a = alloc ~pointer_free bytes in
  let gc = env.gc in
  let has_ptr = kind = Cons && Rng.bool env.rng in
  let s = stamp ~words kind ~has_ptr in
  Gc.set_field gc a 0 s;
  let sum = ref s in
  if kind = Cons then
    for w = 1 to words - 2 do
      let v =
        if w = 1 && has_ptr then env.shadow.(Rng.int env.rng slots)
        else begin
          let v = payload env.rng in
          sum := !sum + v;
          v
        end
      in
      Gc.set_field gc a w v
    done;
  if words >= 3 then Gc.set_field gc a (words - 1) (!sum land 0xFFFF)
  else if has_ptr then Gc.set_field gc a 1 env.shadow.(Rng.int env.rng slots)
  else Gc.set_field gc a 1 (payload env.rng);
  let tbl, k = slot_of env i in
  Gc.set_field gc tbl k (Addr.to_int a);
  env.shadow.(i) <- Addr.to_int a

let build ?(config = Cgc.Config.default) ~seed () =
  let mem = Mem.create () in
  let data = Mem.map mem ~name:"data" ~kind:Segment.Static_data ~base:(Addr.of_int 0x40000) ~size:4096 in
  let gc = Gc.create ~config mem ~base:(Addr.of_int heap_base) ~max_bytes:heap_max () in
  Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"slot tables";
  let table =
    Array.init tables (fun t ->
        let a = Gc.allocate gc (4 * table_slots) in
        Segment.write_word data (Addr.add (Segment.base data) (4 * t)) (Addr.to_int a);
        a)
  in
  let env = { gc; table; shadow = Array.make slots 0; rng = Rng.create seed } in
  for i = 0 to slots - 1 do
    step env ~alloc:(fun ~pointer_free bytes -> Gc.allocate ~pointer_free gc bytes) i
  done;
  env

(* Exact reachability over the fields the benchmark stored pointers in:
   the tables, every slot's object, and word 1 of cons cells stamped as
   pointer-bearing.  Returns requested bytes reached. *)
let reachable_bytes env =
  let gc = env.gc in
  let seen = Hashtbl.create (2 * slots) in
  let total = ref (Array.length env.table * 4 * table_slots) in
  let rec visit a =
    if a <> 0 && not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      let s = Gc.get_field gc (Addr.of_int a) 0 in
      total := !total + (4 * (s lsr 3));
      if s land 1 = 1 then visit (Gc.get_field gc (Addr.of_int a) 1)
    end
  in
  Array.iter visit env.shadow;
  !total

(* Every slot names an allocated object whose stamp and check word are
   intact. *)
let check_slots env =
  let gc = env.gc in
  let bad = ref 0 in
  Array.iteri
    (fun i a ->
      let tbl, k = slot_of env i in
      let addr = Addr.of_int a in
      let ok =
        Gc.get_field gc tbl k = a
        && Gc.is_allocated gc addr
        &&
        let s = Gc.get_field gc addr 0 in
        let words = s lsr 3 and has_ptr = s land 1 = 1 in
        match Gc.object_size gc addr with
        | None -> false
        | Some size when size < 4 * words || words < 2 -> false
        | Some _ ->
            words < 3
            ||
            let sum = ref s in
            for w = 1 to words - 2 do
              if not (w = 1 && has_ptr) then sum := !sum + Gc.get_field gc addr w
            done;
            Gc.get_field gc addr (words - 1) = !sum land 0xFFFF
      in
      if not ok then incr bad)
    env.shadow;
  !bad

(* --- footnote 3: GC alloc+collect against malloc/free on this stream - *)

(* The same request stream driven through a fresh collector (default
   configuration, collecting as it goes) and through the explicit
   allocator (freeing each slot's previous occupant).  Returns the
   explicit allocator's median ns per request over batches of 1000, and
   the ratio of the two mean costs per request. *)
let footnote3 ~seed =
  let steps = 200_000 and batch = 1000 in
  let gc_env = build ~seed () in
  let gc = gc_env.gc in
  let t0 = now_ns () in
  for _ = 1 to steps do
    let _, bytes = request gc_env.rng in
    let a = Gc.allocate gc bytes in
    let tbl, k = slot_of gc_env (Rng.int gc_env.rng slots) in
    Gc.set_field gc tbl k (Addr.to_int a)
  done;
  let gc_mean = float_of_int (now_ns () - t0) /. float_of_int steps in
  let mem = Mem.create () in
  let ex = Cgc.Explicit.create mem ~base:(Addr.of_int heap_base) ~max_bytes:heap_max () in
  let rng = Rng.create seed in
  let held = Array.init slots (fun _ -> Cgc.Explicit.malloc ex (snd (request rng))) in
  let per_batch = Samples.create () in
  let total = ref 0 in
  for _ = 1 to steps / batch do
    let t0 = now_ns () in
    for _ = 1 to batch do
      let _, bytes = request rng in
      let i = Rng.int rng slots in
      Cgc.Explicit.free ex held.(i);
      held.(i) <- Cgc.Explicit.malloc ex bytes
    done;
    let dt = now_ns () - t0 in
    total := !total + dt;
    Samples.add per_batch (float_of_int dt /. float_of_int batch)
  done;
  (Samples.median per_batch, gc_mean /. (float_of_int !total /. float_of_int steps))

(* --- the workload ---------------------------------------------------- *)

type tally = {
  mutable pauses : Samples.t;  (** ms, the current round's *)
  mutable by_round : Samples.t list;  (** every round's pauses, latest first *)
  mutable peak_committed : int;
  mutable requests : int;
  mutable oom : int;
}

let run ctx =
  let r = report () in
  (* [setup_s] is the quiet median of this set-up and one more after
     every untraced round. *)
  let setups = Samples.create () in
  let setup () = build ~seed:ctx.seed () in
  let env = timed_setup setups setup in
  let gc = env.gc in
  let st = Gc.stats gc in
  let heap = Gc.heap gc in
  let small_max = Cgc.Config.max_small_bytes (Gc.config gc) in
  let sample_committed ph =
    ph.peak_committed <- max ph.peak_committed (Cgc.Heap.committed_bytes heap)
  in
  (* Untraced: one clock read before each request, a second only when
     [Stats.collections] moved during it (that call's wall time is the
     pause). *)
  let plain ph ~pointer_free bytes =
    ph.requests <- ph.requests + 1;
    let c0 = st.Stats.collections in
    let t0 = now_ns () in
    let a = Gc.allocate ~pointer_free gc bytes in
    if st.Stats.collections <> c0 then begin
      Samples.add ph.pauses (ms_of_ns (now_ns () - t0));
      sample_committed ph
    end;
    a
  in
  let l = Layers.create () in
  let window = Layers.open_window gc in
  let sampled = ref 0 in
  (* Traced: every call is timed; collecting calls become a collection
     span with CPU-clock mark and sweep children read from [Stats]. *)
  let traced ~parent ~iter ph ~pointer_free bytes =
    ph.requests <- ph.requests + 1;
    let c0 = st.Stats.collections in
    let mark0 = st.Stats.mark_seconds and sweep0 = st.Stats.sweep_seconds in
    let t0 = now_ns () in
    let a = Gc.allocate ~pointer_free gc bytes in
    let t1 = now_ns () in
    l.Layers.alloc_calls <- l.Layers.alloc_calls + 1;
    if st.Stats.collections <> c0 then begin
      l.Layers.alloc_collecting <- l.Layers.alloc_collecting + 1;
      let pause = ms_of_ns (t1 - t0) in
      Samples.add ph.pauses pause;
      Samples.add l.Layers.collect_ms pause;
      sample_committed ph;
      let id = Spans.fresh ctx.spans in
      Spans.record ctx.spans ~id ~parent ~iter "collection" t0 t1;
      let mark_ns = int_of_float ((st.Stats.mark_seconds -. mark0) *. 1e9) in
      let sweep_ns = int_of_float ((st.Stats.sweep_seconds -. sweep0) *. 1e9) in
      Spans.leaf ctx.spans ~clock:"cpu" ~parent:id ~iter "mark" t0 (t0 + mark_ns);
      Spans.leaf ctx.spans ~clock:"cpu" ~parent:id ~iter "sweep" (t0 + mark_ns) (t0 + mark_ns + sweep_ns)
    end
    else begin
      incr sampled;
      if bytes > small_max then Samples.add l.Layers.alloc_large_ns (float_of_int (t1 - t0))
      else if !sampled land 15 = 0 then Samples.add l.Layers.alloc_ns (float_of_int (t1 - t0))
    end;
    a
  in
  let safe_step ph ~alloc i =
    try step env ~alloc i with Gc.Out_of_memory _ -> ph.oom <- ph.oom + 1
  in
  (* One round: [phases_per_round] phases of [phase_steps] requests; the
     traced round adds a driven probe collection (timed serial mark,
     parallel mark and sweep over the live churn heap), outside the
     counting window. *)
  let round ~trace ph iter =
    ph.pauses <- Samples.create ();
    ph.by_round <- ph.pauses :: ph.by_round;
    if trace then begin
      let rid = Spans.fresh ctx.spans in
      let r0 = now_ns () in
      for _ = 1 to phases_per_round do
        let pid = Spans.fresh ctx.spans in
        let q0 = now_ns () in
        let p0 = Samples.sum ph.pauses in
        for _ = 1 to phase_steps do
          safe_step ph ~alloc:(traced ~parent:pid ~iter ph) (Rng.int env.rng slots)
        done;
        let q1 = now_ns () in
        Samples.add l.Layers.iter_s (s_of_ns (q1 - q0));
        Samples.add l.Layers.self_s (s_of_ns (q1 - q0) -. ((Samples.sum ph.pauses -. p0) /. 1e3));
        Spans.record ctx.spans ~id:pid ~parent:rid ~iter "phase" q0 q1
      done;
      let r1 = now_ns () in
      Layers.excluding l gc window (fun () -> Layers.probe_collection l gc);
      let r2 = now_ns () in
      Spans.leaf ctx.spans ~parent:rid ~iter "probe-collection" r1 r2;
      Spans.record ctx.spans ~id:rid ~parent:0 ~iter "round" r0 r2
    end
    else
      for _ = 1 to phases_per_round * phase_steps do
        safe_step ph ~alloc:(plain ph) (Rng.int env.rng slots)
      done
  in
  (* After every round, untimed: an explicit collection and the exact
     walk, for the bytes kept beyond the true live set.  A false
     reference that lands on a dead large object keeps up to 40 KB, so
     single readings are heavy-tailed; the median is reported. *)
  let excess = Samples.create () in
  let sample_excess ph =
    Gc.collect gc;
    sample_committed ph;
    Samples.add excess (float_of_int (st.Stats.live_bytes - reachable_bytes env) /. 1024.)
  in
  let measure ~trace seconds =
    let ph = { pauses = Samples.create (); by_round = []; peak_committed = 0; requests = 0; oom = 0 } in
    sample_committed ph;
    let after _ =
      if trace then Layers.excluding l gc window (fun () -> sample_excess ph)
      else begin
        sample_excess ph;
        if not ctx.trace then extra_setup setups setup
      end
    in
    let times = rounds ~after ~seconds ~min_rounds:8 (round ~trace ph) in
    r.attempted <- r.attempted + ph.requests;
    r.failed <- r.failed + ph.oom;
    (ph, summarize times (List.rev ph.by_round))
  in
  if not ctx.trace then begin
    let ph, sum = measure ~trace:false ctx.seconds in
    sample_excess ph;
    r.pause_samples <- sum.pauses;
    let m = metric r in
    m "setup_s" "s" (quiet_median setups);
    m "wall_s" "s" sum.wall_s;
    m "pause_ms_p50" "ms" sum.pause_p50;
    m "pause_ms_p90" "ms" sum.pause_p90;
    m "gc_share" "ratio" sum.gc_share;
    m "peak_committed_kb" "KB" (float_of_int ph.peak_committed /. 1024.);
    m "retained_excess_kb" "KB" (Samples.median excess)
  end
  else begin
    let _, untraced = measure ~trace:false (ctx.seconds /. 2.) in
    Layers.reset_window gc window;
    let _, traced = measure ~trace:true (ctx.seconds /. 2.) in
    r.pause_samples <- traced.pauses;
    Layers.close_window l gc window;
    Layers.probe_classify l gc (Array.map Addr.to_int env.table) ~min_calls:200_000;
    Layers.probe_read_word l gc;
    let probe_rng = Rng.create (ctx.seed + 1) in
    Layers.probe_allocate l gc ~count:20_000 (fun () ->
        let kind, bytes = request probe_rng in
        (bytes, kind = Blob));
    Gc.collect gc;
    l.Layers.bl_pages <- Gc.blacklisted_pages gc;
    l.Layers.committed_pages <- Cgc.Heap.committed_pages heap;
    Table1.probe l r ctx;
    Layers.emit l r ~footnote:(footnote3 ~seed:ctx.seed) ~trace_wall_s:traced.wall_s
      ~untraced_wall_s:untraced.wall_s
  end;
  let bad = check_slots env in
  check r (bad = 0) (Printf.sprintf "churn: %d slots lost their object or its stamped payload" bad);
  (match Cgc.Verify.check_after_collect gc with
  | [] -> ()
  | v :: _ as vs ->
      check r false (Printf.sprintf "churn: Verify.check_after_collect: %d violations, first: %s" (List.length vs) v));
  r
