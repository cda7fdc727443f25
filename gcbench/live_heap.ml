(* live-heap: a large rooted graph, collected over and over.  Set-up
   builds [structures] structures, each rooted in one word of a clean,
   word-aligned static segment: program-T-shaped circular lists of 16 B
   cells, complete binary trees of 16 B nodes, and large pointer arrays
   whose elements are interior pointers (base + 4) into 16 B records.
   Payload words are small integers, below the heap.  The one source of
   retention beyond the live set is a small scratch area of the static
   segment, like a stack frame that is never cleared: the replacement
   routine leaves each replaced structure's old root there, so the last
   [stale_slots] replaced structures stay reachable until overwritten.
   The benchmark's own model therefore predicts [objects_marked] exactly.
   The measured phase repeats: replace a seeded ~5% of the structures,
   then collect explicitly (auto-collect off), so each sweep frees
   something.  One marker domain; the traced run also marks the same
   heap with [Mark.Parallel] every fourth cycle, as a probe. *)

open Cgc_vm
open Common
module Gc = Cgc.Gc
module Stats = Cgc.Stats

let structures = 64
let replaced_per_cycle = structures / 20
let cycles_per_round = 16
let heap_base = 0x0040_0000
let heap_max = 24 * 1024 * 1024
let cell = 16
let stale_slots = 8

type shape = Ring of int | Tree of int | Parray of int

let objects = function Ring n -> n | Tree depth -> (1 lsl depth) - 1 | Parray m -> m + 1

(* Requested bytes of a structure. *)
let bytes = function Parray m -> (4 * m) + (cell * m) | sh -> cell * objects sh

(* Structure [i]'s shape depends on [i] alone, so a replacement keeps
   the live set's size and every seed marks the same amount of work; the
   seed picks the payloads, which structures are replaced, and so where
   in the heap each one lands. *)
let shape i =
  let k = i / 3 in
  match i mod 3 with
  | 0 -> Ring (3000 + (k * 97 mod 2001))
  | 1 -> Tree (11 + (k land 1))
  | _ -> Parray (2048 + (k * 193 mod 2049))

(* Build one structure with [alloc]; returns its root address. *)
let build_structure gc rng ~alloc sh =
  let payload a =
    for w = 1 to (cell / 4) - 1 do
      Gc.set_field gc a w (Rng.int rng 65536)
    done
  in
  match sh with
  | Ring n ->
      let head = alloc cell in
      payload head;
      let prev = ref head in
      for _ = 2 to n do
        let c = alloc cell in
        Gc.set_field gc c 0 (Addr.to_int !prev);
        payload c;
        prev := c
      done;
      Gc.set_field gc head 0 (Addr.to_int !prev);
      head
  | Tree depth ->
      let rec node d =
        if d = 0 then 0
        else begin
          let n = alloc cell in
          Gc.set_field gc n 0 (node (d - 1));
          Gc.set_field gc n 1 (node (d - 1));
          Gc.set_field gc n 2 (Rng.int rng 65536);
          Gc.set_field gc n 3 (Rng.int rng 65536);
          Addr.to_int n
        end
      in
      Addr.of_int (node depth)
  | Parray m ->
      let arr = alloc (4 * m) in
      for j = 0 to m - 1 do
        let r = alloc cell in
        Gc.set_field gc r 0 (Rng.int rng 65536);
        payload r;
        Gc.set_field gc arr j (Addr.to_int r + 4)
      done;
      arr

type env = {
  gc : Gc.t;
  data : Segment.t;
  shapes : shape array;
  stale : shape option array;  (** what each scratch slot keeps alive *)
  mutable next_stale : int;
  mutable rng : Rng.t;
  mutable model_objects : int;  (** objects reachable from the structure roots *)
  mutable model_bytes : int;  (** their requested bytes: the true live set *)
}

let word_at env i = Addr.add (Segment.base env.data) (4 * i)

(* Install a new structure [i]; the previous one's root lingers in the
   next scratch slot. *)
let set_root env i sh root =
  let old = Segment.read_word env.data (word_at env i) in
  if old <> 0 then begin
    let k = env.next_stale in
    Segment.write_word env.data (word_at env (structures + k)) old;
    env.stale.(k) <- Some env.shapes.(i);
    env.next_stale <- (k + 1) mod stale_slots
  end;
  Segment.write_word env.data (word_at env i) (Addr.to_int root);
  env.model_objects <- env.model_objects - objects env.shapes.(i) + objects sh;
  env.model_bytes <- env.model_bytes - bytes env.shapes.(i) + bytes sh;
  env.shapes.(i) <- sh

(* Objects the marker must find: the live structures plus the stale ones. *)
let expected_marked env =
  Array.fold_left (fun acc -> function Some sh -> acc + objects sh | None -> acc) env.model_objects env.stale

let build ~seed () =
  let mem = Mem.create () in
  let data =
    Mem.map mem ~name:"data" ~kind:Segment.Static_data ~base:(Addr.of_int 0x40000)
      ~size:(4 * (structures + stale_slots))
  in
  let gc = Gc.create mem ~base:(Addr.of_int heap_base) ~max_bytes:heap_max () in
  Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"structure roots";
  Gc.set_auto_collect gc false;
  let rng = Rng.create seed in
  let env =
    {
      gc;
      data;
      shapes = Array.make structures (Ring 0);
      stale = Array.make stale_slots None;
      next_stale = 0;
      rng;
      model_objects = 0;
      model_bytes = 0;
    }
  in
  for i = 0 to structures - 1 do
    let sh = shape i in
    set_root env i sh (build_structure gc rng ~alloc:(Gc.allocate gc) sh)
  done;
  env

(* The mutator half of a cycle: rebuild a seeded ~5% of the structures. *)
let replace env ~alloc =
  for _ = 1 to replaced_per_cycle do
    let i = Rng.int env.rng structures in
    let sh = shape i in
    set_root env i sh (build_structure env.gc env.rng ~alloc sh)
  done

(* Exact reachability over the fields the benchmark stored pointers in
   (list links, tree children, array elements); returns requested bytes
   and objects reached. *)
let reachable env =
  let gc = env.gc in
  let bytes = ref 0 and count = ref 0 in
  let reach b =
    bytes := !bytes + b;
    incr count
  in
  Array.iteri
    (fun i sh ->
      let root = Segment.read_word env.data (word_at env i) in
      match sh with
      | Ring _ ->
          let rec walk a =
            reach cell;
            let next = Gc.get_field gc (Addr.of_int a) 0 in
            if next <> root then walk next
          in
          walk root
      | Tree _ ->
          let rec walk a =
            if a <> 0 then begin
              reach cell;
              walk (Gc.get_field gc (Addr.of_int a) 0);
              walk (Gc.get_field gc (Addr.of_int a) 1)
            end
          in
          walk root
      | Parray m ->
          reach (4 * m);
          for j = 0 to m - 1 do
            ignore (Gc.get_field gc (Addr.of_int root) j : int);
            reach cell
          done)
    env.shapes;
  (!bytes, !count)

let run ctx =
  let r = report () in
  (* Every round starts from a fresh set-up of the same seed, so every
     round does the same work: the replacements scatter the structures
     over the heap, and a heap scattered for longer marks more slowly.
     The round's replacements come from a stream of its own, so the
     structures left stale, and with them [retained_excess_kb], vary
     from round to round as they would over one long run.  [setup_s] is
     the quiet median of the rounds' set-ups. *)
  let setups = Samples.create () in
  let current = ref None and built = ref 0 in
  let fresh_env () =
    current := None;
    Stdlib.Gc.full_major ();
    let env = timed_setup setups (fun () -> build ~seed:ctx.seed ()) in
    incr built;
    env.rng <- Rng.create ((ctx.seed * 65_537) + !built);
    current := Some env
  in
  fresh_env ();
  let env () = Option.get !current in
  let small_max = Cgc.Config.max_small_bytes (Gc.config (env ()).gc) in
  let peak = ref 0 in
  let bad_cycles = ref 0 in
  let verify_failures = ref [] in
  let l = Layers.create () in
  let expect_marked env got = if got <> expected_marked env then incr bad_cycles in
  (* bytes the collector keeps beyond the true live set, after each
     collection *)
  let excess = Samples.create () in
  let after_collection env =
    Samples.add excess (float_of_int ((Gc.stats env.gc).Stats.live_bytes - env.model_bytes));
    peak := max !peak (Cgc.Heap.committed_bytes (Gc.heap env.gc))
  in
  let requests = ref 0 in
  let plain_alloc gc bytes =
    incr requests;
    Gc.allocate gc bytes
  in
  let sampled = ref 0 in
  let traced_alloc gc bytes =
    incr requests;
    let t0 = now_ns () in
    let a = Gc.allocate gc bytes in
    let dt = float_of_int (now_ns () - t0) in
    l.Layers.alloc_calls <- l.Layers.alloc_calls + 1;
    incr sampled;
    if bytes > small_max then Samples.add l.Layers.alloc_large_ns dt
    else if !sampled land 15 = 0 then Samples.add l.Layers.alloc_ns dt;
    a
  in
  (* Untraced cycle: the pause is the wall time of [Gc.collect]. *)
  let plain_cycle env pauses =
    let gc = env.gc in
    let st = Gc.stats gc in
    replace env ~alloc:(plain_alloc gc);
    let o0 = st.Stats.objects_marked in
    let t0 = now_ns () in
    Gc.collect gc;
    Samples.add pauses (ms_of_ns (now_ns () - t0));
    expect_marked env (st.Stats.objects_marked - o0);
    after_collection env
  in
  (* Traced cycle: the benchmark drives mark and sweep through
     [Gc.Internal]; every fourth cycle first marks the same heap with
     two marker domains as a probe, audited by
     [Verify.check_parallel_mark].  [window] counts the round. *)
  let traced_cycle env window pauses ~iter =
    let gc = env.gc in
    let cid = Spans.fresh ctx.spans in
    let c0 = now_ns () in
    replace env ~alloc:(traced_alloc gc);
    let c1 = now_ns () in
    Spans.leaf ctx.spans ~parent:cid ~iter "mutator" c0 c1;
    if iter mod 4 = 0 then
      Layers.excluding l gc window (fun () ->
          let p0 = now_ns () in
          expect_marked env (Layers.mark_parallel l gc);
          let p1 = now_ns () in
          Spans.leaf ctx.spans ~parent:cid ~iter "probe-mark" p0 p1;
          (match Cgc.Verify.check_parallel_mark gc with
          | [] -> ()
          | v :: _ -> verify_failures := v :: !verify_failures);
          Spans.leaf ctx.spans ~parent:cid ~iter "verify" p1 (now_ns ()));
    let gid = Spans.fresh ctx.spans in
    let cpu0 = Sys.time () in
    let g0 = now_ns () in
    let marked = Layers.mark_serial l gc in
    let g1 = now_ns () in
    let cpu1 = Sys.time () in
    expect_marked env marked;
    Spans.leaf ctx.spans ~parent:gid ~iter "mark" g0 g1;
    let cpu2 = Sys.time () in
    let s0 = now_ns () in
    ignore (Layers.sweep l gc : int);
    let s1 = now_ns () in
    let cpu3 = Sys.time () in
    Spans.leaf ctx.spans ~parent:gid ~iter "sweep" s0 s1;
    Spans.record ctx.spans ~id:gid ~parent:cid ~iter "collection" g0 s1;
    let pause = ms_of_ns (s1 - g0) in
    Samples.add pauses pause;
    Samples.add l.Layers.collect_ms pause;
    l.Layers.collections <- l.Layers.collections + 1;
    l.Layers.mark_cpu_s <- l.Layers.mark_cpu_s +. (cpu1 -. cpu0);
    l.Layers.gc_cpu_s <- l.Layers.gc_cpu_s +. (cpu1 -. cpu0) +. (cpu3 -. cpu2);
    after_collection env;
    Spans.record ctx.spans ~id:cid ~parent:0 ~iter "cycle" c0 (now_ns ());
    Samples.add l.Layers.iter_s (s_of_ns (now_ns () - c0));
    Samples.add l.Layers.self_s (s_of_ns (c1 - c0))
  in
  let measure ~trace seconds =
    let by_round = ref [] in
    let times =
      rounds ~after:(fun _ -> fresh_env ()) ~seconds ~min_rounds:8 (fun round ->
          let env = env () in
          let pauses = Samples.create () in
          by_round := pauses :: !by_round;
          let window = Layers.open_window env.gc in
          for k = 0 to cycles_per_round - 1 do
            if trace then traced_cycle env window pauses ~iter:((round * cycles_per_round) + k)
            else plain_cycle env pauses
          done;
          if trace then Layers.close_window l env.gc window)
    in
    summarize times (List.rev !by_round)
  in
  let untraced = measure ~trace:false (if ctx.trace then ctx.seconds /. 2. else ctx.seconds) in
  let traced = if ctx.trace then Some (measure ~trace:true (ctx.seconds /. 2.)) else None in
  (* The checks below, and the traced run's probes, use a heap that has
     been through one more round, untimed. *)
  let env = env () in
  let gc = env.gc in
  for _ = 1 to cycles_per_round do
    plain_cycle env (Samples.create ())
  done;
  (match traced with
  | None ->
      r.pause_samples <- untraced.pauses;
      let m = metric r in
      m "setup_s" "s" (quiet_median setups);
      m "wall_s" "s" untraced.wall_s;
      m "pause_ms_p50" "ms" untraced.pause_p50;
      m "pause_ms_p90" "ms" untraced.pause_p90;
      m "gc_share" "ratio" untraced.gc_share;
      m "peak_committed_kb" "KB" (float_of_int !peak /. 1024.);
      m "retained_excess_kb" "KB" (Samples.median excess /. 1024.)
  | Some traced ->
      r.pause_samples <- traced.pauses;
      Layers.probe_classify l gc (Layers.root_words gc env.data) ~min_calls:200_000;
      Layers.probe_read_word l gc;
      let probe_rng = Rng.create (ctx.seed + 1) in
      Layers.probe_allocate l gc ~count:20_000 (fun () ->
          ((if Rng.int probe_rng 1000 = 0 then 4 * 4096 else cell), false));
      Gc.collect gc;
      l.Layers.bl_pages <- Gc.blacklisted_pages gc;
      l.Layers.committed_pages <- Cgc.Heap.committed_pages (Gc.heap gc);
      Table1.probe l r ctx;
      Layers.emit l r ~footnote:(Churn.footnote3 ~seed:ctx.seed) ~trace_wall_s:traced.wall_s
        ~untraced_wall_s:untraced.wall_s);
  r.attempted <- !requests;
  let reached_bytes, reached = reachable env in
  check r
    (reached = env.model_objects && reached_bytes = env.model_bytes)
    (Printf.sprintf "live-heap: walk reached %d objects (%d B), model says %d (%d B)" reached reached_bytes
       env.model_objects env.model_bytes);
  check r (!bad_cycles = 0)
    (Printf.sprintf "live-heap: %d cycles marked a different object count than the model" !bad_cycles);
  (match !verify_failures with
  | [] -> ()
  | v :: _ -> check r false ("live-heap: Verify.check_parallel_mark: " ^ v));
  (match Cgc.Verify.check_after_collect gc with
  | [] -> ()
  | v :: _ -> check r false ("live-heap: Verify.check_after_collect: " ^ v));
  r
