(* Per-layer accounting for the traced run.  Every figure is taken at a
   layer boundary from outside the library: wall-clock timing around a
   call into a public function, or a [Stats] / [Blacklist] / [Heap]
   counter read before and after. *)

open Cgc_vm
open Common
module Gc = Cgc.Gc
module Stats = Cgc.Stats

type t = {
  alloc_ns : Samples.t;  (** non-collecting [Gc.allocate] calls (sampled) *)
  alloc_large_ns : Samples.t;
  mutable alloc_calls : int;
  mutable alloc_collecting : int;
  collect_ms : Samples.t;
  mark_ms : Samples.t;  (** serial marks the benchmark drove *)
  mutable mark_words : int;
  mutable mark_s : float;
  par_ms : Samples.t;
  mutable par_words : int;
  mutable par_s : float;
  mutable par_attempts : int;
  mutable par_fallbacks : int;
  par_imbalance : Samples.t;
  sweep_ms : Samples.t;
  mutable sweep_pages : int;
  mutable sweep_s : float;
  sweep_freed_ratio : Samples.t;
  sweep_released : Samples.t;
  classify_ns : Samples.t;
  read_word_ns : Samples.t;
  build_env_ms : Samples.t;
  row_s : Samples.t;  (** Program T rows *)
  machine_self_s : Samples.t;
  iter_s : Samples.t;
  self_s : Samples.t;
  (* counter deltas over the traced phase *)
  mutable collections : int;
  mutable words_scanned : int;
  mutable objects_marked : int;
  mutable valid_refs : int;
  mutable false_refs : int;
  mutable cache_hits : int;
  mutable overflows : int;
  mutable mark_cpu_s : float;
  mutable gc_cpu_s : float;
  mutable bl_ops : int;
  mutable bl_checks : int;
  mutable bl_rejected : int;
  mutable bl_pages : int;
  mutable expansions : int;
  mutable committed_pages : int;
}

let create () =
  {
    alloc_ns = Samples.create ();
    alloc_large_ns = Samples.create ();
    alloc_calls = 0;
    alloc_collecting = 0;
    collect_ms = Samples.create ();
    mark_ms = Samples.create ();
    mark_words = 0;
    mark_s = 0.;
    par_ms = Samples.create ();
    par_words = 0;
    par_s = 0.;
    par_attempts = 0;
    par_fallbacks = 0;
    par_imbalance = Samples.create ();
    sweep_ms = Samples.create ();
    sweep_pages = 0;
    sweep_s = 0.;
    sweep_freed_ratio = Samples.create ();
    sweep_released = Samples.create ();
    classify_ns = Samples.create ();
    read_word_ns = Samples.create ();
    build_env_ms = Samples.create ();
    row_s = Samples.create ();
    machine_self_s = Samples.create ();
    iter_s = Samples.create ();
    self_s = Samples.create ();
    collections = 0;
    words_scanned = 0;
    objects_marked = 0;
    valid_refs = 0;
    false_refs = 0;
    cache_hits = 0;
    overflows = 0;
    mark_cpu_s = 0.;
    gc_cpu_s = 0.;
    bl_ops = 0;
    bl_checks = 0;
    bl_rejected = 0;
    bl_pages = 0;
    expansions = 0;
    committed_pages = 0;
  }

(* Fold the counter movement of one collector between two snapshots
   (a [Stats.copy] and a [Blacklist.ops] reading) into [l]. *)
let add_counters l gc ~(before : Stats.t) ~bl_ops_before =
  let st = Gc.stats gc in
  l.collections <- l.collections + (st.Stats.collections - before.Stats.collections);
  l.words_scanned <- l.words_scanned + (st.Stats.words_scanned - before.Stats.words_scanned);
  l.objects_marked <- l.objects_marked + (st.Stats.objects_marked - before.Stats.objects_marked);
  l.valid_refs <- l.valid_refs + (st.Stats.valid_refs - before.Stats.valid_refs);
  l.false_refs <- l.false_refs + (st.Stats.false_refs - before.Stats.false_refs);
  l.cache_hits <- l.cache_hits + (st.Stats.header_cache_hits - before.Stats.header_cache_hits);
  l.overflows <- l.overflows + (st.Stats.mark_stack_overflows - before.Stats.mark_stack_overflows);
  l.mark_cpu_s <- l.mark_cpu_s +. (st.Stats.mark_seconds -. before.Stats.mark_seconds);
  l.gc_cpu_s <- l.gc_cpu_s +. (st.Stats.total_gc_seconds -. before.Stats.total_gc_seconds);
  l.bl_ops <- l.bl_ops + (Cgc.Blacklist.ops (Gc.blacklist gc) - bl_ops_before);
  l.bl_checks <- l.bl_checks + (st.Stats.blacklist_alloc_checks - before.Stats.blacklist_alloc_checks);
  l.bl_rejected <- l.bl_rejected + (st.Stats.blacklist_rejected_pages - before.Stats.blacklist_rejected_pages);
  l.expansions <- l.expansions + (st.Stats.heap_expansions - before.Stats.heap_expansions)

(* A counting window over one collector: counters move into [l] only
   while a window is open, so probes can be excluded. *)
type window = { mutable before : Stats.t; mutable bl_ops_before : int }

let open_window gc = { before = Stats.copy (Gc.stats gc); bl_ops_before = Cgc.Blacklist.ops (Gc.blacklist gc) }
let close_window l gc w = add_counters l gc ~before:w.before ~bl_ops_before:w.bl_ops_before

(* Reopen [w] now, forgetting what moved since it was opened. *)
let reset_window gc w =
  w.before <- Stats.copy (Gc.stats gc);
  w.bl_ops_before <- Cgc.Blacklist.ops (Gc.blacklist gc)

(* Run [f] with the window closed. *)
let excluding l gc w f =
  close_window l gc w;
  let v = f () in
  reset_window gc w;
  v

(* --- driven phases: the benchmark calls the mark and sweep itself --- *)

(* Serial mark through [Gc.Internal.run_mark]; returns objects marked. *)
let mark_serial l gc =
  let st = Gc.stats gc in
  let w0 = st.Stats.words_scanned and o0 = st.Stats.objects_marked in
  let t0 = now_ns () in
  Gc.Internal.run_mark gc;
  let dt = now_ns () - t0 in
  Samples.add l.mark_ms (ms_of_ns dt);
  l.mark_words <- l.mark_words + (st.Stats.words_scanned - w0);
  l.mark_s <- l.mark_s +. s_of_ns dt;
  st.Stats.objects_marked - o0

(* Parallel mark with two marker domains; returns objects marked. *)
let mark_parallel l gc =
  let st = Gc.stats gc in
  let w0 = st.Stats.words_scanned and o0 = st.Stats.objects_marked in
  let t0 = now_ns () in
  let outcome = Gc.Internal.run_mark_parallel gc ~jobs:2 in
  let dt = now_ns () - t0 in
  Samples.add l.par_ms (ms_of_ns dt);
  l.par_words <- l.par_words + (st.Stats.words_scanned - w0);
  l.par_s <- l.par_s +. s_of_ns dt;
  l.par_attempts <- l.par_attempts + 1;
  if outcome.Cgc.Mark.Parallel.fallback <> None then l.par_fallbacks <- l.par_fallbacks + 1;
  let shards = outcome.Cgc.Mark.Parallel.shards in
  if Array.length shards > 0 then begin
    let words = Array.map (fun s -> float_of_int s.Stats.words_scanned) shards in
    let total = Array.fold_left ( +. ) 0. words in
    if total > 0. then
      Samples.add l.par_imbalance
        (Array.fold_left Float.max 0. words /. (total /. float_of_int (Array.length words)))
  end;
  st.Stats.objects_marked - o0

(* Sweep using the current mark bits and reset the allocation budget,
   as [Gc.collect] does on completion.  Returns the sweep's wall time
   in ns. *)
let sweep l gc =
  let pages = Cgc.Heap.committed_pages (Gc.heap gc) in
  let t0 = now_ns () in
  let r = Gc.Internal.run_sweep gc in
  Gc.Internal.note_collected gc;
  let dt = now_ns () - t0 in
  Samples.add l.sweep_ms (ms_of_ns dt);
  l.sweep_pages <- l.sweep_pages + pages;
  l.sweep_s <- l.sweep_s +. s_of_ns dt;
  let examined = r.Cgc.Sweep.swept_objects + r.Cgc.Sweep.live_objects in
  if examined > 0 then
    Samples.add l.sweep_freed_ratio (float_of_int r.Cgc.Sweep.swept_objects /. float_of_int examined);
  Samples.add l.sweep_released (float_of_int r.Cgc.Sweep.pages_released);
  dt

(* A probe collection on a heap whose collector runs inside the
   workload: serial mark, parallel mark of the same heap, then sweep. *)
let probe_collection l gc =
  ignore (mark_serial l gc : int);
  ignore (mark_parallel l gc : int);
  ignore (sweep l gc : int)

(* --- micro-probes over the workload's own data ---------------------- *)

(* [Mark.classify] over the given words, repeated until at least
   [min_calls] classifications; ns per call. *)
let probe_classify l gc words ~min_calls =
  let n = Array.length words in
  if n > 0 then begin
    let heap = Gc.heap gc and config = Gc.config gc in
    let reps = max 1 ((min_calls + n - 1) / n) in
    let sink = ref 0 in
    let t0 = now_ns () in
    for _ = 1 to reps do
      Array.iter
        (fun w ->
          match Cgc.Mark.classify heap config w with
          | Cgc.Mark.Valid _ -> incr sink
          | Cgc.Mark.False_in_heap _ | Cgc.Mark.Outside -> ())
        words
    done;
    Samples.add l.classify_ns (float_of_int (now_ns () - t0) /. float_of_int (reps * n));
    ignore (Sys.opaque_identity !sink)
  end

(* The words of a root segment, read at the collector's scan alignment. *)
let root_words gc seg =
  let alignment = (Gc.config gc).Cgc.Config.alignment in
  let acc = ref [] in
  Segment.iter_words seg ~alignment ~lo:(Segment.base seg) ~hi:(Segment.limit seg) (fun _ w ->
      acc := w :: !acc);
  Array.of_list !acc

(* [Segment.read_word] over the committed heap, word-aligned; ns per read. *)
let probe_read_word l gc =
  let heap = Gc.heap gc in
  let seg = Cgc.Heap.segment heap in
  let lo = Addr.to_int (Cgc.Heap.base heap) in
  let n = Cgc.Heap.committed_bytes heap / 4 in
  let sink = ref 0 in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    sink := !sink lxor Segment.read_word seg (Addr.of_int (lo + (4 * i)))
  done;
  if n > 0 then Samples.add l.read_word_ns (float_of_int (now_ns () - t0) /. float_of_int n);
  ignore (Sys.opaque_identity !sink)

(* Non-collecting [Gc.allocate] latency on a finished heap: the requests
   come from [next] with auto-collect off, then the previous setting is
   restored. *)
let probe_allocate l gc ~count next =
  let auto = Gc.auto_collect gc in
  Gc.set_auto_collect gc false;
  let small_max = Cgc.Config.max_small_bytes (Gc.config gc) in
  for _ = 1 to count do
    let bytes, pointer_free = next () in
    let t0 = now_ns () in
    ignore (Gc.allocate ~pointer_free gc bytes : Addr.t);
    let dt = float_of_int (now_ns () - t0) in
    Samples.add (if bytes > small_max then l.alloc_large_ns else l.alloc_ns) dt
  done;
  Gc.set_auto_collect gc auto

(* The per-layer metric set, identical for every workload. *)
let emit l r ~footnote:(malloc_free_p50, gc_over_malloc) ~trace_wall_s ~untraced_wall_s =
  let m = metric r in
  let per_gc v = if l.collections = 0 then 0. else float_of_int v /. float_of_int l.collections in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  m "gc.allocate.calls" "count" (float_of_int l.alloc_calls);
  m "gc.allocate.ns_p50" "ns" (Samples.median l.alloc_ns);
  m "gc.allocate.ns_p99" "ns" (Samples.quantile l.alloc_ns 0.99);
  m "gc.allocate.collecting_calls" "count" (float_of_int l.alloc_collecting);
  m "gc.allocate.large_ns_p50" "ns" (Samples.median l.alloc_large_ns);
  m "gc.collect.calls" "count" (float_of_int (Samples.length l.collect_ms));
  m "gc.collect.ms_p50" "ms" (Samples.median l.collect_ms);
  m "gc.mark_share_cpu" "ratio" (if l.gc_cpu_s > 0. then l.mark_cpu_s /. l.gc_cpu_s else 0.);
  m "mark.ms_p50" "ms" (Samples.median l.mark_ms);
  m "mark.words_per_s" "1/s" (float_of_int l.mark_words /. l.mark_s);
  m "mark.words_scanned" "count/gc" (per_gc l.words_scanned);
  m "mark.objects_marked" "count/gc" (per_gc l.objects_marked);
  m "mark.false_ref_ratio" "ratio" (ratio l.false_refs l.words_scanned);
  m "mark.header_cache_hits_per_valid_ref" "ratio" (ratio l.cache_hits l.valid_refs);
  m "mark.stack_overflows" "count" (float_of_int l.overflows);
  m "mark.classify_ns" "ns" (Samples.median l.classify_ns);
  let par_rate = float_of_int l.par_words /. l.par_s in
  m "mark_parallel.ms_p50" "ms" (Samples.median l.par_ms);
  m "mark_parallel.words_per_s" "1/s" par_rate;
  m "mark_parallel.speedup" "ratio" (par_rate /. (float_of_int l.mark_words /. l.mark_s));
  m "mark_parallel.fallback_ratio" "ratio" (ratio l.par_fallbacks l.par_attempts);
  m "mark_parallel.shard_imbalance" "ratio" (Samples.median l.par_imbalance);
  m "sweep.ms_p50" "ms" (Samples.median l.sweep_ms);
  m "sweep.ns_per_page" "ns" (l.sweep_s *. 1e9 /. float_of_int l.sweep_pages);
  m "sweep.freed_ratio" "ratio" (Samples.median l.sweep_freed_ratio);
  m "sweep.pages_released" "count/gc" (Samples.sum l.sweep_released /. float_of_int (Samples.length l.sweep_released));
  m "blacklist.ops" "count/gc" (per_gc l.bl_ops);
  m "blacklist.pages" "count" (float_of_int l.bl_pages);
  m "blacklist.reject_ratio" "ratio" (ratio l.bl_rejected l.bl_checks);
  m "blacklist.ops_per_mark_word" "ratio" (ratio l.bl_ops l.words_scanned);
  m "heap.expansions" "count" (float_of_int l.expansions);
  m "heap.committed_pages" "count" (float_of_int l.committed_pages);
  m "segment.read_word_ns" "ns" (Samples.median l.read_word_ns);
  m "platform.build_env_ms" "ms" (Samples.median l.build_env_ms);
  m "program_t.run_s_p50" "s" (Samples.median l.row_s);
  m "machine.self_s" "s" (Samples.median l.machine_self_s);
  m "iter.s_p50" "s" (Samples.median l.iter_s);
  m "mutator.self_s" "s" (Samples.median l.self_s);
  m "explicit.malloc_free_ns_p50" "ns" malloc_free_p50;
  m "gc.alloc_collect_over_malloc_free" "ratio" gc_over_malloc;
  m "trace.wall_s" "s" trace_wall_s;
  m "trace.overhead_s" "s" (trace_wall_s -. untraced_wall_s)
