(* Tests for the extension features: root exclusion, registered
   displacements, provenance tracing, and the generational collector. *)

open Cgc_vm
module Gc = Cgc.Gc
module Config = Cgc.Config
module Heap = Cgc.Heap
module Trace = Cgc.Trace
module Generational = Cgc.Generational
module W_gen = Cgc_workloads.Generational_exp

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let heap_base = Addr.of_int 0x400000

let make_env ?(config = { Config.default with Config.initial_pages = 16 }) () =
  let mem = Mem.create () in
  let globals = Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000 in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(1024 * 1024) () in
  Gc.set_auto_collect gc false;
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  (mem, globals, gc)

let slot globals i = Addr.add (Segment.base globals) (4 * i)
let set_slot globals i v = Segment.write_word globals (slot globals i) v

(* --- root exclusion --- *)

let test_exclusion_hides_pointer () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  set_slot globals 10 (Addr.to_int a);
  Gc.collect gc;
  check bool "visible root retains" true (Gc.is_allocated gc a);
  (* exclude the range holding slot 10 *)
  Gc.exclude_roots gc ~lo:(slot globals 8) ~hi:(slot globals 16) ~label:"io buffer";
  Gc.collect gc;
  check bool "excluded root no longer retains" false (Gc.is_allocated gc a)

let test_exclusion_leaves_rest_scanned () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  set_slot globals 2 (Addr.to_int a);
  set_slot globals 20 (Addr.to_int b);
  Gc.exclude_roots gc ~lo:(slot globals 16) ~hi:(slot globals 32) ~label:"buffer";
  Gc.collect gc;
  check bool "before exclusion still scanned" true (Gc.is_allocated gc a);
  check bool "inside exclusion not scanned" false (Gc.is_allocated gc b)

let test_exclusion_splits_range () =
  (* an exclusion strictly inside a root range leaves both sides live *)
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  let c = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  set_slot globals 50 (Addr.to_int b);
  set_slot globals 100 (Addr.to_int c);
  Gc.exclude_roots gc ~lo:(slot globals 40) ~hi:(slot globals 60) ~label:"hole";
  Gc.collect gc;
  check bool "left side scanned" true (Gc.is_allocated gc a);
  check bool "hole skipped" false (Gc.is_allocated gc b);
  check bool "right side scanned" true (Gc.is_allocated gc c)

let test_exclusion_reduces_false_refs () =
  let _, globals, gc = make_env () in
  (* fill a buffer area with false references *)
  for i = 100 to 200 do
    set_slot globals i (Addr.to_int (Addr.add heap_base (4096 * (i - 90))))
  done;
  Gc.collect gc;
  let with_buffer = (Gc.stats gc).Cgc.Stats.false_refs in
  Gc.exclude_roots gc ~lo:(slot globals 100) ~hi:(slot globals 201) ~label:"io buffer";
  Gc.collect gc;
  let delta = (Gc.stats gc).Cgc.Stats.false_refs - with_buffer in
  check bool "false refs fall after exclusion" true (delta < with_buffer / 2)

(* --- registered displacements --- *)

let test_displacement_recognized () =
  let config =
    {
      Config.default with
      Config.initial_pages = 16;
      interior_pointers = false;
      valid_displacements = [ 8 ];
    }
  in
  let _, globals, gc = make_env ~config () in
  let a = Gc.allocate gc 16 in
  set_slot globals 0 (Addr.to_int (Addr.add a 8));
  Gc.collect gc;
  check bool "registered displacement retains" true (Gc.is_allocated gc a);
  (* a non-registered displacement does not *)
  let b = Gc.allocate gc 16 in
  set_slot globals 0 (Addr.to_int (Addr.add b 4));
  Gc.collect gc;
  check bool "unregistered displacement ignored" false (Gc.is_allocated gc b)

let test_displacement_validation () =
  check bool "unaligned displacement rejected" true
    (try
       Config.validate { Config.default with Config.valid_displacements = [ 2 ] };
       false
     with Invalid_argument _ -> true)

(* --- trace --- *)

let test_trace_direct_root () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  set_slot globals 3 (Addr.to_int a);
  match Trace.why_live gc a with
  | Some [ Trace.Root { label; at = Some at; value } ] ->
      check Alcotest.string "label" "globals" label;
      check int "address of the root word" (Addr.to_int (slot globals 3)) (Addr.to_int at);
      check int "value is the object" (Addr.to_int a) value
  | Some chain -> Alcotest.failf "unexpected chain length %d" (List.length chain)
  | None -> Alcotest.fail "expected a chain"

let test_trace_transitive_chain () =
  let _, globals, gc = make_env () in
  let c = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  let a = Gc.allocate gc 8 in
  Gc.set_field gc a 0 (Addr.to_int b);
  Gc.set_field gc b 0 (Addr.to_int c);
  set_slot globals 0 (Addr.to_int a);
  (match Trace.why_live gc c with
  | Some
      [
        Trace.Root _;
        Trace.Heap_word { obj = o1; _ };
        Trace.Heap_word { obj = o2; value = v2; _ };
      ] ->
      check int "first hop through a" (Addr.to_int a) (Addr.to_int o1);
      check int "second hop through b" (Addr.to_int b) (Addr.to_int o2);
      check int "final value names c" (Addr.to_int c) v2
  | Some chain -> Alcotest.failf "unexpected chain %d" (List.length chain)
  | None -> Alcotest.fail "expected a chain");
  check bool "unreachable gives None" true (Trace.why_live gc (Gc.allocate gc 8) <> None |> not)

(* [why_live] reads a typed object as the kernel does: through its
   pointer words only. *)
let test_trace_typed_layout () =
  let _, globals, gc = make_env () in
  let desc = Cgc.Type_desc.make ~name:"rec" ~size_bytes:16 ~pointer_offsets:[ 4 ] in
  let r = Gc.Internal.allocate_typed gc desc in
  let child = Gc.allocate gc 8 in
  let scalar = Gc.allocate gc 8 in
  Gc.set_field gc r 1 (Addr.to_int child);
  Gc.set_field gc r 3 (Addr.to_int scalar);
  set_slot globals 0 (Addr.to_int r);
  (match Trace.why_live gc child with
  | Some [ Trace.Root _; Trace.Heap_word { obj; at; _ } ] ->
      check int "through the typed object" (Addr.to_int r) (Addr.to_int obj);
      check int "at its pointer word" (Addr.to_int r + 4) (Addr.to_int at)
  | Some chain -> Alcotest.failf "unexpected chain %d" (List.length chain)
  | None -> Alcotest.fail "expected a chain");
  check bool "a scalar word explains nothing" true (Trace.why_live gc scalar = None);
  Gc.collect gc;
  check bool "collect agrees: scalar target freed" false (Gc.is_allocated gc scalar)

let test_trace_register_root () =
  let _, _, gc = make_env () in
  let regs = [| 0; 0 |] in
  Gc.add_register_roots gc ~label:"regs" (fun () -> regs);
  let a = Gc.allocate gc 8 in
  regs.(1) <- Addr.to_int a;
  match Trace.why_live gc a with
  | Some (Trace.Root { label; at = None; _ } :: _) -> check Alcotest.string "register label" "regs" label
  | Some _ | None -> Alcotest.fail "expected a register root step"

let test_trace_retained_by () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  let c = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  set_slot globals 1 (Addr.to_int b);
  let explained = Trace.retained_by gc [ a; b; c ] in
  check int "two of three explained" 2 (List.length explained)

let test_trace_does_not_disturb_state () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  let garbage = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  ignore (Trace.why_live gc a);
  (* tracing must not have freed or corrupted anything *)
  check bool "a still allocated" true (Gc.is_allocated gc a);
  check bool "garbage still allocated (no sweep ran)" true (Gc.is_allocated gc garbage);
  Gc.collect gc;
  check bool "normal collection still works" true (Gc.is_allocated gc a);
  check bool "garbage then reclaimed" false (Gc.is_allocated gc garbage)

(* --- inspect --- *)

module Inspect = Cgc.Inspect

let test_inspect_summary () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  ignore (Gc.allocate ~pointer_free:true gc 16);
  ignore (Gc.allocate gc (3 * 4096));
  let s = Inspect.summarize gc in
  check bool "committed pages" true (s.Inspect.committed_pages >= 4);
  check Alcotest.int "one large object" 1 s.Inspect.large_objects;
  check Alcotest.int "large bytes" (3 * 4096) s.Inspect.large_bytes;
  let cons_row = List.find (fun r -> r.Inspect.object_bytes = 8 && not r.Inspect.pointer_free) s.Inspect.classes in
  check Alcotest.int "one live cons" 1 cons_row.Inspect.live_objects;
  let atomic_row = List.find (fun r -> r.Inspect.pointer_free) s.Inspect.classes in
  check Alcotest.int "atomic class present" 16 atomic_row.Inspect.object_bytes;
  (* the printers do not raise and emit something *)
  let out = Format.asprintf "%a" Inspect.pp_summary s in
  check bool "summary prints" true (String.length out > 40);
  let map = Format.asprintf "%a" Inspect.pp_page_map gc in
  check bool "map prints L for large" true (String.contains map 'L')

(* --- verify: the checker actually detects corruption --- *)

module Verify = Cgc.Verify

let test_verify_clean_heap () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  ignore (Gc.allocate gc 16);
  check (Alcotest.list Alcotest.string) "no issues" [] (Verify.check gc);
  Gc.collect gc;
  check (Alcotest.list Alcotest.string) "no issues after collect" [] (Verify.check_after_collect gc)

let test_verify_detects_stale_cursor () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  (* withdraw the cursor's page behind the collector's back *)
  Heap.set_page (Gc.heap gc) (Heap.page_index (Gc.heap gc) a) Cgc.Page.Free;
  check bool "cursor on a non-small page detected" true (Verify.check gc <> [])

let test_verify_detects_dangling_finalizer () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  (* register a finalizer on a bogus (never-allocated) address *)
  Gc.add_finalizer gc (Addr.add a 4096) ~token:"bogus";
  check bool "dangling finalizer detected" true (Verify.check gc <> [])

(* The mark ⊆ alloc audit: a mark bit on a slot nobody allocated means a
   marker wrote where it should not have.  [check], the heap-level
   [check_heap] and [check_parallel_mark] all report it, with the same
   heap-level finding. *)
let test_verify_detects_mark_on_free_slot () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 16 in
  set_slot globals 0 (Addr.to_int a);
  let heap = Gc.heap gc in
  let index = Heap.page_index heap a in
  (match Heap.page heap index with
  | Cgc.Page.Small s -> Bitset.add s.Cgc.Page.mark 1
  | _ -> Alcotest.fail "a 16-byte object lives on a small page");
  let expected =
    [ Printf.sprintf "mark bit on unallocated slot 1 of small page %d" index ]
  in
  check (Alcotest.list Alcotest.string) "check_heap" expected (Verify.check_heap heap);
  check (Alcotest.list Alcotest.string) "check_parallel_mark" expected
    (Verify.check_parallel_mark gc);
  check bool "check" true (List.mem (List.hd expected) (Verify.check gc))

let test_verify_detects_mark_on_free_large () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc (3 * 4096) in
  let heap = Gc.heap gc in
  let index = Heap.page_index heap a in
  (match Heap.page heap index with
  | Cgc.Page.Large_head l ->
      l.Cgc.Page.l_allocated <- false;
      l.Cgc.Page.l_marked <- true
  | _ -> Alcotest.fail "a 12 KB object starts with a large head");
  let expected =
    [ Printf.sprintf "mark flag set on the unallocated large object at %d" index ]
  in
  check (Alcotest.list Alcotest.string) "check_heap" expected (Verify.check_heap heap);
  check (Alcotest.list Alcotest.string) "check_parallel_mark" expected
    (Verify.check_parallel_mark gc)

(* The page-table audit, on a scratch heap with two small pages of
   sixteen-byte slots.  Page 1's row claims 257 objects, which cannot
   fit a 4096-byte page (257 x 16 > 4096): the geometry check reports
   it.  Page 1's mark column is then aliased to its alloc column, so a
   mark would allocate: the distinct-columns check reports it.
   [check_heap] reports exactly those two findings; putting both back
   leaves it clean. *)
let test_verify_detects_descriptor_drift () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let heap = Heap.create (Mem.create ()) ~config ~base:heap_base ~max_bytes:(4 * 4096) in
  let small () =
    Cgc.Page.make_small ~object_bytes:16 ~layout:Cgc.Page.Conservative ~first_offset:0
      ~n_objects:256
  in
  Heap.set_page heap 1 (small ());
  Heap.set_page heap 2 (small ());
  check (Alcotest.list Alcotest.string) "clean before" [] (Verify.check_heap heap);
  let d = Heap.desc heap in
  let field = (1 * Heap.row_stride) + Heap.row_n_objects in
  let mark = d.Heap.d_mark.(1) in
  d.Heap.d_rows.(field) <- 257;
  d.Heap.d_mark.(1) <- d.Heap.d_alloc.(1);
  check (Alcotest.list Alcotest.string) "check_heap"
    [
      "small page 1 overflows its page (257 objects of 16 bytes at offset 0)";
      "small page 1: its alloc and mark columns are one array";
    ]
    (Verify.check_heap heap);
  d.Heap.d_rows.(field) <- 256;
  d.Heap.d_mark.(1) <- mark;
  check (Alcotest.list Alcotest.string) "clean after" [] (Verify.check_heap heap)

(* 1000 rooted cells and 5000 garbage cells: the collect reports exactly
   the rooted bytes, and the heap's own count agrees. *)
let test_live_bytes_match_heap () =
  let _, globals, gc = make_env () in
  for i = 0 to 5999 do
    let a = Gc.allocate gc 8 in
    if i mod 6 = 0 then set_slot globals (i / 6) (Addr.to_int a)
  done;
  Gc.collect gc;
  check int "live bytes" 8000 (Gc.live_bytes gc);
  check int "heap agrees" 8000 (Heap.live_bytes (Gc.heap gc))

(* --- one sweep: every collection sweeps every page before it returns --- *)

let test_collect_reclaims_before_returning () =
  let _, globals, gc = make_env () in
  let keep = Gc.allocate gc 8 in
  let garbage = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int keep);
  let freed = (Gc.stats gc).Cgc.Stats.objects_freed in
  Gc.collect gc;
  check bool "garbage gone when collect returns" false (Gc.is_allocated gc garbage);
  check bool "live object kept" true (Gc.is_allocated gc keep);
  check int "exactly the garbage freed" (freed + 1) (Gc.stats gc).Cgc.Stats.objects_freed;
  check (Alcotest.list Alcotest.string) "invariants hold" [] (Verify.check_after_collect gc)

let test_allocation_recycles () =
  let _, _, gc = make_env () in
  let garbage = Array.init 200 (fun _ -> Gc.allocate gc 8) in
  Gc.collect gc;
  (* the sweep released the garbage's page; the cursor carves the
     lowest free page again and hands its slots out from the bottom *)
  let reused = ref false in
  for _ = 1 to 450 do
    let a = Gc.allocate gc 8 in
    if Array.exists (Addr.equal a) garbage then reused := true
  done;
  check bool "garbage addresses recycled" true !reused

(* A slot handed out of a page the sweep left open starts unmarked and
   allocated: the next collection keeps it when it is rooted. *)
let test_fresh_object_in_reopened_page_survives () =
  let _, globals, gc = make_env () in
  ignore (Gc.allocate gc 8);
  let keep = Gc.allocate gc 8 in
  set_slot globals 1 (Addr.to_int keep);
  Gc.collect gc;
  let a = Gc.allocate gc 8 in
  let heap = Gc.heap gc in
  check int "allocated in the reopened page" (Heap.page_index heap keep) (Heap.page_index heap a);
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "fresh object survives the next collect" true (Gc.is_allocated gc a);
  check int "both rooted objects live" 2 (Gc.stats gc).Cgc.Stats.live_objects;
  check (Alcotest.list Alcotest.string) "invariants hold" [] (Verify.check_after_collect gc)

let test_large_pages_reused () =
  let _, globals, gc = make_env () in
  let big = Gc.allocate gc (3 * 4096) in
  set_slot globals 0 (Addr.to_int big);
  let dead_big = Gc.allocate gc (3 * 4096) in
  Gc.collect gc;
  check bool "dead large reclaimed by the collect" false (Gc.is_allocated gc dead_big);
  (* the freed pages start the lowest free run, so the next large
     object of the same size lands exactly there *)
  let big2 = Gc.allocate gc (3 * 4096) in
  check bool "live large kept" true (Gc.is_allocated gc big);
  check bool "dead large's pages reused" true (Addr.equal big2 dead_big);
  check bool "new large allocated" true (Gc.is_allocated gc big2)

let test_collect_is_timed () =
  let _, globals, gc = make_env () in
  for i = 0 to 5999 do
    let a = Gc.allocate gc 8 in
    if i mod 6 = 0 then set_slot globals (i / 6) (Addr.to_int a)
  done;
  let before = Cgc.Stats.copy (Gc.stats gc) in
  Gc.collect gc;
  let after = Gc.stats gc in
  check bool "mark time rose" true (after.Cgc.Stats.mark_seconds > before.Cgc.Stats.mark_seconds);
  check bool "sweep time rose" true (after.Cgc.Stats.sweep_seconds > before.Cgc.Stats.sweep_seconds);
  check bool "total time rose" true
    (after.Cgc.Stats.total_gc_seconds > before.Cgc.Stats.total_gc_seconds);
  check int "one full collection" (before.Cgc.Stats.collections + 1) after.Cgc.Stats.collections

(* The one phase-time accounting: mark is [t1 - t0], sweep [t2 - t1],
   the cycle [t2 - t0], each added to what the record already holds.
   The times are dyadic, so the sums are exact. *)
let test_cycle_time_accounting () =
  let s = Cgc.Stats.create () in
  Cgc.Stats.add_cycle_time s ~t0:1.0 ~t1:1.5 ~t2:2.25;
  Cgc.Stats.add_cycle_time s ~t0:4.0 ~t1:4.25 ~t2:4.5;
  let exact = Alcotest.float 0.0 in
  check exact "mark" 0.75 s.Cgc.Stats.mark_seconds;
  check exact "sweep" 1.0 s.Cgc.Stats.sweep_seconds;
  check exact "total" 1.75 s.Cgc.Stats.total_gc_seconds;
  check int "collections untouched" 0 s.Cgc.Stats.collections

(* --- generational --- *)

let make_gen ?(promote_after = 2) () =
  let mem, globals, gc = make_env () in
  ignore mem;
  (globals, gc, Generational.create ~promote_after gc)

let test_gen_minor_reclaims_young_garbage () =
  let globals, gc, gen = make_gen () in
  ignore globals;
  let a = Generational.allocate gen 8 in
  Generational.minor gen;
  check bool "young garbage reclaimed by minor" false (Gc.is_allocated gc a)

let test_gen_minor_keeps_rooted_young () =
  let globals, gc, gen = make_gen () in
  let a = Generational.allocate gen 8 in
  set_slot globals 0 (Addr.to_int a);
  Generational.minor gen;
  check bool "rooted young object survives" true (Gc.is_allocated gc a)

let test_gen_promotion () =
  let globals, gc, gen = make_gen ~promote_after:2 () in
  ignore gc;
  let a = Generational.allocate gen 8 in
  set_slot globals 0 (Addr.to_int a);
  check bool "young at first" false (Generational.is_old gen a);
  Generational.minor gen;
  check bool "still young after one minor" false (Generational.is_old gen a);
  Generational.minor gen;
  check bool "promoted after two minors" true (Generational.is_old gen a);
  check bool "promotion recorded" true ((Generational.stats gen).Generational.promoted_pages >= 1)

let test_gen_old_garbage_needs_major () =
  let globals, gc, gen = make_gen ~promote_after:1 () in
  let a = Generational.allocate gen 8 in
  set_slot globals 0 (Addr.to_int a);
  Generational.minor gen;
  check bool "promoted" true (Generational.is_old gen a);
  (* drop it: minor collections cannot reclaim old garbage *)
  set_slot globals 0 0;
  Generational.minor gen;
  check bool "old garbage survives minors" true (Gc.is_allocated gc a);
  Generational.major gen;
  check bool "major reclaims it" false (Gc.is_allocated gc a)

let test_gen_write_barrier () =
  let globals, gc, gen = make_gen ~promote_after:1 () in
  (* an old object pointing at a young one: without the dirty-page scan
     the young object would be collected *)
  let old_obj = Generational.allocate gen 8 in
  set_slot globals 0 (Addr.to_int old_obj);
  Generational.minor gen;
  check bool "holder promoted" true (Generational.is_old gen old_obj);
  let young = Generational.allocate gen 8 in
  Generational.set_field gen old_obj 0 (Addr.to_int young);
  (* the young object is reachable ONLY through the old object *)
  Generational.minor gen;
  check bool "young object kept via dirty old page" true (Gc.is_allocated gc young)

let test_gen_missing_barrier_loses_object () =
  (* demonstrate why the barrier exists: writing through Gc.set_field
     (no barrier) hides the young object from the minor collector *)
  let globals, gc, gen = make_gen ~promote_after:1 () in
  let old_obj = Generational.allocate gen 8 in
  set_slot globals 0 (Addr.to_int old_obj);
  Generational.minor gen;
  (* promotion leaves the page dirty; a settling minor clears the bit
     so the unbarriered store below is genuinely uncovered *)
  Generational.minor gen;
  let young = Generational.allocate gen 8 in
  Gc.set_field gc old_obj 0 (Addr.to_int young);
  Generational.minor gen;
  check bool "unbarriered store loses the young object" false (Gc.is_allocated gc young)

(* A minor is timed like every other cycle: its mark and sweep land in
   the wrapped collector's phase times, though not in its full-collection
   count. *)
let test_gen_minor_is_timed () =
  let globals, gc, gen = make_gen () in
  for i = 0 to 1999 do
    let a = Generational.allocate gen 8 in
    if i mod 2 = 0 then set_slot globals (i / 2) (Addr.to_int a)
  done;
  let before = Cgc.Stats.copy (Gc.stats gc) in
  Generational.minor gen;
  let after = Gc.stats gc in
  check bool "mark time rose" true (after.Cgc.Stats.mark_seconds > before.Cgc.Stats.mark_seconds);
  check bool "total time rose" true
    (after.Cgc.Stats.total_gc_seconds > before.Cgc.Stats.total_gc_seconds);
  check int "full collections unchanged" before.Cgc.Stats.collections after.Cgc.Stats.collections;
  check int "minor counted" 1 (Generational.stats gen).Generational.minor_collections

let test_gen_fresh_allocation_stays_young () =
  let globals, gc, gen = make_gen ~promote_after:1 () in
  ignore globals;
  ignore gc;
  let a = Generational.allocate gen 8 in
  ignore a;
  Generational.minor gen;
  let b = Generational.allocate gen 8 in
  check bool "fresh object is young" false (Generational.is_old gen b)

(* The major lifecycle: a full collection empties the whole dirty set
   (not just the bits of pages that became free) and resets the
   generation clock, and the barrier/rescan machinery still works from
   scratch afterwards. *)
let test_gen_major_clears_dirty () =
  let globals, gc, gen = make_gen ~promote_after:1 () in
  let a = Generational.allocate gen 8 in
  set_slot globals 0 (Addr.to_int a);
  Generational.minor gen;
  check bool "holder promoted" true (Generational.is_old gen a);
  let y = Generational.allocate gen 8 in
  Generational.set_field gen a 0 (Addr.to_int y);
  check bool "barrier store dirtied the old page" true (Generational.dirty_pages gen <> []);
  Generational.major gen;
  check (Alcotest.list int) "dirty set empty after major" [] (Generational.dirty_pages gen);
  check (Alcotest.list int) "no carryovers after major" [] (Generational.carried_pages gen);
  check bool "generation clock reset (survivor young again)" false (Generational.is_old gen a);
  (* the survivor re-earns tenure, and a store-then-minor still rescans *)
  Generational.minor gen;
  check bool "re-promoted" true (Generational.is_old gen a);
  (* promotion installs dirty bits on the re-promoted pages; settle
     them so the +1 below counts the barrier store alone *)
  Generational.minor gen;
  let scanned_before = (Generational.stats gen).Generational.dirty_pages_scanned in
  let z = Generational.allocate gen 8 in
  Generational.set_field gen a 0 (Addr.to_int z);
  check bool "store re-dirties" true (Generational.dirty_pages gen <> []);
  Generational.minor gen;
  check int "minor rescanned the dirty page" (scanned_before + 1)
    (Generational.stats gen).Generational.dirty_pages_scanned;
  check bool "young target kept through the rescan" true (Gc.is_allocated gc z)

(* The sticky young-reference hazard: a dirty old page whose rescan
   finds a still-young target must keep its dirty bit (the store
   happened once; the mutator owes no second barrier), or the next
   minor frees a live object. *)
let test_gen_carry_keeps_sticky_young_reference () =
  let globals, gc, gen = make_gen ~promote_after:2 () in
  let holder = Generational.allocate gen 8 in
  set_slot globals 0 (Addr.to_int holder);
  Generational.minor gen;
  Generational.minor gen;
  check bool "holder promoted" true (Generational.is_old gen holder);
  let young = Generational.allocate gen 8 in
  Generational.set_field gen holder 0 (Addr.to_int young);
  (* reachable ONLY through the old page, across several minors *)
  Generational.minor gen;
  check bool "alive after first rescan" true (Gc.is_allocated gc young);
  check bool "dirty bit carried (target still young)" true
    (Generational.carried_pages gen <> []);
  Generational.minor gen;
  check bool "alive after second minor (the regression)" true (Gc.is_allocated gc young);
  check bool "target promoted by now" true (Generational.is_old gen young);
  (* once the target is old the carryover lapses *)
  Generational.minor gen;
  check (Alcotest.list int) "carry dropped after target tenures" []
    (Generational.carried_pages gen)

(* A post-major retry that also fails must surface BOTH attempts: the
   merged diagnosis carries the rungs climbed before the rescuing major
   as well as the retry's own. *)
let test_gen_oom_merges_both_diagnoses () =
  let globals, gc, gen = make_gen ~promote_after:1 () in
  (* fill the 1MB heap with a rooted chain until nothing fits *)
  let prev = ref 0 in
  (try
     for _ = 1 to 10_000 do
       let o = Generational.allocate gen 2048 in
       Gc.set_field gc o 0 !prev;
       prev := Addr.to_int o;
       set_slot globals 0 !prev
     done;
     Alcotest.fail "expected the chain to outgrow the heap"
   with Gc.Out_of_memory d ->
     (* every failed climb records a Grow rung; the merged diagnosis
        must carry one per attempt (the old code kept only the retry's) *)
     let grows = List.filter (fun r -> r = Gc.Grow) d.Gc.rungs in
     check bool "rungs from both attempts (two ladder climbs)" true (List.length grows >= 2))

let test_gen_experiment_ordering () =
  let clean = W_gen.run W_gen.Clean ~rounds:15 in
  let careless = W_gen.run W_gen.Careless ~rounds:15 in
  check int "clean promotes no garbage" 0 clean.W_gen.garbage_promoted_bytes;
  check bool "careless promotes garbage" true (careless.W_gen.garbage_promoted_bytes > 4096);
  check int "same minors" clean.W_gen.minor_collections careless.W_gen.minor_collections

(* The §3.1 ceiling: raising the tenure threshold cannot rescue a
   careless machine — every measured window still promotes garbage —
   while a hygienic machine promotes nothing at any threshold. *)
let test_gen_promotion_ceiling () =
  let thresholds = [ 1; 4 ] in
  let clean = W_gen.ceiling W_gen.Clean ~thresholds ~rounds:10 in
  let careless = W_gen.ceiling W_gen.Careless ~thresholds ~rounds:10 in
  check bool "clean window promotes nothing at any threshold" true
    (List.for_all (fun p -> p.W_gen.cp_promoted_bytes = 0) clean.W_gen.c_points);
  check bool "careless window promotes garbage at every threshold" true
    (List.for_all (fun p -> p.W_gen.cp_promoted_bytes > 0) careless.W_gen.c_points);
  match careless.W_gen.c_points with
  | [ p1; p4 ] ->
      check bool "higher tenure lowers but does not erase the garbage" true
        (p4.W_gen.cp_promoted_bytes < p1.W_gen.cp_promoted_bytes)
  | _ -> Alcotest.fail "expected two ceiling points"

(* --- debug / find-leak mode --- *)

module Debug = Cgc.Debug

let test_debug_clean_program () =
  let _, globals, gc = make_env () in
  let d = Debug.create gc in
  let a = Debug.allocate d ~tag:"a" 8 in
  set_slot globals 0 (Addr.to_int a);
  let r = Debug.check d in
  check int "live" 1 r.Debug.live;
  check int "no leaks" 0 (List.length r.Debug.leaks);
  (* program finishes with it properly *)
  set_slot globals 0 0;
  Debug.free d a;
  let r = Debug.check d in
  check int "clean free" 1 r.Debug.clean_frees;
  check int "nothing tracked" 0 (Debug.tracked d);
  check bool "actually reclaimed" false (Gc.is_allocated gc a)

let test_debug_detects_leak () =
  let _, globals, gc = make_env () in
  ignore globals;
  let d = Debug.create gc in
  let a = Debug.allocate d ~tag:"parser buffer" 8 in
  (* dropped without free *)
  let r = Debug.check d in
  (match r.Debug.leaks with
  | [ f ] ->
      check int "leak address" (Addr.to_int a) (Addr.to_int f.Debug.address);
      check Alcotest.string "leak tag" "parser buffer" f.Debug.tag
  | _ -> Alcotest.fail "expected exactly one leak");
  (* the leak keeps being reported, and the object is preserved *)
  check bool "leaked object preserved" true (Gc.is_allocated gc a);
  let r = Debug.check d in
  check int "still reported" 1 (List.length r.Debug.leaks)

let test_debug_detects_premature_free () =
  let _, globals, gc = make_env () in
  let d = Debug.create gc in
  let a = Debug.allocate d ~tag:"node" 8 in
  set_slot globals 0 (Addr.to_int a);
  Debug.free d a;
  let r = Debug.check d in
  (match r.Debug.premature_frees with
  | [ f ] -> check Alcotest.string "tag" "node" f.Debug.tag
  | _ -> Alcotest.fail "expected one premature free");
  check bool "object not reclaimed while reachable" true (Gc.is_allocated gc a);
  (* once the program really drops it, it becomes a clean free *)
  set_slot globals 0 0;
  let r = Debug.check d in
  check int "resolved into clean free" 1 r.Debug.clean_frees

let test_debug_double_free () =
  let _, _, gc = make_env () in
  let d = Debug.create gc in
  let a = Debug.allocate d ~tag:"x" 8 in
  Debug.free d a;
  check bool "double free rejected" true
    (try
       Debug.free d a;
       false
     with Invalid_argument _ -> true)

(* --- bounded mark stack --- *)

(* The same wide heap under a 16-entry stack, which overflows, and an
   unbounded one, which must grow: the 3000-field array pushes 3000
   entries in one scan, past the stack's first block of 1024.  Its
   leaves each hold the only pointer to a child, so an entry lost while
   the stack grows leaves a child unmarked. *)
let test_mark_stack_overflow_recovery () =
  List.iter
    (fun limit ->
      let config = { Config.default with Config.initial_pages = 16; mark_stack_limit = limit } in
      let _, globals, gc = make_env ~config () in
      (* a wide structure: the mark stack must hold many siblings at once *)
      let fan = 400 in
      let arrays = 10 in
      let n = ref 0 in
      for i = 0 to arrays - 1 do
        let root = Gc.allocate gc (4 * fan) in
        incr n;
        for f = 0 to fan - 1 do
          let leaf = Gc.allocate gc 8 in
          incr n;
          Gc.set_field gc root f (Addr.to_int leaf)
        done;
        set_slot globals i (Addr.to_int root)
      done;
      let wide = Gc.allocate gc (4 * 3000) in
      incr n;
      for f = 0 to 2999 do
        let leaf = Gc.allocate gc 8 and child = Gc.allocate gc 8 in
        n := !n + 2;
        Gc.set_field gc leaf 0 (Addr.to_int child);
        Gc.set_field gc wide f (Addr.to_int leaf)
      done;
      set_slot globals arrays (Addr.to_int wide);
      Gc.collect gc;
      let overflows = (Gc.stats gc).Cgc.Stats.mark_stack_overflows in
      check bool "overflow happened iff bounded" (limit <> None) (overflows >= 1);
      check int "every object survived" !n (Gc.stats gc).Cgc.Stats.live_objects;
      (* and garbage is still collected correctly *)
      for i = 0 to arrays do
        set_slot globals i 0
      done;
      Gc.collect gc;
      check int "all reclaimed" 0 (Gc.stats gc).Cgc.Stats.live_objects)
    [ Some 16; None ]

let test_mark_overflow_matches_unbounded () =
  (* same random graph, bounded vs unbounded stacks: identical liveness *)
  let build config =
    let _, globals, gc = make_env ~config () in
    let rng = Rng.create 99 in
    let objs =
      Array.init 300 (fun _ -> Gc.allocate gc (8 + (4 * Rng.int rng 3)))
    in
    for _ = 1 to 600 do
      let s = Rng.int rng 300 and d = Rng.int rng 300 in
      Gc.set_field gc objs.(s) 0 (Addr.to_int objs.(d))
    done;
    for i = 0 to 9 do
      set_slot globals i (Addr.to_int objs.(Rng.int rng 300))
    done;
    Gc.collect gc;
    Array.map (Gc.is_allocated gc) objs
  in
  let base = { Config.default with Config.initial_pages = 16 } in
  let unbounded = build base in
  let bounded = build { base with Config.mark_stack_limit = Some 16 } in
  check bool "identical liveness" true (unbounded = bounded)

let () =
  Alcotest.run "extensions"
    [
      ( "exclusion",
        [
          Alcotest.test_case "hides pointer" `Quick test_exclusion_hides_pointer;
          Alcotest.test_case "rest scanned" `Quick test_exclusion_leaves_rest_scanned;
          Alcotest.test_case "splits range" `Quick test_exclusion_splits_range;
          Alcotest.test_case "reduces false refs" `Quick test_exclusion_reduces_false_refs;
        ] );
      ( "displacements",
        [
          Alcotest.test_case "recognized" `Quick test_displacement_recognized;
          Alcotest.test_case "validation" `Quick test_displacement_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "direct root" `Quick test_trace_direct_root;
          Alcotest.test_case "transitive chain" `Quick test_trace_transitive_chain;
          Alcotest.test_case "register root" `Quick test_trace_register_root;
          Alcotest.test_case "typed layout" `Quick test_trace_typed_layout;
          Alcotest.test_case "retained_by" `Quick test_trace_retained_by;
          Alcotest.test_case "non-destructive" `Quick test_trace_does_not_disturb_state;
        ] );
      ( "debug",
        [
          Alcotest.test_case "clean program" `Quick test_debug_clean_program;
          Alcotest.test_case "detects leak" `Quick test_debug_detects_leak;
          Alcotest.test_case "detects premature free" `Quick test_debug_detects_premature_free;
          Alcotest.test_case "double free" `Quick test_debug_double_free;
        ] );
      ( "mark-stack",
        [
          Alcotest.test_case "overflow recovery" `Quick test_mark_stack_overflow_recovery;
          Alcotest.test_case "matches unbounded" `Quick test_mark_overflow_matches_unbounded;
        ] );
      ("inspect", [ Alcotest.test_case "summary" `Quick test_inspect_summary ]);
      ( "verify",
        [
          Alcotest.test_case "clean heap" `Quick test_verify_clean_heap;
          Alcotest.test_case "stale cursor" `Quick test_verify_detects_stale_cursor;
          Alcotest.test_case "dangling finalizer" `Quick test_verify_detects_dangling_finalizer;
          Alcotest.test_case "mark on a free slot" `Quick test_verify_detects_mark_on_free_slot;
          Alcotest.test_case "mark on a free large object" `Quick
            test_verify_detects_mark_on_free_large;
          Alcotest.test_case "descriptor row and words drift" `Quick
            test_verify_detects_descriptor_drift;
          Alcotest.test_case "live bytes match heap" `Quick test_live_bytes_match_heap;
        ] );
      ( "one-sweep",
        [
          Alcotest.test_case "collect reclaims before returning" `Quick
            test_collect_reclaims_before_returning;
          Alcotest.test_case "allocation recycles" `Quick test_allocation_recycles;
          Alcotest.test_case "fresh object in reopened page survives" `Quick
            test_fresh_object_in_reopened_page_survives;
          Alcotest.test_case "large pages reused" `Quick test_large_pages_reused;
          Alcotest.test_case "collect is timed" `Quick test_collect_is_timed;
          Alcotest.test_case "cycle time accounting" `Quick test_cycle_time_accounting;
        ] );
      ( "generational",
        [
          Alcotest.test_case "minor reclaims young garbage" `Quick test_gen_minor_reclaims_young_garbage;
          Alcotest.test_case "minor keeps rooted young" `Quick test_gen_minor_keeps_rooted_young;
          Alcotest.test_case "promotion" `Quick test_gen_promotion;
          Alcotest.test_case "old garbage needs major" `Quick test_gen_old_garbage_needs_major;
          Alcotest.test_case "write barrier" `Quick test_gen_write_barrier;
          Alcotest.test_case "missing barrier" `Quick test_gen_missing_barrier_loses_object;
          Alcotest.test_case "fresh stays young" `Quick test_gen_fresh_allocation_stays_young;
          Alcotest.test_case "minor is timed" `Quick test_gen_minor_is_timed;
          Alcotest.test_case "major clears dirty set" `Quick test_gen_major_clears_dirty;
          Alcotest.test_case "carry keeps sticky young reference" `Quick
            test_gen_carry_keeps_sticky_young_reference;
          Alcotest.test_case "OOM merges both diagnoses" `Quick test_gen_oom_merges_both_diagnoses;
          Alcotest.test_case "hygiene experiment" `Quick test_gen_experiment_ordering;
          Alcotest.test_case "promotion ceiling" `Quick test_gen_promotion_ceiling;
        ] );
    ]
