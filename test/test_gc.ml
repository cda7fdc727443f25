(* Unit tests for the conservative collector core (lib/core). *)

open Cgc_vm
module Gc = Cgc.Gc
module Config = Cgc.Config
module Page = Cgc.Page
module Heap = Cgc.Heap
module Mark = Cgc.Mark
module Blacklist = Cgc.Blacklist
module Free_list = Cgc.Free_list
module Stats = Cgc.Stats
module Explicit = Cgc.Explicit
module Precise = Cgc.Precise
module Type_desc = Cgc.Type_desc
module Finalize = Cgc.Finalize

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let heap_base = Addr.of_int 0x100000

(* A standard environment: an address space with a root area segment at
   0x10000 and a collector with automatic collection turned off so tests
   control exactly when collections happen. *)
let make_env ?(config = Config.default) ?(heap_kb = 512) () =
  let mem = Mem.create () in
  let globals = Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000 in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(heap_kb * 1024) () in
  Gc.set_auto_collect gc false;
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  (mem, globals, gc)

let slot globals i = Addr.add (Segment.base globals) (4 * i)
let set_slot globals i v = Segment.write_word globals (slot globals i) v
let _get_slot globals i = Segment.read_word globals (slot globals i)

(* --- size classes --- *)

(* Size classes are the allocator's rounding to granules
   ([Gc.object_size] of what it hands out), [Config.max_small_bytes]'s
   small/large split, and the slot count [Heap.carve_small] gives a page. *)
let test_size_class_mapping () =
  let _, _, gc = make_env () in
  let size bytes = Gc.object_size gc (Gc.allocate gc bytes) in
  let kind bytes = Heap.kind (Gc.heap gc) (Heap.page_index (Gc.heap gc) (Gc.allocate gc bytes)) in
  check (Alcotest.option int) "1 byte -> 1 granule" (Some 4) (size 1);
  check (Alcotest.option int) "4 bytes -> 1 granule" (Some 4) (size 4);
  check (Alcotest.option int) "5 bytes -> 2 granules" (Some 8) (size 5);
  check int "max small" 2048 (Config.max_small_bytes Config.default);
  check int "2048 small" Page.kind_small (kind 2048);
  check int "2049 large" Page.kind_large_head (kind 2049);
  let config = { Config.default with Config.initial_pages = 2 } in
  let heap = Heap.create (Mem.create ()) ~config ~base:heap_base ~max_bytes:8192 in
  let carve i ~first_offset =
    Heap.carve_small heap i ~object_bytes:8 ~layout:Page.Conservative ~first_offset
  in
  check int "cons cells per page" 512 (carve 0 ~first_offset:0);
  check int "first offset eats one slot" 511 (carve 1 ~first_offset:8)

(* --- heap --- *)

let test_heap_geometry () =
  let mem = Mem.create () in
  let heap = Heap.create mem ~config:Config.default ~base:heap_base ~max_bytes:(256 * 1024) in
  check int "pages reserved" 64 (Heap.n_pages heap);
  check int "initial committed" 64 (Heap.committed_pages heap);
  check bool "contains base" true (Heap.contains heap heap_base);
  check bool "excludes limit" false (Heap.contains heap (Heap.limit_reserved heap));
  check int "page index" 1 (Heap.page_index heap (Addr.add heap_base 4096));
  check int "page addr round trip" (Addr.to_int (Addr.add heap_base 8192))
    (Addr.to_int (Heap.page_addr heap 2))

(* The descriptor's multiply-shift replaces [rel / object_bytes] in the
   mark fast path.  Exhaustive over every power-of-two page size from 256
   to 64K, every object size a size class can produce ([granule] to
   [page_size / 2]), and every in-page offset; the expected quotient and
   remainder are stepped incrementally, so the check never divides. *)
let test_heap_reciprocal_exact () =
  let page_size = ref 256 in
  while !page_size <= 65536 do
    let config = { Config.default with Config.page_size = !page_size } in
    for g = 1 to Config.max_small_bytes config / Config.granule do
      let d = g * Config.granule in
      let m, sh = Heap.reciprocal ~page_size:!page_size d in
      let q = ref 0 and r = ref 0 in
      for rel = 0 to !page_size - 1 do
        let index = (rel * m) lsr sh in
        if index <> !q || rel - (index * d) <> !r then
          Alcotest.failf "page %d, object %d bytes, rel %d: index %d (expected %d)" !page_size d
            rel index !q;
        incr r;
        if !r = d then begin
          r := 0;
          incr q
        end
      done
    done;
    page_size := !page_size * 2
  done;
  (* beyond 2^30 the product [rel * m] could overflow an OCaml int *)
  Alcotest.check_raises "page_size above 2^30 rejected"
    (Invalid_argument "Heap.create: page_size must be <= 2^30") (fun () ->
      let config = { Config.default with Config.page_size = 1 lsl 31; initial_pages = 1 } in
      ignore (Heap.create (Mem.create ()) ~config ~base:(Addr.of_int 0) ~max_bytes:(1 lsl 31)))

let test_heap_commit () =
  let config = { Config.default with Config.initial_pages = 2 } in
  let mem = Mem.create () in
  let heap = Heap.create mem ~config ~base:heap_base ~max_bytes:(64 * 1024) in
  check int "committed" 2 (Heap.committed_pages heap);
  check bool "commit ok" true (Heap.commit_through heap 5);
  check int "now committed" 6 (Heap.committed_pages heap);
  check bool "page 5 free" true (Heap.page heap 5 = Page.Free);
  check int "free pages counted" 6 (Heap.free_page_count heap);
  for i = 0 to 5 do
    Heap.set_page heap i (Page.Large_tail { head_index = 0 })
  done;
  check int "none free" 0 (Heap.free_page_count heap);
  (* with no committed page [Free], the search starts at the watermark *)
  let asked = ref [] in
  let any ~first:_ i =
    asked := i :: !asked;
    true
  in
  check (Alcotest.option int) "starts at the watermark when no page is Free" (Some 6)
    (Heap.find_run heap ~n:1 ~ok:any);
  check (Alcotest.list int) "asked only the watermark page" [ 6 ] !asked;
  Heap.set_page heap 3 Page.Free;
  check int "one free" 1 (Heap.free_page_count heap);
  check (Alcotest.option int) "it is found" (Some 3) (Heap.find_run heap ~n:1 ~ok:any);
  check (Alcotest.option int) "a refused Free page falls through to the watermark" (Some 6)
    (Heap.find_run heap ~n:1 ~ok:(fun ~first:_ i -> i <> 3));
  check bool "cannot exceed reservation" false (Heap.commit_through heap 1000)

let test_heap_find_run () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let mem = Mem.create () in
  let heap = Heap.create mem ~config ~base:heap_base ~max_bytes:(64 * 1024) in
  let any ~first:_ _ = true in
  (* occupy page 1 so a 3-run must start at 2 *)
  Heap.set_page heap 1 (Page.make_large ~n_pages:1 ~object_bytes:100 ~layout:Page.Conservative);
  check (Alcotest.option int) "run skips occupied" (Some 2) (Heap.find_run heap ~n:3 ~ok:any);
  check (Alcotest.option int) "run honours ok" (Some 3)
    (Heap.find_run heap ~n:3 ~ok:(fun ~first:_ i -> i <> 2));
  check (Alcotest.option int) "a page refused only as a first page may sit inside a run" (Some 3)
    (Heap.find_run heap ~n:3 ~ok:(fun ~first i -> not (first && (i = 2 || i = 4))));
  check (Alcotest.option int) "runs cross the watermark" (Some 2) (Heap.find_run heap ~n:14 ~ok:any);
  check (Alcotest.option int) "but not the reservation" None (Heap.find_run heap ~n:15 ~ok:any)

(* The run finder against the definition it shortcuts: try every start,
   the first page asked with [~first:true] and the rest with
   [~first:false].  Page tables mix [Free], small, large head and tail
   pages below a random watermark (sometimes with no [Free] page at all),
   [Uncommitted] above it; predicates refuse some pages outright and
   some only as a run's first page, so [ok ~first:true] implies
   [ok ~first:false].  [find_run] also asks about each vacant page at
   most once, and about nothing else. *)
let prop_find_run_matches_reference =
  QCheck.Test.make ~count:300 ~name:"find_run == brute-force first fit"
    QCheck.(pair (int_range 1 40) int)
    (fun (n_pages, seed) ->
      let rng = Rng.create seed in
      let config = { Config.default with Config.initial_pages = 1 } in
      let heap = Heap.create (Mem.create ()) ~config ~base:heap_base ~max_bytes:(n_pages * 4096) in
      let committed = 1 + Rng.int rng n_pages in
      ignore (Heap.commit_through heap (committed - 1) : bool);
      let no_free = Rng.bool rng in
      for i = 0 to committed - 1 do
        match Rng.int rng 4 with
        | 0 when not no_free -> ()
        | 0 | 1 ->
            Heap.set_page heap i
              (Page.make_small ~object_bytes:8 ~layout:Page.Conservative ~first_offset:0
                 ~n_objects:512)
        | 2 ->
            Heap.set_page heap i
              (Page.make_large ~n_pages:1 ~object_bytes:100 ~layout:Page.Conservative)
        | _ -> Heap.set_page heap i (Page.Large_tail { head_index = i })
      done;
      let refused = Array.init n_pages (fun _ -> Rng.int rng 6 = 0) in
      let refused_first = Array.init n_pages (fun _ -> Rng.int rng 3 = 0) in
      let ok ~first i = (not refused.(i)) && not (first && refused_first.(i)) in
      let asked = Array.make n_pages 0 in
      let counted ~first i =
        asked.(i) <- asked.(i) + 1;
        ok ~first i
      in
      let reference n =
        let fits start =
          let rec rest j =
            j >= start + n || (Heap.vacant heap j && ok ~first:false j && rest (j + 1))
          in
          Heap.vacant heap start && ok ~first:true start && rest (start + 1)
        in
        List.find_opt fits (List.init (max 0 (n_pages - n + 1)) Fun.id)
      in
      List.for_all
        (fun n ->
          Array.fill asked 0 n_pages 0;
          let found = Heap.find_run heap ~n ~ok:counted in
          found = reference n
          && Array.for_all (fun c -> c <= 1) asked
          && List.for_all (fun i -> asked.(i) = 0 || Heap.vacant heap i) (List.init n_pages Fun.id))
        [ 1; 2; 3; 5 ])

(* --- basic allocation --- *)

let test_allocate_basics () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  check bool "distinct objects" false (Addr.equal a b);
  check bool "a allocated" true (Gc.is_allocated gc a);
  check bool "b allocated" true (Gc.is_allocated gc b);
  check (Alcotest.option int) "size rounded to granules" (Some 8) (Gc.object_size gc a);
  check int "zeroed" 0 (Gc.get_field gc a 0);
  check (Alcotest.option int) "interior resolves to base" (Some (Addr.to_int a))
    (Option.map Addr.to_int (Gc.find_object gc (Addr.add a 4)))

let test_allocate_size_rounding () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 5 in
  check (Alcotest.option int) "5 bytes -> 8" (Some 8) (Gc.object_size gc a);
  let b = Gc.allocate gc 1 in
  check (Alcotest.option int) "1 byte -> 4" (Some 4) (Gc.object_size gc b)

let test_allocate_rejects_nonpositive () =
  let _, _, gc = make_env () in
  check bool "zero rejected" true
    (try
       ignore (Gc.allocate gc 0);
       false
     with Invalid_argument _ -> true)

let test_field_round_trip () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 16 in
  Gc.set_field gc a 3 0xABCDEF01;
  check int "field round trip" 0xABCDEF01 (Gc.get_field gc a 3)

(* Every allocation comes back zeroed, recycled memory included: fill
   every word of a small, a large and a typed object with nonzero
   values, drop them, collect, and allocate the same shapes again.  The
   placement cursor hands out the lowest free address first, so each
   request lands on its predecessor's address, and must read 0 there. *)
let test_recycled_slots_zeroed () =
  let _, _, gc = make_env () in
  let rec_desc = Type_desc.make ~name:"rec" ~size_bytes:24 ~pointer_offsets:[ 0; 12 ] in
  let shapes =
    [
      ("small", 40, Gc.allocate gc);
      ("large", (3 * 4096) + 12, Gc.allocate gc);
      ("typed", 24, fun _ -> Gc.Internal.allocate_typed gc rec_desc);
    ]
  in
  let first =
    List.map
      (fun (name, bytes, alloc) ->
        let a = alloc bytes in
        for i = 0 to (bytes / 4) - 1 do
          Gc.set_field gc a i (0x5A5A0000 lor i)
        done;
        (name, a))
      shapes
  in
  Gc.collect gc;
  List.iter2
    (fun (name, bytes, alloc) (_, old) ->
      check bool (name ^ " dropped") false (Gc.is_allocated gc old);
      let a = alloc bytes in
      check int (name ^ " lands on the recycled address") (Addr.to_int old) (Addr.to_int a);
      for i = 0 to (bytes / 4) - 1 do
        check int (Printf.sprintf "%s word %d zeroed" name i) 0 (Gc.get_field gc a i)
      done)
    shapes first

let test_boundary_sizes () =
  let _, globals, gc = make_env ~heap_kb:1024 () in
  (* largest small object and smallest large object *)
  let small = Gc.allocate gc 2048 in
  let large = Gc.allocate gc 2049 in
  check (Alcotest.option int) "2048 stays small" (Some 2048) (Gc.object_size gc small);
  check (Alcotest.option int) "2049 becomes large (exact size)" (Some 2049) (Gc.object_size gc large);
  check bool "large is page aligned" true (Addr.is_aligned large 4096);
  check bool "small is not page sized" false (Addr.is_aligned small 4096 && Gc.object_size gc small = Some 4096);
  (* exactly one page, and one byte beyond *)
  let page = Gc.allocate gc 4096 in
  let pages2 = Gc.allocate gc 4097 in
  set_slot globals 0 (Addr.to_int small);
  set_slot globals 1 (Addr.to_int large);
  set_slot globals 2 (Addr.to_int page);
  set_slot globals 3 (Addr.to_int pages2);
  Gc.collect gc;
  check bool "all boundary objects survive" true
    (Gc.is_allocated gc small && Gc.is_allocated gc large && Gc.is_allocated gc page
   && Gc.is_allocated gc pages2);
  check (Alcotest.list Alcotest.string) "invariants" [] (Cgc.Verify.check gc)

let test_many_classes_interleaved () =
  let _, globals, gc = make_env ~heap_kb:1024 () in
  (* interleave allocations across classes and kinds; then verify class
     integrity via object sizes *)
  let objs =
    List.init 300 (fun i ->
        let bytes = 4 + (4 * (i mod 13)) in
        let pointer_free = i mod 3 = 0 in
        let a = Gc.allocate ~pointer_free gc bytes in
        set_slot globals (i mod 200) (Addr.to_int a);
        (a, (bytes + 3) / 4 * 4))
  in
  List.iter
    (fun (a, expect) -> check (Alcotest.option int) "size preserved" (Some expect) (Gc.object_size gc a))
    objs;
  Gc.collect gc;
  check (Alcotest.list Alcotest.string) "invariants" [] (Cgc.Verify.check gc)

let test_config_validation () =
  let reject name config =
    check bool name true
      (try
         Config.validate config;
         false
       with Invalid_argument _ -> true)
  in
  reject "page size not a power of two" { Config.default with Config.page_size = 3000 };
  reject "page size too small" { Config.default with Config.page_size = 128 };
  reject "bad alignment" { Config.default with Config.alignment = 3 };
  reject "zero initial pages" { Config.default with Config.initial_pages = 0 };
  reject "zero divisor" { Config.default with Config.space_divisor = 0 };
  reject "zero grow batch" { Config.default with Config.max_expand_pages = 0 };
  reject "tiny mark stack" { Config.default with Config.mark_stack_limit = Some 4 };
  reject "zero buckets" { Config.default with Config.blacklist_buckets = Some 0 };
  Config.validate Config.default

(* A rooted chain of [n] linked objects. *)
let rooted_chain gc globals n =
  let objs = Array.init n (fun _ -> Gc.allocate gc 16) in
  for i = 0 to n - 2 do
    Gc.set_field gc objs.(i) 0 (Addr.to_int objs.(i + 1))
  done;
  set_slot globals 0 (Addr.to_int objs.(0));
  objs

(* The serial stub behind gcbench's frozen [mark_parallel.*] probe:
   [run_mark_parallel ~jobs:2] marks what [run_mark] marks, says the
   parallel tracer is gone, and returns one shard with this mark's
   counts; [check_parallel_mark] finds nothing wrong. *)
let test_run_mark_parallel_stub () =
  let _, globals, gc = make_env () in
  let chain = rooted_chain gc globals 40 in
  let objs = Array.append chain (Array.init 10 (fun _ -> Gc.allocate gc 16)) in
  let st = Gc.stats gc in
  let mark f =
    let o0 = st.Stats.objects_marked in
    let r = f gc in
    (r, st.Stats.objects_marked - o0, Array.map (Gc.Internal.is_marked gc) objs)
  in
  let (), serial_marked, serial_bits = mark Gc.Internal.run_mark in
  let o, marked, bits = mark (fun gc -> Gc.Internal.run_mark_parallel gc ~jobs:2) in
  check int "run_mark marks the chain" 40 serial_marked;
  check int "same objects_marked delta" serial_marked marked;
  check (Alcotest.array bool) "same mark bits" serial_bits bits;
  check bool "reports the fallback" true
    (o.Mark.Parallel.fallback = Some Mark.Parallel.Tracer_removed);
  check int "one shard" 1 (Array.length o.Mark.Parallel.shards);
  let shard = o.Mark.Parallel.shards.(0) in
  check bool "the shard scanned words" true (shard.Stats.words_scanned > 0);
  check int "the shard holds this mark's objects" marked shard.Stats.objects_marked;
  check (Alcotest.list Alcotest.string) "audit clean" [] (Cgc.Verify.check_parallel_mark gc)

(* The stub ignores [jobs]: twin heaps marked with jobs 1, 2 and 4 end
   with the same mark bits, the same statistics and the same single
   shard. *)
let test_run_mark_parallel_ignores_jobs () =
  let run jobs =
    let _, globals, gc = make_env () in
    let chain = rooted_chain gc globals 30 in
    let objs = Array.append chain (Array.init 5 (fun _ -> Gc.allocate gc 24)) in
    let o = Gc.Internal.run_mark_parallel gc ~jobs in
    let shard = o.Mark.Parallel.shards.(0) in
    ( o.Mark.Parallel.fallback,
      Array.length o.Mark.Parallel.shards,
      ( shard.Stats.words_scanned,
        shard.Stats.valid_refs,
        shard.Stats.false_refs,
        shard.Stats.objects_marked ),
      Array.map (Gc.Internal.is_marked gc) objs )
  in
  let ((_, _, (_, _, _, marked), _) as one) = run 1 in
  check int "jobs 1 marks the chain" 30 marked;
  List.iter
    (fun jobs ->
      if run jobs <> one then Alcotest.failf "jobs %d differs from jobs 1" jobs)
    [ 2; 4 ]

(* The stub's one shard is this mark's share of the collector's
   counters, false references and header-cache hits included, and not
   the running totals: a second mark's shard counts the second mark
   only. *)
let test_run_mark_parallel_shard_is_delta () =
  let _, globals, gc = make_env () in
  ignore (rooted_chain gc globals 200);
  (* two words into the uncommitted region: false references *)
  set_slot globals 1 (Addr.to_int heap_base + (400 * 1024));
  set_slot globals 2 (Addr.to_int heap_base + (400 * 1024) + 4);
  let st = Gc.stats gc in
  let counters () =
    [
      st.Stats.words_scanned;
      st.Stats.valid_refs;
      st.Stats.false_refs;
      st.Stats.objects_marked;
      st.Stats.header_cache_hits;
    ]
  in
  let shard_counters (sh : Stats.t) =
    [
      sh.Stats.words_scanned;
      sh.Stats.valid_refs;
      sh.Stats.false_refs;
      sh.Stats.objects_marked;
      sh.Stats.header_cache_hits;
    ]
  in
  Gc.Internal.run_mark gc;
  List.iter
    (fun round ->
      Heap.clear_marks (Gc.heap gc);
      let before = counters () in
      let o = Gc.Internal.run_mark_parallel gc ~jobs:2 in
      let delta = List.map2 ( - ) (counters ()) before in
      check (Alcotest.list int) (round ^ ": shard = counter deltas") delta
        (shard_counters o.Mark.Parallel.shards.(0));
      check bool (round ^ ": false references counted") true (List.nth delta 2 >= 2);
      check int (round ^ ": the chain marked") 200 (List.nth delta 3))
    [ "first"; "second" ]

let test_pp_smoke () =
  (* the printers terminate and emit text *)
  let _, _, gc = make_env () in
  ignore (Gc.allocate gc 8);
  Gc.collect gc;
  let non_empty s = String.length s > 0 in
  check bool "config pp" true (non_empty (Format.asprintf "%a" Config.pp Config.default));
  check bool "stats pp" true (non_empty (Format.asprintf "%a" Stats.pp (Gc.stats gc)));
  check bool "gc pp" true (non_empty (Format.asprintf "%a" Gc.pp gc));
  check bool "heap pp" true (non_empty (Format.asprintf "%a" Heap.pp (Gc.heap gc)));
  check bool "blacklist pp" true (non_empty (Format.asprintf "%a" Blacklist.pp (Gc.blacklist gc)));
  check bool "page pp" true (non_empty (Format.asprintf "%a" Page.pp (Heap.page (Gc.heap gc) 0)))

(* --- reachability --- *)

let test_root_keeps_object_alive () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "rooted object survives" true (Gc.is_allocated gc a)

let test_unreachable_object_collected () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  Gc.collect gc;
  check bool "unreachable object reclaimed" false (Gc.is_allocated gc a)

let test_transitive_reachability () =
  let _, globals, gc = make_env () in
  let b = Gc.allocate gc 8 in
  let a = Gc.allocate gc 8 in
  Gc.set_field gc a 0 (Addr.to_int b);
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "a survives" true (Gc.is_allocated gc a);
  check bool "b survives via a" true (Gc.is_allocated gc b);
  (* break the link *)
  Gc.set_field gc a 0 0;
  Gc.collect gc;
  check bool "a still live" true (Gc.is_allocated gc a);
  check bool "b now reclaimed" false (Gc.is_allocated gc b)

let test_cycle_collected () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  Gc.set_field gc a 0 (Addr.to_int b);
  Gc.set_field gc b 0 (Addr.to_int a);
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "cycle live while rooted" true (Gc.is_allocated gc b);
  set_slot globals 0 0;
  Gc.collect gc;
  check bool "a of cycle reclaimed" false (Gc.is_allocated gc a);
  check bool "b of cycle reclaimed" false (Gc.is_allocated gc b)

let test_interior_pointer_retains () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 32 in
  set_slot globals 0 (Addr.to_int (Addr.add a 12));
  Gc.collect gc;
  check bool "interior pointer retains" true (Gc.is_allocated gc a)

let test_interior_pointer_ignored_when_disabled () =
  let config = { Config.default with Config.interior_pointers = false } in
  let _, globals, gc = make_env ~config () in
  let a = Gc.allocate gc 32 in
  set_slot globals 0 (Addr.to_int (Addr.add a 12));
  Gc.collect gc;
  check bool "interior pointer does not retain" false (Gc.is_allocated gc a);
  (* but the base pointer still does *)
  let b = Gc.allocate gc 32 in
  set_slot globals 1 (Addr.to_int b);
  Gc.collect gc;
  check bool "base pointer retains" true (Gc.is_allocated gc b)

let test_pointer_free_not_scanned () =
  let _, globals, gc = make_env () in
  let target = Gc.allocate gc 8 in
  let atomic = Gc.allocate ~pointer_free:true gc 8 in
  Gc.set_field gc atomic 0 (Addr.to_int target);
  set_slot globals 0 (Addr.to_int atomic);
  Gc.collect gc;
  check bool "atomic object survives" true (Gc.is_allocated gc atomic);
  check bool "its contents are not traced" false (Gc.is_allocated gc target)

let test_normal_object_is_scanned () =
  let _, globals, gc = make_env () in
  let target = Gc.allocate gc 8 in
  let holder = Gc.allocate gc 8 in
  Gc.set_field gc holder 0 (Addr.to_int target);
  set_slot globals 0 (Addr.to_int holder);
  Gc.collect gc;
  check bool "traced through ordinary object" true (Gc.is_allocated gc target)

let test_register_roots () =
  let _, _, gc = make_env () in
  let regs = Array.make 4 0 in
  Gc.add_register_roots gc ~label:"regs" (fun () -> regs);
  let a = Gc.allocate gc 8 in
  regs.(2) <- Addr.to_int a;
  Gc.collect gc;
  check bool "register value is a root" true (Gc.is_allocated gc a);
  regs.(2) <- 0;
  Gc.collect gc;
  check bool "cleared register frees object" false (Gc.is_allocated gc a)

let test_dynamic_roots () =
  let mem = Mem.create () in
  let scratch = Mem.map mem ~name:"scratch" ~kind:Segment.Stack ~base:(Addr.of_int 0x20000) ~size:0x1000 in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  Gc.set_auto_collect gc false;
  let hi = ref (Segment.base scratch) in
  Gc.add_dynamic_roots gc ~label:"window" (fun () ->
      [ { Cgc.Roots.lo = Segment.base scratch; hi = !hi; label = "window" } ]);
  let a = Gc.allocate gc 8 in
  Segment.write_word scratch (Segment.base scratch) (Addr.to_int a);
  (* window currently empty: value not seen *)
  Gc.collect gc;
  check bool "outside window -> freed" false (Gc.is_allocated gc a);
  let b = Gc.allocate gc 8 in
  Segment.write_word scratch (Segment.base scratch) (Addr.to_int b);
  hi := Addr.add (Segment.base scratch) 8;
  Gc.collect gc;
  check bool "inside window -> survives" true (Gc.is_allocated gc b)

(* --- alignment --- *)

let test_unaligned_root_requires_alignment_1 () =
  let run alignment =
    let config = { Config.default with Config.alignment = alignment } in
    let _, globals, gc = make_env ~config () in
    let a = Gc.allocate gc 8 in
    (* plant the pointer at an odd offset in the root area *)
    let where = Addr.add (Segment.base globals) 13 in
    Segment.write_word globals where (Addr.to_int a);
    Gc.collect gc;
    Gc.is_allocated gc a
  in
  check bool "alignment 4 misses it" false (run 4);
  check bool "alignment 1 finds it" true (run 1)

let test_halfword_alignment_2 () =
  let run alignment =
    let config = { Config.default with Config.alignment = alignment } in
    let _, globals, gc = make_env ~config () in
    let a = Gc.allocate gc 8 in
    let where = Addr.add (Segment.base globals) 10 in
    Segment.write_word globals where (Addr.to_int a);
    Gc.collect gc;
    Gc.is_allocated gc a
  in
  check bool "alignment 4 misses halfword offset" false (run 4);
  check bool "alignment 2 finds it" true (run 2)

(* --- large objects --- *)

let test_large_object_lifecycle () =
  let _, globals, gc = make_env () in
  let size = 3 * 4096 in
  let a = Gc.allocate gc size in
  check (Alcotest.option int) "size" (Some size) (Gc.object_size gc a);
  check bool "page aligned" true (Addr.is_aligned a 4096);
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "rooted large object survives" true (Gc.is_allocated gc a);
  set_slot globals 0 0;
  Gc.collect gc;
  check bool "dropped large object reclaimed" false (Gc.is_allocated gc a)

let test_large_tail_pointer () =
  let run large_validity =
    let config = { Config.default with Config.large_validity } in
    let _, globals, gc = make_env ~config () in
    let a = Gc.allocate gc (3 * 4096) in
    (* a pointer into the second page *)
    set_slot globals 0 (Addr.to_int (Addr.add a 5000));
    Gc.collect gc;
    Gc.is_allocated gc a
  in
  check bool "anywhere: tail pointer retains" true (run Config.Anywhere);
  check bool "first-page-only: tail pointer does not" false (run Config.First_page_only)

let test_large_first_page_interior () =
  let config = { Config.default with Config.large_validity = Config.First_page_only } in
  let _, globals, gc = make_env ~config () in
  let a = Gc.allocate gc (3 * 4096) in
  set_slot globals 0 (Addr.to_int (Addr.add a 100));
  Gc.collect gc;
  check bool "pointer into first page retains" true (Gc.is_allocated gc a)

let test_large_reuse_after_free () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let _, _, gc = make_env ~config ~heap_kb:64 () in
  (* allocate and drop several large objects; the reserve (16 pages)
     only survives if pages are actually recycled *)
  for _ = 1 to 20 do
    let a = Gc.allocate gc (4 * 4096) in
    ignore a;
    Gc.collect gc
  done;
  check bool "large pages recycled" true (Heap.committed_pages (Gc.heap gc) <= 16)

(* [heap_expansions] counts placements that commit pages: a large
   object on [Free] pages that end exactly at the watermark commits
   nothing, one that crosses it commits once. *)
let test_large_expansions_count_commits () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let _, _, gc = make_env ~config ~heap_kb:64 () in
  let heap = Gc.heap gc and stats = Gc.stats gc in
  let a = Gc.allocate gc (4 * 4096) in
  check int "placed at page 0" 0 (Heap.page_index heap a);
  check int "watermark unmoved" 4 (Heap.committed_pages heap);
  check int "ending at the watermark is no expansion" 0 stats.Stats.heap_expansions;
  let b = Gc.allocate gc (2 * 4096) in
  check int "placed at the watermark" 4 (Heap.page_index heap b);
  check int "watermark raised" 6 (Heap.committed_pages heap);
  check int "crossing it is one expansion" 1 stats.Stats.heap_expansions

(* Every even page is blacklisted, so no two adjacent pages are clean
   and the strict rungs fail a two-page object whose pointers may land
   anywhere in it.  The first-page rung then places it at the lowest
   start with a clean first page, page 1, not at page 0, the lowest
   vacant run; page 2, black, inside the run is one override. *)
let test_large_relax_first_page_lowest_start () =
  let config = { Config.default with Config.initial_pages = 16; relax_blacklist = true } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  let heap = Gc.heap gc in
  for p = 0 to 7 do
    set_slot globals p (Addr.to_int (Addr.add (Heap.page_addr heap (2 * p)) 12))
  done;
  Gc.collect gc;
  check int "even pages black" 8 (Gc.blacklisted_pages gc);
  let a = Gc.allocate gc (2 * 4096) in
  check int "lowest clean first page" 1 (Heap.page_index heap a);
  check int "first-page rung ran" 1 (Gc.stats gc).Stats.ladder_relax_first_page;
  check int "the black tail is an override" 1 (Blacklist.overridden (Gc.blacklist gc))

(* --- finalization --- *)

let test_finalizer_queue () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate ~finalizer:"list-1" gc 8 in
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check (Alcotest.list (Alcotest.pair int Alcotest.string)) "nothing finalized while live" []
    (List.map (fun (a, t) -> (Addr.to_int a, t)) (Gc.drain_finalized gc));
  set_slot globals 0 0;
  Gc.collect gc;
  check
    (Alcotest.list (Alcotest.pair int Alcotest.string))
    "finalized on reclamation"
    [ (Addr.to_int a, "list-1") ]
    (List.map (fun (a, t) -> (Addr.to_int a, t)) (Gc.drain_finalized gc))

let test_finalizer_registry () =
  let f = Finalize.create () in
  Finalize.register f (Addr.of_int 100) ~token:"x";
  Finalize.register f (Addr.of_int 200) ~token:"y";
  check int "registered" 2 (Finalize.registered_count f);
  Finalize.unregister f (Addr.of_int 100);
  check bool "unregistered" false (Finalize.is_registered f (Addr.of_int 100));
  Finalize.on_reclaimed f (Addr.of_int 100);
  check int "unregistered not queued" 0 (Finalize.queue_length f);
  Finalize.on_reclaimed f (Addr.of_int 200);
  check int "queued" 1 (Finalize.queue_length f);
  check
    (Alcotest.list (Alcotest.pair int Alcotest.string))
    "drain" [ (200, "y") ]
    (List.map (fun (a, t) -> (Addr.to_int a, t)) (Finalize.drain f));
  check int "drained" 0 (Finalize.queue_length f)

(* --- blacklisting --- *)

let test_blacklist_unit () =
  let b = Blacklist.create ~n_pages:16 ~refresh:true () in
  Blacklist.note b 3;
  check bool "noted" true (Blacklist.is_black b 3);
  Blacklist.begin_cycle b;
  check bool "survives one cycle" true (Blacklist.is_black b 3);
  Blacklist.begin_cycle b;
  check bool "ages out after two cycles" false (Blacklist.is_black b 3);
  let sticky = Blacklist.create ~n_pages:16 ~refresh:false () in
  Blacklist.note sticky 3;
  Blacklist.begin_cycle sticky;
  Blacklist.begin_cycle sticky;
  check bool "sticky entries persist" true (Blacklist.is_black sticky 3)

let test_blacklist_avoids_false_ref_page () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  (* plant a false reference into committed-but-empty heap page 4 *)
  let target_page = 4 in
  let poison = Addr.add (Heap.page_addr (Gc.heap gc) target_page) 8 in
  set_slot globals 0 (Addr.to_int poison);
  Gc.collect gc;
  check bool "page is blacklisted" true (Blacklist.is_black (Gc.blacklist gc) target_page);
  (* now allocate enough pointer-bearing objects to need several pages *)
  let heap = Gc.heap gc in
  for _ = 1 to 3000 do
    let a = Gc.allocate gc 8 in
    check bool "never lands on the blacklisted page" false
      (Heap.page_index heap a = target_page)
  done

let test_blacklist_covers_uncommitted_region () =
  (* The startup-collection scenario: a false reference to memory the
     heap will only later grow into must still be blacklisted. *)
  let config = { Config.default with Config.initial_pages = 1 } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  let future_page = 10 in
  let poison = Addr.add (Heap.page_addr (Gc.heap gc) future_page) 4 in
  set_slot globals 0 (Addr.to_int poison);
  Gc.collect gc;
  check bool "future page blacklisted" true (Blacklist.is_black (Gc.blacklist gc) future_page);
  (* let the collector run normally while churning through garbage; the
     standing false reference must keep the page off limits *)
  Gc.set_auto_collect gc true;
  let heap = Gc.heap gc in
  for _ = 1 to 12000 do
    let a = Gc.allocate gc 8 in
    check bool "growth skips poisoned page" false (Heap.page_index heap a = future_page)
  done

let test_atomic_allowed_on_black_pages () =
  let config = { Config.default with Config.initial_pages = 2 } in
  let _, globals, gc = make_env ~config ~heap_kb:16 () in
  (* blacklist every page except page 0 (where the two initial pages
     will serve pointer-free data); then atomic allocation must still
     succeed by using black pages *)
  let heap = Gc.heap gc in
  for p = 0 to Heap.n_pages heap - 1 do
    set_slot globals p (Addr.to_int (Addr.add (Heap.page_addr heap p) 12))
  done;
  Gc.collect gc;
  check bool "whole heap blacklisted" true (Blacklist.count (Gc.blacklist gc) >= Heap.n_pages heap - 1);
  let a = Gc.allocate ~pointer_free:true gc 8 in
  check bool "atomic allocation succeeded on black page" true (Gc.is_allocated gc a);
  (* pointer-bearing allocation, by contrast, must fail: every page is black *)
  check bool "pointer-bearing allocation fails" true
    (try
       (* enough to exhaust any page acquired before the blacklist filled *)
       for _ = 1 to 10000 do
         ignore (Gc.allocate gc 8)
       done;
       false
     with Gc.Out_of_memory _ -> true)

let test_blacklist_off_allows_false_retention () =
  (* End-to-end contrast of table 1: with blacklisting off, a false
     reference planted before allocation retains a garbage object. *)
  let run blacklisting =
    let config = { Config.default with Config.blacklisting; initial_pages = 2 } in
    let _, globals, gc = make_env ~config ~heap_kb:64 () in
    let heap = Gc.heap gc in
    (* poison one page that allocation will soon reach *)
    let page = 3 in
    let poison = Addr.add (Heap.page_addr heap page) 16 in
    set_slot globals 0 (Addr.to_int poison);
    Gc.collect gc;
    (* allocate garbage until that page gets used (or not) *)
    let used = ref false in
    (for _ = 1 to 4000 do
       let a = Gc.allocate gc 8 in
       if Heap.page_index heap a = page then used := true
     done);
    Gc.collect gc;
    if not !used then `Never_used
    else if Gc.find_object gc poison <> None then `Retained
    else `Collected
  in
  check bool "without blacklisting the poisoned page retains garbage" true
    (run false = `Retained);
  check bool "with blacklisting the page is never used" true (run true = `Never_used)

let test_blacklist_refresh_releases_pages () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  set_slot globals 0 (Addr.to_int (Addr.add (Heap.page_addr (Gc.heap gc) 5) 4));
  Gc.collect gc;
  check bool "blacklisted while reference stands" true (Blacklist.is_black (Gc.blacklist gc) 5);
  set_slot globals 0 0;
  Gc.collect gc;
  Gc.collect gc;
  check bool "released after the reference disappears" false
    (Blacklist.is_black (Gc.blacklist gc) 5)

(* --- classification --- *)

let test_blacklist_hashed () =
  let b = Blacklist.create ~representation:(Blacklist.Hashed 8) ~n_pages:256 ~refresh:false () in
  Blacklist.note b 13;
  check bool "noted page black" true (Blacklist.is_black b 13);
  (* some other page shares the bucket: collision blacklists it too *)
  let collided = ref 0 in
  for p = 0 to 255 do
    if p <> 13 && Blacklist.is_black b p then incr collided
  done;
  check bool "collisions exist with 8 buckets over 256 pages" true (!collided > 0);
  check bool "but most pages stay clean" true (!collided < 100);
  check int "count includes collision victims" (!collided + 1) (Blacklist.count b)

(* [bucket] names the bit [note] and [is_black] use, for both
   representations: after one note, exactly the pages sharing the noted
   page's bucket are black, [iter] lists them in increasing order and
   [count] counts them; [ops] counts the note and each cycle rotation. *)
let test_blacklist_bucket_geometry () =
  let n_pages = 200 in
  List.iter
    (fun (name, representation) ->
      let b = Blacklist.create ~representation ~n_pages ~refresh:true () in
      let g = Blacklist.geometry b in
      check bool (name ^ ": geometry keeps the shape") true
        (g.Blacklist.g_representation = representation
        && g.Blacklist.g_n_pages = n_pages && g.Blacklist.g_refresh);
      Blacklist.note b 77;
      let sharing =
        List.filter
          (fun p -> Blacklist.bucket g p = Blacklist.bucket g 77)
          (List.init n_pages Fun.id)
      in
      let black = ref [] in
      Blacklist.iter (fun p -> black := p :: !black) b;
      check (Alcotest.list int)
        (name ^ ": black = pages sharing the bucket")
        sharing (List.rev !black);
      check int (name ^ ": count") (List.length sharing) (Blacklist.count b);
      List.iter
        (fun p ->
          if Blacklist.is_black b p <> List.mem p sharing then
            Alcotest.failf "%s: is_black %d disagrees with bucket" name p)
        (List.init n_pages Fun.id);
      Blacklist.begin_cycle b;
      Blacklist.begin_cycle b;
      check int (name ^ ": ops = one note + two rotations") 3 (Blacklist.ops b);
      check int (name ^ ": aged out") 0 (Blacklist.count b))
    [ ("exact", Blacklist.Exact); ("hashed", Blacklist.Hashed 16) ]

let test_blacklist_hashed_end_to_end () =
  (* the hashed variant must still prevent false retention *)
  let config =
    { Config.default with Config.initial_pages = 8; blacklist_buckets = Some 64 }
  in
  let _, globals, gc = make_env ~config ~heap_kb:128 () in
  let target_page = 4 in
  set_slot globals 0 (Addr.to_int (Addr.add (Heap.page_addr (Gc.heap gc) target_page) 8));
  Gc.collect gc;
  check bool "page black via hash" true (Blacklist.is_black (Gc.blacklist gc) target_page);
  for _ = 1 to 2000 do
    let a = Gc.allocate gc 8 in
    check bool "never on the hashed-black page" false
      (Heap.page_index (Gc.heap gc) a = target_page)
  done

let test_classify () =
  let _, _, gc = make_env () in
  let heap = Gc.heap gc in
  let config = Gc.config gc in
  let a = Gc.allocate gc 8 in
  (match Mark.classify heap config (Addr.to_int a) with
  | Mark.Valid { base; _ } -> check int "base pointer valid" (Addr.to_int a) (Addr.to_int base)
  | Mark.False_in_heap _ | Mark.Outside -> Alcotest.fail "expected Valid");
  (match Mark.classify heap config (Addr.to_int a + 4) with
  | Mark.Valid { base; _ } -> check int "interior resolves" (Addr.to_int a) (Addr.to_int base)
  | Mark.False_in_heap _ | Mark.Outside -> Alcotest.fail "expected Valid interior");
  (match Mark.classify heap config (Addr.to_int (Heap.page_addr heap (Heap.n_pages heap - 1))) with
  | Mark.False_in_heap _ -> ()
  | Mark.Valid _ | Mark.Outside -> Alcotest.fail "expected False_in_heap for reserved page");
  (match Mark.classify heap config 0x5000 with
  | Mark.Outside -> ()
  | Mark.Valid _ | Mark.False_in_heap _ -> Alcotest.fail "expected Outside below heap");
  match Mark.classify heap config (Addr.to_int (Heap.limit_reserved heap)) with
  | Mark.Outside -> ()
  | Mark.Valid _ | Mark.False_in_heap _ -> Alcotest.fail "expected Outside above heap"

let test_classify_freed_slot_is_false () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  Gc.collect gc;
  match Mark.classify (Gc.heap gc) (Gc.config gc) (Addr.to_int a) with
  | Mark.False_in_heap _ -> ()
  | Mark.Valid _ | Mark.Outside -> Alcotest.fail "freed slot must classify as false reference"

(* --- trailing zero avoidance --- *)

let test_avoid_trailing_zeros () =
  (* heap base 0x100000 has 20 trailing zeros; page 0 triggers the
     avoidance, page 1 (0x101000, 12 trailing zeros) does too at k=12,
     but not at k=13. *)
  let config = { Config.default with Config.avoid_trailing_zeros = Some 13; initial_pages = 4 } in
  let _, _, gc = make_env ~config () in
  let a = Gc.allocate gc 8 in
  (* first object of the first page must be displaced off the page base *)
  check bool "object not at page-aligned address" false (Addr.is_aligned a 4096);
  check int "displaced by one granule" 4 (Addr.to_int a - Addr.to_int (Addr.align_down a 4096))

let test_no_avoidance_by_default () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  check bool "first object at page base" true (Addr.is_aligned a 4096)

(* --- heap growth and OOM --- *)

let test_heap_grows_on_demand () =
  let config = { Config.default with Config.initial_pages = 1 } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  (* keep everything live via a chain from the globals *)
  let prev = ref 0 in
  for i = 1 to 2000 do
    let a = Gc.allocate gc 8 in
    Gc.set_field gc a 0 !prev;
    prev := Addr.to_int a;
    if i mod 100 = 0 then set_slot globals 0 !prev
  done;
  set_slot globals 0 !prev;
  check bool "heap expanded" true (Heap.committed_pages (Gc.heap gc) > 1);
  Gc.collect gc;
  check int "all 2000 cells live" 2000 (Gc.stats gc).Stats.live_objects

let test_out_of_memory () =
  let config = { Config.default with Config.initial_pages = 1 } in
  let _, globals, gc = make_env ~config ~heap_kb:8 () in
  (* 8 KB reserve = 2 pages; keep a growing chain live until OOM *)
  check bool "exhaustion raises" true
    (try
       let prev = ref 0 in
       for _ = 1 to 10000 do
         let a = Gc.allocate gc 8 in
         Gc.set_field gc a 0 !prev;
         prev := Addr.to_int a;
         set_slot globals 0 !prev
       done;
       false
     with Gc.Out_of_memory _ -> true)

(* The grow rung commits [max_expand_pages] pages at once (capped by the
   reserve), [1] included.  Every page but page 0 is blacklisted, so once
   page 0 is full a pointer-bearing request finds no acceptable page,
   reaches the grow rung, and is then served by blacklist relaxation. *)
let test_grow_rung_batch () =
  let grow max_expand_pages =
    let config =
      { Config.default with Config.initial_pages = 1; max_expand_pages; relax_blacklist = true }
    in
    let _, globals, gc = make_env ~config ~heap_kb:64 () in
    let heap = Gc.heap gc in
    for p = 1 to Heap.n_pages heap - 1 do
      set_slot globals p (Addr.to_int (Addr.add (Heap.page_addr heap p) 12))
    done;
    Gc.collect gc;
    let stats = Gc.stats gc in
    while stats.Stats.ladder_expansions = 0 do
      set_slot globals 0 (Addr.to_int (Gc.allocate gc 8))
    done;
    check int "no backoff" 0 stats.Stats.ladder_backoffs;
    Heap.committed_pages heap
  in
  check int "batch of one page" 2 (grow 1);
  check int "batch of three pages" 4 (grow 3);
  check int "batch capped by the reserve" 16 (grow 256)

let test_auto_collect_triggers () =
  let config = { Config.default with Config.initial_pages = 4; space_divisor = 2 } in
  let mem = Mem.create () in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(64 * 1024) () in
  (* auto-collect left on; garbage churn must trigger collections and
     keep the heap bounded *)
  for _ = 1 to 20000 do
    ignore (Gc.allocate gc 8)
  done;
  check bool "collections happened" true ((Gc.stats gc).Stats.collections > 1);
  check bool "heap stayed bounded" true (Heap.committed_pages (Gc.heap gc) < 16)

let test_startup_collection_runs_before_first_alloc () =
  let mem = Mem.create () in
  let globals = Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x100 in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(512 * 1024) () in
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  (* poison a page before any allocation *)
  let poison_page = 2 in
  Segment.write_word globals (Segment.base globals)
    (Addr.to_int (Addr.add (Heap.page_addr (Gc.heap gc) poison_page) 4));
  let a = Gc.allocate gc 8 in
  check bool "startup GC ran" true ((Gc.stats gc).Stats.collections >= 1);
  check bool "first allocation avoided the poisoned page" false
    (Heap.page_index (Gc.heap gc) a = poison_page)

(* --- sweep internals --- *)

let test_sweep_releases_empty_pages () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let _, _, gc = make_env ~config () in
  for _ = 1 to 2000 do
    ignore (Gc.allocate gc 8)
  done;
  let used_before = Heap.free_page_count (Gc.heap gc) in
  Gc.collect gc;
  let free_after = Heap.free_page_count (Gc.heap gc) in
  check bool "pages returned to the pool" true (free_after > used_before);
  check int "nothing live" 0 (Gc.stats gc).Stats.live_objects

(* The order contract of the allocation cursor: after an eager collect,
   successive allocations return the class's free slots in ascending
   address order across its pages — skipping a page quarantined under
   the allocator — and then the slots of a freshly carved page,
   ascending.  The heap fills [n_pages] pages of 8-byte cells, keeps a
   random subset (linked from one root), and arms a decaying write
   plan over page [q], which keeps at least one cell so it stays a
   small page of the class. *)
let prop_cursor_order_contract =
  QCheck.Test.make ~count:40 ~name:"cursor hands out free slots in address order, then a carved page"
    QCheck.(triple (int_range 3 5) small_nat int)
    (fun (n_pages, q, seed) ->
      let mem, globals, gc = make_env () in
      let heap = Gc.heap gc in
      let page_of a = Heap.page_index heap a in
      let first = Gc.allocate gc 8 in
      let per_page = Heap.page_size heap / 8 in
      let cells = Array.init (n_pages * per_page) (fun i -> if i = 0 then first else Gc.allocate gc 8) in
      let p0 = page_of first in
      let q = p0 + (q mod n_pages) in
      let rng = Rng.create seed in
      let keep =
        Array.map (fun a -> Addr.equal a (Heap.page_addr heap q) || Rng.int rng 4 = 0) cells
      in
      let head = ref 0 in
      Array.iteri
        (fun i a ->
          if keep.(i) then begin
            Gc.set_field gc a 0 !head;
            head := Addr.to_int a
          end)
        cells;
      set_slot globals 0 !head;
      Gc.collect gc;
      let page_kept = Array.make (Heap.n_pages heap) false in
      Array.iteri (fun i a -> if keep.(i) then page_kept.(page_of a) <- true) cells;
      let expected_free = ref [] and q_had_garbage = ref false in
      Array.iteri
        (fun i a ->
          let p = page_of a in
          if (not keep.(i)) && p = q then q_had_garbage := true
          else if (not keep.(i)) && page_kept.(p) then expected_free := Addr.to_int a :: !expected_free)
        cells;
      let expected_free = List.rev !expected_free in
      let carved =
        let rec lowest_free i =
          if i >= Heap.committed_pages heap then i
          else match Heap.page heap i with Page.Free -> i | _ -> lowest_free (i + 1)
        in
        lowest_free 0
      in
      let expected_carved =
        List.init 8 (fun k -> Addr.to_int (Heap.page_addr heap carved) + (8 * k))
      in
      Mem.set_fault_plan mem
        (Some
           (Mem.Fault.plan ~target:Mem.Fault.Writes ~decay_bytes:(Heap.page_size heap)
              ~addr_pred:(fun a -> page_of a = q)
              ()));
      let got =
        List.init
          (List.length expected_free + List.length expected_carved)
          (fun _ -> Addr.to_int (Gc.allocate gc 8))
      in
      Mem.set_fault_plan mem None;
      got = expected_free @ expected_carved
      && Bitset.mem (Gc.Internal.decayed_pages gc) q = !q_had_garbage
      (* closing the page means one retry, not one per slot left on it *)
      && (Gc.stats gc).Stats.decay_retries = Bool.to_int !q_had_garbage
      && Cgc.Verify.check gc = [])

(* The cursor's bit search over the 62-bit alloc words, at the word
   boundaries: with slots 0, 1, 61, 62, 123, 124 and 125-511 but 300
   of an 8-byte page kept by a collect, allocation hands out 2-60, then
   63-122 (over the set bits that straddle the first boundary), then
   300 (over whole full words), and then, the page exhausted, slot 0 of
   a freshly carved page. *)
let test_cursor_search_at_word_boundaries () =
  let _, globals, gc = make_env () in
  let heap = Gc.heap gc in
  let cells = Array.init 512 (fun _ -> Gc.allocate gc 8) in
  let page = Heap.page_index heap cells.(0) in
  check bool "one page of cells" true (Heap.page_index heap cells.(511) = page);
  let kept i = List.mem i [ 0; 1; 61; 62; 123; 124 ] || (i >= 125 && i <> 300) in
  let head = ref 0 in
  Array.iteri
    (fun i a ->
      if kept i then begin
        Gc.set_field gc a 0 !head;
        head := Addr.to_int a
      end)
    cells;
  set_slot globals 0 !head;
  Gc.collect gc;
  let free = List.init 59 (fun k -> k + 2) @ List.init 60 (fun k -> k + 63) @ [ 300 ] in
  let expected = List.map (fun i -> Addr.to_int cells.(i)) free in
  let got = List.init (List.length expected) (fun _ -> Addr.to_int (Gc.allocate gc 8)) in
  check (Alcotest.list int) "free slots in ascending order" expected got;
  let next = Gc.allocate gc 8 in
  check bool "then a fresh page" true (Heap.page_index heap next <> page);
  check int "from its first slot" 0 (Addr.diff next (Heap.page_addr heap (Heap.page_index heap next)))

(* The collection budget is committed bytes / [space_divisor], kept in
   step with every commit and trim: with auto-collect on, an allocation
   collects exactly when the bytes allocated since the last collection
   have reached it.  A live list grows the heap page by page, each grow
   raising the budget; then all but its oldest cells die, a trim hands
   the emptied pages back, and the budget falls with committed bytes. *)
let test_budget_follows_committed_bytes () =
  let config = { Config.default with Config.initial_pages = 2 } in
  let _, globals, gc = make_env ~config () in
  Gc.set_auto_collect gc true;
  let heap = Gc.heap gc and s = Gc.stats gc in
  let since = ref 0 and fired_total = ref 0 and wrong = ref [] in
  let allocate i =
    let due =
      s.Stats.collections = 0
      || !since >= Heap.committed_bytes heap / config.Config.space_divisor
    in
    let c0 = s.Stats.collections and l0 = s.Stats.ladder_collects in
    let a = Gc.allocate gc 8 in
    let fired = s.Stats.collections - c0 - (s.Stats.ladder_collects - l0) in
    if fired <> Bool.to_int due then wrong := i :: !wrong;
    fired_total := !fired_total + fired;
    if s.Stats.collections <> c0 then since := 0;
    since := !since + 8;
    a
  in
  let cells = Array.make 6000 0 in
  for i = 0 to 5999 do
    let a = allocate i in
    Gc.set_field gc a 0 (if i = 0 then 0 else cells.(i - 1));
    cells.(i) <- Addr.to_int a;
    set_slot globals 0 cells.(i)
  done;
  let grown = Heap.committed_pages heap in
  check bool "the heap grew" true (grown > 10);
  check bool "collections fired while it grew" true (!fired_total > 1);
  set_slot globals 0 cells.(299);
  Gc.collect gc;
  since := 0;
  check bool "the trim released pages" true (Gc.trim gc > 0);
  check bool "committed bytes fell" true (Heap.committed_pages heap < grown / 2);
  let before = !fired_total in
  for i = 6000 to 8999 do
    ignore (allocate i : Addr.t)
  done;
  check bool "collections fired after the trim" true (!fired_total > before + 1);
  check (Alcotest.list int) "allocations that collected against the budget's verdict" []
    (List.rev !wrong)

let test_trim_returns_trailing_pages () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let _, globals, gc = make_env ~config () in
  (* force expansion, then drop everything *)
  let prev = ref 0 in
  for _ = 1 to 8000 do
    let a = Gc.allocate gc 8 in
    Gc.set_field gc a 0 !prev;
    prev := Addr.to_int a;
    set_slot globals 0 !prev
  done;
  let grown = Heap.committed_pages (Gc.heap gc) in
  check bool "heap grew" true (grown > 4);
  set_slot globals 0 0;
  Gc.collect gc;
  let released = Gc.trim gc in
  check bool "pages released" true (released > 0);
  check bool "committed dropped" true (Heap.committed_pages (Gc.heap gc) < grown);
  (* the heap still works *)
  let a = Gc.allocate gc 8 in
  check bool "allocation after trim" true (Gc.is_allocated gc a);
  check (Alcotest.list Alcotest.string) "invariants hold" [] (Cgc.Verify.check gc)

(* An allocation served from a page with a free slot — default config,
   zeroing included — builds nothing on the OCaml heap, untyped or
   typed. *)
let test_hit_allocation_allocates_nothing () =
  List.iter
    (fun (what, alloc) ->
      let _, _, gc = make_env () in
      ignore (alloc gc : Addr.t);
      let collections = (Gc.stats gc).Stats.collections in
      let w0 = Stdlib.Gc.minor_words () in
      let w1 = Stdlib.Gc.minor_words () in
      for _ = 1 to 100 do
        ignore (alloc gc : Addr.t)
      done;
      let w2 = Stdlib.Gc.minor_words () in
      check int (what ^ ": no collection ran") collections (Gc.stats gc).Stats.collections;
      check (Alcotest.float 0.) (what ^ ": minor words per hit allocation") 0.
        ((w2 -. w1 -. (w1 -. w0)) /. 100.))
    [
      ("untyped", fun gc -> Gc.allocate gc 8);
      ("typed", fun gc -> Gc.Internal.allocate_typed gc Type_desc.cons);
    ]

(* With no finalizer registered, the sweep allocates nothing per page or
   per object: sweeping a heap of ~100 pages of live and dead objects,
   small and large, costs exactly the minor words of sweeping an empty
   heap — its tally and its result record, a fixed handful. *)
let test_sweep_allocates_nothing () =
  let sweep_words gc =
    Gc.Internal.run_mark gc;
    let heap = Gc.heap gc and finalize = Gc.Internal.finalize gc and stats = Gc.stats gc in
    let w0 = Stdlib.Gc.minor_words () in
    let w1 = Stdlib.Gc.minor_words () in
    let r = Cgc.Sweep.run heap finalize stats in
    let w2 = Stdlib.Gc.minor_words () in
    (r, int_of_float (w2 -. w1 -. (w1 -. w0)))
  in
  let _, _, empty = make_env () in
  let _, globals, busy = make_env ~heap_kb:1024 () in
  for i = 0 to 3999 do
    let a = Gc.allocate busy (8 + (8 * (i mod 7))) in
    if i mod 5 = 0 then set_slot globals (i / 5) (Addr.to_int a)
  done;
  set_slot globals 900 (Addr.to_int (Gc.allocate busy 20_000));
  ignore (Gc.allocate busy 20_000 : Addr.t);
  check int "no finalizer registered" 0 (Finalize.registered_count (Gc.Internal.finalize busy));
  let _, fixed = sweep_words empty in
  let r, words = sweep_words busy in
  check bool "the busy sweep freed and kept objects" true
    (r.Cgc.Sweep.swept_objects > 2000 && r.Cgc.Sweep.live_objects > 800);
  check int "minor words: busy heap = empty heap" fixed words;
  check bool (Printf.sprintf "fixed cost (%d words) is the tally and result only" fixed) true
    (fixed <= 16)

(* A whole collection walks the page table through its rows and builds
   no page view: collecting a busy heap — 40,000 allocations of 8 to 56
   bytes, every 50th rooted, and a rooted 20 KB object, over 323 pages —
   costs exactly the minor words of collecting an empty heap of 64
   pages: the per-cycle root lists, iterators and timings, a fixed
   handful. *)
let test_collect_allocates_nothing_per_page () =
  let collect_words gc =
    let w0 = Stdlib.Gc.minor_words () in
    let w1 = Stdlib.Gc.minor_words () in
    Gc.collect gc;
    let w2 = Stdlib.Gc.minor_words () in
    int_of_float (w2 -. w1 -. (w1 -. w0))
  in
  let _, _, empty = make_env () in
  let _, globals, busy = make_env ~heap_kb:2048 () in
  for i = 0 to 39_999 do
    let a = Gc.allocate busy (8 + (8 * (i mod 7))) in
    if i mod 50 = 0 then set_slot globals (i / 50) (Addr.to_int a)
  done;
  set_slot globals 900 (Addr.to_int (Gc.allocate busy 20_000));
  check int "empty heap pages" 64 (Heap.committed_pages (Gc.heap empty));
  check int "busy heap pages" 323 (Heap.committed_pages (Gc.heap busy));
  let fixed = collect_words empty in
  check int "minor words: busy heap = empty heap" fixed (collect_words busy);
  check bool "the busy collect freed objects" true ((Gc.stats busy).Stats.objects_freed > 30_000)

(* [Gc.is_allocated] answers from the page table's rows and builds no
   page view: probing every word of a busy collected heap — live and
   freed slots, interiors, free pages, a large object's head and tail
   pages — costs no minor words at all. *)
let test_is_allocated_allocates_nothing () =
  let _, globals, gc = make_env ~heap_kb:1024 () in
  for i = 0 to 3999 do
    let a = Gc.allocate gc (8 + (8 * (i mod 7))) in
    if i mod 5 = 0 then set_slot globals (i / 5) (Addr.to_int a)
  done;
  set_slot globals 900 (Addr.to_int (Gc.allocate gc 20_000));
  Gc.collect gc;
  let heap = Gc.heap gc in
  let lo = Addr.to_int (Heap.base heap)
  and hi = Addr.to_int (Heap.page_addr heap (Heap.committed_pages heap)) in
  let found = ref 0 in
  let w0 = Stdlib.Gc.minor_words () in
  let w1 = Stdlib.Gc.minor_words () in
  let a = ref lo in
  while !a < hi do
    if Gc.is_allocated gc !a then incr found;
    a := !a + 4
  done;
  let w2 = Stdlib.Gc.minor_words () in
  check int "every rooted object found, nothing else" 801 !found;
  check int "minor words over the probe" 0 (int_of_float (w2 -. w1 -. (w1 -. w0)))

(* The trace allocates nothing per object or per scanned word: a second
   mark of ~4000 live chained cells of 4, 8, 12, 16, 20, 24 and 32
   bytes, every fourth of at least two words also naming a pointer-free
   leaf in its last word, and a zero-filled large object whose last word
   alone names a cell, costs exactly the minor words of marking an empty
   heap — the per-trace root lists and iterators, a fixed handful.  The
   cells reach every shape of the drain's block path: the straight-line
   8- and 16-byte reads, the counted block loop (20, 24 and 32 bytes)
   and its tails of one, two and three words (4, 12, 20 and 24 bytes);
   the large object reaches the span scan's zero skip, so an [Int64]
   boxed anywhere there shows.  The per-trace tally flush adds no
   closure either. *)
let test_mark_allocates_nothing () =
  let mark_words gc =
    Gc.Internal.run_mark gc;
    let marked0 = (Gc.stats gc).Stats.objects_marked in
    let w0 = Stdlib.Gc.minor_words () in
    let w1 = Stdlib.Gc.minor_words () in
    Gc.Internal.run_mark gc;
    let w2 = Stdlib.Gc.minor_words () in
    ((Gc.stats gc).Stats.objects_marked - marked0, int_of_float (w2 -. w1 -. (w1 -. w0)))
  in
  let _, _, empty = make_env () in
  let _, globals, busy = make_env ~heap_kb:1024 () in
  let head = Gc.allocate busy 8 in
  let prev = ref head and leaves = ref 0 in
  for i = 2 to 4000 do
    let bytes = [| 4; 8; 12; 16; 20; 24; 32 |].(i mod 7) in
    let c = Gc.allocate busy bytes in
    Gc.set_field busy !prev 0 (Addr.to_int c);
    if i mod 4 = 0 && bytes >= 8 then begin
      Gc.set_field busy c ((bytes / 4) - 1) (Addr.to_int (Gc.allocate ~pointer_free:true busy 12));
      incr leaves
    end;
    prev := c
  done;
  let large = Gc.allocate busy 20_000 in
  Gc.set_field busy large 4999 (Addr.to_int (Gc.allocate busy 8));
  Gc.set_field busy head 1 (Addr.to_int large);
  set_slot globals 0 (Addr.to_int head);
  let _, fixed = mark_words empty in
  let marked, words = mark_words busy in
  check int "every cell, leaf and the large object marked" (4000 + !leaves + 2) marked;
  check int "minor words: busy heap = empty heap" fixed words

let test_live_bytes_accounting () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 24 in
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check int "live bytes" 24 (Gc.live_bytes gc);
  check int "heap live_bytes agrees" 24 (Heap.live_bytes (Gc.heap gc))

(* --- free lists --- *)

let test_free_list_policies () =
  let fl = Free_list.create ~n_classes:4 Free_list.Lifo in
  Free_list.add fl ~granules:2 100;
  Free_list.add fl ~granules:2 50;
  check (Alcotest.option int) "lifo pops most recent" (Some 50) (Free_list.take fl ~granules:2);
  let fl = Free_list.create ~n_classes:4 Free_list.Address_ordered in
  Free_list.add fl ~granules:2 100;
  Free_list.add fl ~granules:2 50;
  Free_list.add fl ~granules:2 75;
  check (Alcotest.option int) "ordered pops lowest" (Some 50) (Free_list.take fl ~granules:2);
  check (Alcotest.option int) "then next" (Some 75) (Free_list.take fl ~granules:2)

(* --- explicit allocator baseline --- *)

let make_explicit ?policy () =
  let mem = Mem.create () in
  Explicit.create ?policy mem ~base:heap_base ~max_bytes:(256 * 1024) ()

(* A malloc+free pair reads its page's row and builds no page view: in
   steady state it allocates only the free list's cell, 10 minor words
   per pair under both build profiles. *)
let test_explicit_pair_allocation () =
  let e = make_explicit () in
  Explicit.free e (Explicit.malloc e 8);
  let w0 = Stdlib.Gc.minor_words () in
  let w1 = Stdlib.Gc.minor_words () in
  for _ = 1 to 1000 do
    Explicit.free e (Explicit.malloc e 8)
  done;
  let w2 = Stdlib.Gc.minor_words () in
  let per_pair = (w2 -. w1 -. (w1 -. w0)) /. 1000. in
  check bool (Printf.sprintf "%.2f minor words per pair <= 10" per_pair) true (per_pair <= 10.)

let test_explicit_roundtrip () =
  let e = make_explicit () in
  let a = Explicit.malloc e 16 in
  check bool "allocated" true (Explicit.is_allocated e a);
  check int "live bytes" 16 (Explicit.live_bytes e);
  Explicit.set_field e a 0 77;
  check int "fields work" 77 (Explicit.get_field e a 0);
  Explicit.free e a;
  check bool "freed" false (Explicit.is_allocated e a);
  check int "live zero" 0 (Explicit.live_bytes e)

let test_explicit_double_free () =
  let e = make_explicit () in
  let a = Explicit.malloc e 16 in
  Explicit.free e a;
  check bool "double free rejected" true
    (try
       Explicit.free e a;
       false
     with Invalid_argument _ -> true)

let test_explicit_wild_free () =
  let e = make_explicit () in
  let a = Explicit.malloc e 16 in
  check bool "interior free rejected" true
    (try
       Explicit.free e (Addr.add a 4);
       false
     with Invalid_argument _ -> true)

let test_explicit_reuse_order () =
  let e = make_explicit ~policy:Free_list.Address_ordered () in
  let a = Explicit.malloc e 8 in
  let b = Explicit.malloc e 8 in
  let c = Explicit.malloc e 8 in
  Explicit.free e c;
  Explicit.free e a;
  Explicit.free e b;
  check int "address-ordered reuse" (Addr.to_int a) (Addr.to_int (Explicit.malloc e 8));
  let e = make_explicit ~policy:Free_list.Lifo () in
  let a = Explicit.malloc e 8 in
  let _b = Explicit.malloc e 8 in
  let c = Explicit.malloc e 8 in
  Explicit.free e c;
  Explicit.free e a;
  check int "lifo reuse" (Addr.to_int a) (Addr.to_int (Explicit.malloc e 8))

let test_explicit_large () =
  let e = make_explicit () in
  let a = Explicit.malloc e (3 * 4096) in
  check bool "large allocated" true (Explicit.is_allocated e a);
  Explicit.free e a;
  let b = Explicit.malloc e (3 * 4096) in
  check int "pages reused" (Addr.to_int a) (Addr.to_int b)

let test_explicit_release_empty_pages () =
  let e = make_explicit () in
  let objs = List.init 100 (fun _ -> Explicit.malloc e 8) in
  List.iter (Explicit.free e) objs;
  check bool "releases the page" true (Explicit.release_empty_pages e >= 1);
  check bool "still works after" true (Explicit.is_allocated e (Explicit.malloc e 8))

(* --- precise baseline --- *)

let test_precise_no_false_references () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  Gc.set_auto_collect gc false;
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let a = Precise.allocate p Type_desc.cons in
  let b = Precise.allocate p Type_desc.cons in
  Gc.set_field gc a 0 (Addr.to_int b);
  roots := [ a ];
  Precise.collect p;
  check bool "root survives" true (Gc.is_allocated gc a);
  check bool "field-referenced survives" true (Gc.is_allocated gc b);
  (* an integer that happens to equal b's address in a non-pointer field
     of an atomic object must NOT retain anything *)
  let c = Precise.allocate p (Type_desc.atomic ~name:"blob" ~size_bytes:8) in
  Gc.set_field gc c 0 (Addr.to_int b);
  Gc.set_field gc a 0 0;
  roots := [ a; c ];
  Precise.collect p;
  check bool "atomic contents not traced" false (Gc.is_allocated gc b)

(* A precise collect is timed and counted like a conservative one. *)
let test_precise_collect_is_timed () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  Gc.set_auto_collect gc false;
  let p = Precise.create gc in
  let head = ref 0 in
  for _ = 1 to 2000 do
    let a = Precise.allocate p Type_desc.cons in
    Gc.set_field gc a 0 !head;
    head := Addr.to_int a
  done;
  Precise.add_root_provider p (fun () -> [ Addr.of_int !head ]);
  let before = Stats.copy (Gc.stats gc) in
  Precise.collect p;
  let after = Gc.stats gc in
  check bool "mark time rose" true (after.Stats.mark_seconds > before.Stats.mark_seconds);
  check bool "total time rose" true (after.Stats.total_gc_seconds > before.Stats.total_gc_seconds);
  check int "one full collection" (before.Stats.collections + 1) after.Stats.collections;
  check int "whole chain live" 2000 after.Stats.live_objects

(* A precise collect allocates nothing per page or object: on a busy
   heap — 40,000 typed allocations of 8-, 24- and 56-byte records, four
   in five linked into one chain from the one provider root, and a 20 KB
   record at the chain's head — it costs exactly the minor words of a
   precise collect of an empty 64-page heap with one rooted cell: the
   provider's root list, the root array and the timings, a fixed
   handful. *)
let test_precise_collect_allocates_nothing_per_page () =
  let record = Type_desc.make ~name:"record" ~size_bytes:24 ~pointer_offsets:[ 0; 8 ] in
  let wide = Type_desc.make ~name:"wide" ~size_bytes:56 ~pointer_offsets:[ 0; 52 ] in
  let big = Type_desc.make ~name:"big" ~size_bytes:20_000 ~pointer_offsets:[ 0; 19_996 ] in
  let precise ~heap_kb =
    let mem = Mem.create () in
    let gc = Gc.create mem ~base:heap_base ~max_bytes:(heap_kb * 1024) () in
    Gc.set_auto_collect gc false;
    (gc, Precise.create gc)
  in
  let collect_words p =
    Precise.collect p;
    let w0 = Stdlib.Gc.minor_words () in
    let w1 = Stdlib.Gc.minor_words () in
    Precise.collect p;
    let w2 = Stdlib.Gc.minor_words () in
    int_of_float (w2 -. w1 -. (w1 -. w0))
  in
  let empty_gc, empty = precise ~heap_kb:512 in
  let cell = Precise.allocate empty Type_desc.cons in
  Precise.add_root_provider empty (fun () -> [ cell ]);
  let busy_gc, busy = precise ~heap_kb:2048 in
  let root = ref (Precise.allocate busy big) in
  Precise.add_root_provider busy (fun () -> [ !root ]);
  for i = 1 to 40_000 do
    let a = Precise.allocate busy [| Type_desc.cons; record; wide |].(i mod 3) in
    if i mod 5 <> 0 then begin
      Gc.set_field busy_gc a 0 (Addr.to_int !root);
      root := a
    end
  done;
  check int "empty heap pages" 64 (Heap.committed_pages (Gc.heap empty_gc));
  check int "busy heap pages" 243 (Heap.committed_pages (Gc.heap busy_gc));
  let fixed = collect_words empty in
  check int "minor words: busy heap = empty heap" fixed (collect_words busy);
  check int "the chain and its tail live" 32_001 (Gc.stats busy_gc).Stats.live_objects

let test_precise_vs_conservative_misidentification () =
  (* the same bit pattern: conservative retains, precise does not *)
  let mem = Mem.create () in
  let globals = Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x100 in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  Gc.set_auto_collect gc false;
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  let p = Precise.create gc in
  Precise.add_root_provider p (fun () -> []);
  let a = Precise.allocate p Type_desc.cons in
  (* "integer" in static data happens to hold a's address *)
  Segment.write_word globals (Segment.base globals) (Addr.to_int a);
  Gc.collect gc;
  check bool "conservative retains" true (Gc.is_allocated gc a);
  Precise.collect p;
  check bool "precise reclaims" false (Gc.is_allocated gc a)

let test_type_desc_validation () =
  check bool "unaligned offset rejected" true
    (try
       ignore (Type_desc.make ~name:"bad" ~size_bytes:8 ~pointer_offsets:[ 2 ]);
       false
     with Invalid_argument _ -> true);
  check bool "out of bounds rejected" true
    (try
       ignore (Type_desc.make ~name:"bad" ~size_bytes:8 ~pointer_offsets:[ 8 ]);
       false
     with Invalid_argument _ -> true);
  check bool "descending rejected" true
    (try
       ignore (Type_desc.make ~name:"bad" ~size_bytes:12 ~pointer_offsets:[ 4; 0 ]);
       false
     with Invalid_argument _ -> true);
  check bool "cons is sane" true (Type_desc.cons.Type_desc.size_bytes = 8)

(* Every allocated object, by a walk over the page table. *)
let allocated_bases gc =
  let heap = Gc.heap gc in
  let acc = ref [] in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Small s ->
          let first = Addr.add (Heap.page_addr heap i) s.Page.first_offset in
          Bitset.iter_set s.Page.alloc (fun obj ->
              acc := Addr.add first (obj * s.Page.object_bytes) :: !acc)
      | Page.Large_head l -> if l.Page.l_allocated then acc := Heap.page_addr heap i :: !acc
      | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
  List.sort Addr.compare !acc

(* Regression: a layout lives exactly as long as its object — sweeping
   an object must take its layout with it, or [check_precise_mark]
   would trace through freed memory. *)
let test_precise_desc_eviction () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let keep = Precise.allocate p Type_desc.cons in
  roots := [ keep ];
  let dead = List.init 50 (fun _ -> Precise.allocate p Type_desc.cons) in
  let typed () = List.filter (fun a -> Precise.descriptor p a <> None) (allocated_bases gc) in
  check bool "every allocation carries its layout" true (List.length (typed ()) >= 51);
  Precise.collect p;
  check (Alcotest.list int) "swept objects' layouts are gone" [ Addr.to_int keep ]
    (List.map Addr.to_int (typed ()));
  List.iter
    (fun a -> check bool "freed object has no descriptor" true (Precise.descriptor p a = None))
    dead;
  check bool "live object keeps its descriptor" true (Precise.descriptor p keep <> None)

(* The kernel reads a typed object's pointer words only, in every
   collection: under a conservative [Gc.collect] a valid base in a
   scalar word of a typed object retains nothing, while the same word
   of an untyped object does. *)
let test_typed_page_scans_pointer_words_only () =
  let _, globals, gc = make_env () in
  let rec_desc = Type_desc.make ~name:"rec" ~size_bytes:16 ~pointer_offsets:[ 0 ] in
  let typed = Gc.Internal.allocate_typed gc rec_desc in
  let untyped = Gc.allocate gc 16 in
  let via_pointer = Gc.allocate gc 8 in
  let via_scalar = Gc.allocate gc 8 in
  let via_untyped = Gc.allocate gc 8 in
  Gc.set_field gc typed 0 (Addr.to_int via_pointer);
  Gc.set_field gc typed 2 (Addr.to_int via_scalar);
  Gc.set_field gc untyped 2 (Addr.to_int via_untyped);
  set_slot globals 0 (Addr.to_int typed);
  set_slot globals 1 (Addr.to_int untyped);
  Gc.collect gc;
  check bool "typed object kept" true (Gc.is_allocated gc typed);
  check bool "pointer word retains" true (Gc.is_allocated gc via_pointer);
  check bool "scalar word of a typed object does not retain" false (Gc.is_allocated gc via_scalar);
  check bool "same word of an untyped object retains" true (Gc.is_allocated gc via_untyped);
  check (Alcotest.list Alcotest.string) "invariants hold" [] (Cgc.Verify.check gc)

(* The exact scanner derives field indices as [offset / granule]; a
   config with non-default scan alignment must not perturb that — the
   pointer map is byte-offset-based, not alignment-based. *)
let test_precise_nondefault_alignment_geometry () =
  let config = { Config.default with Config.alignment = 2 } in
  let mem = Mem.create () in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let rec_desc =
    Type_desc.make ~name:"rec" ~size_bytes:32 ~pointer_offsets:[ 8; 24 ]
  in
  let r = Precise.allocate p rec_desc in
  let a = Precise.allocate p Type_desc.cons in
  let b = Precise.allocate p Type_desc.cons in
  Gc.set_field gc r 2 (Addr.to_int a);
  (* word 2 = offset 8 *)
  Gc.set_field gc r 6 (Addr.to_int b);
  (* word 6 = offset 24 *)
  (* a heap-looking value in a non-map word must not retain *)
  let c = Precise.allocate p Type_desc.cons in
  Gc.set_field gc r 1 (Addr.to_int c);
  roots := [ r ];
  Precise.collect p;
  check bool "offset-8 child survives" true (Gc.is_allocated gc a);
  check bool "offset-24 child survives" true (Gc.is_allocated gc b);
  check bool "non-map word does not retain" false (Gc.is_allocated gc c)

(* A faulting read in the exact trace must abort the mark with the typed
   exception, restore the pre-collect mark state, and leave the heap
   ready for a clean re-collect once the plan lifts. *)
let test_precise_mark_abort_and_restore () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let a = Precise.allocate p Type_desc.cons in
  let b = Precise.allocate p Type_desc.cons in
  Gc.set_field gc a 0 (Addr.to_int b);
  roots := [ a ];
  let dead = Precise.allocate p Type_desc.cons in
  ignore dead;
  Mem.set_fault_plan mem
    (Some (Mem.Fault.plan ~countdown:1 ~rearm:true ~target:Mem.Fault.Reads ()));
  let s = Gc.stats gc in
  let words0 = s.Stats.words_scanned in
  let aborted =
    try
      Precise.collect p;
      false
    with Precise.Mark_aborted -> true
  in
  check bool "mark aborted under rearming read faults" true aborted;
  (* the trace's tallies reach [Stats] on the stopped exit too *)
  check bool "the aborted trace's scanned words counted" true (s.Stats.words_scanned > words0);
  Mem.set_fault_plan mem None;
  check int "abort counted" 1 s.Stats.precise_mark_aborts;
  check bool "aborted cycle completed no collection" true (s.Stats.precise_collections = 0);
  check (Alcotest.list Alcotest.string) "heap coherent after abort" []
    (Cgc.Verify.check_precise_mark p);
  Precise.collect p;
  check bool "root survives the re-collect" true (Gc.is_allocated gc a);
  check bool "child survives the re-collect" true (Gc.is_allocated gc b);
  check int "exactly the garbage was freed" 2 s.Stats.live_objects

(* The audit's shadow conservative mark leaves the collector as it
   found it: statistics, blacklist and the exact objects' marks.  The
   root area holds a false reference, so a shadow mark that noted into
   the collector's blacklist would blacklist its page. *)
let test_check_precise_mark_leaves_state () =
  let _, globals, gc = make_env () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let a = Precise.allocate p Type_desc.cons in
  let b = Precise.allocate p Type_desc.cons in
  Gc.set_field gc a 0 (Addr.to_int b);
  roots := [ a ];
  Precise.collect p;
  let heap = Gc.heap gc in
  let bl = Gc.blacklist gc in
  let false_page = Heap.n_pages heap - 1 in
  set_slot globals 0 (Addr.to_int (Heap.page_addr heap false_page) + 12);
  check bool "the planted page is not black yet" false (Blacklist.is_black bl false_page);
  let exact = Cgc.Verify.exact_reachable p in
  check int "two exact objects" 2 (List.length exact);
  let black () =
    let pages = ref [] in
    Blacklist.iter (fun i -> pages := i :: !pages) bl;
    (Blacklist.count bl, Blacklist.ops bl, !pages)
  in
  let marks () = List.map (Heap.is_marked heap) exact in
  let stats = Stats.copy (Gc.stats gc) and black0 = black () and marks0 = marks () in
  check (Alcotest.list Alcotest.string) "audit clean" [] (Cgc.Verify.check_precise_mark p);
  check bool "statistics as found" true (stats = Stats.copy (Gc.stats gc));
  check bool "blacklist as found" true (black0 = black ());
  check (Alcotest.list bool) "exact marks as found" marks0 (marks ());
  Gc.collect gc;
  check bool "a conservative mark does note the planted page" true
    (Blacklist.is_black bl false_page)

(* A root provider naming a freed address is a mutator bug the marker
   must surface (counted + audited), never trace through or crash on. *)
let test_precise_stale_root_detection () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let live = ref [] in
  let stale = ref [] in
  Precise.add_root_provider p (fun () -> !live @ !stale);
  let a = Precise.allocate p Type_desc.cons in
  let doomed = Precise.allocate p Type_desc.cons in
  live := [ a ];
  Precise.collect p;
  check bool "doomed freed" false (Gc.is_allocated gc doomed);
  stale := [ doomed ];
  Precise.collect p;
  let s = Gc.stats gc in
  check bool "stale root counted" true (s.Stats.precise_stale_roots >= 1);
  check bool "stale address audited" true (List.mem doomed (Precise.last_stale_roots p));
  check bool "live root unaffected" true (Gc.is_allocated gc a)

(* Allocation pressure must drive the wrapped collector's ladder into
   the exact collector via the hook: unrooted garbage is reclaimed
   without anyone calling [Precise.collect] and without a conservative
   cycle racing the exact one. *)
let test_precise_hook_collects_under_pressure () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let mem = Mem.create () in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(64 * 1024) () in
  let p = Precise.create gc in
  Precise.add_root_provider p (fun () -> []);
  for _ = 1 to 5000 do
    ignore (Precise.allocate p Type_desc.cons : Addr.t)
  done;
  let s = Gc.stats gc in
  check bool "hook drove exact collections" true (s.Stats.precise_collections >= 1);
  check bool "every cycle was exact" true
    (s.Stats.collections = s.Stats.precise_collections);
  check bool "garbage was reclaimed" true (s.Stats.objects_freed >= 4000)

(* A bounded mark stack must overflow gracefully: the fixpoint rescan
   retains the whole chain, and the overflow episode is counted. *)
let test_precise_bounded_mark_stack () =
  let config = { Config.default with Config.mark_stack_limit = Some 16 } in
  let mem = Mem.create () in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  (* a 64-way fan-out overflows the 16-slot stack in one scan; the
     fixpoint rescan must still reach every child *)
  let fanout = 64 in
  let arr_desc =
    Type_desc.make ~name:"wide" ~size_bytes:(4 * fanout)
      ~pointer_offsets:(List.init fanout (fun i -> 4 * i))
  in
  let hub = Precise.allocate p arr_desc in
  for i = 0 to fanout - 1 do
    let c = Precise.allocate p Type_desc.cons in
    Gc.set_field gc hub i (Addr.to_int c)
  done;
  roots := [ hub ];
  Precise.collect p;
  let s = Gc.stats gc in
  check int "hub and every child retained" (fanout + 1) s.Stats.live_objects;
  check bool "overflow episode counted" true (s.Stats.mark_stack_overflows >= 1)

(* --- stats --- *)

let test_stats_counters () =
  let _, globals, gc = make_env () in
  let s = Gc.stats gc in
  let a = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  ignore (Gc.allocate gc 8);
  check int "objects allocated" 2 s.Stats.objects_allocated;
  check int "bytes allocated" 16 s.Stats.bytes_allocated;
  Gc.collect gc;
  check int "collections" 1 s.Stats.collections;
  check int "one freed" 1 s.Stats.objects_freed;
  check int "one live" 1 s.Stats.live_objects;
  check bool "words were scanned" true (s.Stats.words_scanned > 0);
  check bool "a valid ref was seen" true (s.Stats.valid_refs >= 1)

(* [header_cache_hits] counts classification lookups only, so it can
   never exceed the in-heap candidates classified ([valid_refs] +
   [false_refs]).  A rooted linked list of 8-byte cells keeps each
   scanned cell and its successor on the same page, where an object-scan
   lookup would also count as a hit and push the ratio towards 2.  Two
   uncommitted-region words in the globals add false references.  The
   trace derives its hits from its misses ([valid + false - misses]);
   its count is pinned to the 4088 the kernel counted hit by hit before
   that. *)
let test_stats_header_cache_hits_per_lookup () =
  let _, globals, gc = make_env () in
  let n = 4096 in
  let head = Gc.allocate gc 8 in
  let prev = ref head in
  for _ = 2 to n do
    let c = Gc.allocate gc 8 in
    Gc.set_field gc !prev 0 (Addr.to_int c);
    prev := c
  done;
  set_slot globals 0 (Addr.to_int head);
  set_slot globals 1 (Addr.to_int heap_base + (400 * 1024));
  set_slot globals 2 (Addr.to_int heap_base + (400 * 1024) + 4);
  let s = Gc.stats gc in
  let hits0 = s.Stats.header_cache_hits
  and valid0 = s.Stats.valid_refs
  and false0 = s.Stats.false_refs in
  Gc.collect gc;
  let hits = s.Stats.header_cache_hits - hits0
  and classified = s.Stats.valid_refs - valid0 + (s.Stats.false_refs - false0) in
  check bool "every cell was classified" true (classified >= n);
  check int "hit count" 4088 hits;
  if hits > classified then
    Alcotest.failf "%d header-cache hits over %d classified references" hits classified

(* [Stats.pp] prints every counter next to its own label: each field
   holds a distinct value, so an argument passed out of order shows as
   a wrong line. *)
let test_stats_pp_labels () =
  let s = Stats.create () in
  s.Stats.collections <- 1;
  s.Stats.words_scanned <- 2;
  s.Stats.valid_refs <- 3;
  s.Stats.false_refs <- 4;
  s.Stats.objects_marked <- 5;
  s.Stats.header_cache_hits <- 6;
  s.Stats.objects_allocated <- 7;
  s.Stats.bytes_allocated <- 8;
  s.Stats.objects_freed <- 9;
  s.Stats.bytes_freed <- 10;
  s.Stats.live_objects <- 11;
  s.Stats.live_bytes <- 12;
  s.Stats.heap_expansions <- 13;
  s.Stats.mark_stack_overflows <- 14;
  s.Stats.blacklist_alloc_checks <- 15;
  s.Stats.blacklist_rejected_pages <- 16;
  s.Stats.ladder_collects <- 17;
  s.Stats.ladder_trims <- 18;
  s.Stats.ladder_expansions <- 19;
  s.Stats.ladder_backoffs <- 20;
  s.Stats.ladder_relax_first_page <- 21;
  s.Stats.ladder_relax_black <- 22;
  s.Stats.commit_faults <- 23;
  s.Stats.oom_raised <- 24;
  s.Stats.read_faults <- 25;
  s.Stats.mark_downgrades <- 26;
  s.Stats.write_faults <- 27;
  s.Stats.pages_decayed <- 28;
  s.Stats.decay_retries <- 29;
  s.Stats.precise_collections <- 30;
  s.Stats.precise_mark_aborts <- 31;
  s.Stats.precise_stale_roots <- 32;
  s.Stats.total_gc_seconds <- 0.5;
  s.Stats.mark_seconds <- 0.25;
  s.Stats.sweep_seconds <- 0.125;
  check
    (Alcotest.list Alcotest.string)
    "one labelled line per counter"
    [
      "collections     1";
      "words scanned   2";
      "valid refs      3";
      "false refs      4";
      "objects marked  5";
      "header cache    6 hits";
      "allocated       7 objects / 8 bytes";
      "freed           9 objects / 10 bytes";
      "live            11 objects / 12 bytes";
      "heap expansions 13";
      "mark overflows  14";
      "blacklist       15 alloc checks, 16 pages rejected";
      "ladder          17 collects, 18 trims, 19 grows (20 backoffs)";
      "relaxation      21 first-page, 22 on-black";
      "faults          23 commit faults, 24 OOM raised";
      "access faults   25 reads (26 mark downgrades), 27 writes";
      "decay           28 pages quarantined, 29 alloc retries";
      "precise         30 collects, 31 mark aborts, 32 stale roots";
      "gc time         0.500000s (mark 0.250000s, sweep 0.125000s)";
    ]
    (String.split_on_char '\n' (Format.asprintf "%a" Stats.pp s))

(* --- generational promoted-bytes accounting --- *)

module Generational = Cgc.Generational

(* promoted_bytes charges live bytes at the moment of promotion, for
   both page shapes: a partially-dead small page charges only its
   surviving slots, never its capacity. *)
let test_promoted_bytes_small_partial_page () =
  let _, globals, gc = make_env () in
  let gen = Generational.create ~promote_after:1 gc in
  let a = Generational.allocate gen 256 in
  let b = Generational.allocate gen 256 in
  let c = Generational.allocate gen 256 in
  let d = Generational.allocate gen 256 in
  set_slot globals 0 (Addr.to_int a);
  set_slot globals 1 (Addr.to_int b);
  ignore c;
  ignore d;
  Generational.minor gen;
  let s = Generational.stats gen in
  check int "one page promoted" 1 s.Generational.promoted_pages;
  check int "promoted bytes = surviving slots only" 512 s.Generational.promoted_bytes;
  check bool "survivor is old" true (Generational.is_old gen a)

let test_promoted_bytes_large_object () =
  let _, globals, gc = make_env () in
  let gen = Generational.create ~promote_after:1 gc in
  let a = Generational.allocate gen 8192 in
  set_slot globals 0 (Addr.to_int a);
  Generational.minor gen;
  let s = Generational.stats gen in
  check int "both pages promoted" 2 s.Generational.promoted_pages;
  check int "promoted bytes = the live span" 8192 s.Generational.promoted_bytes;
  check bool "large object is old" true (Generational.is_old gen a);
  (* a dead large object is swept before it can age: nothing promotes,
     nothing is charged *)
  let _, _, gc2 = make_env () in
  let gen2 = Generational.create ~promote_after:1 gc2 in
  ignore (Generational.allocate gen2 8192);
  Generational.minor gen2;
  let s2 = Generational.stats gen2 in
  check int "dead large: no pages promoted" 0 s2.Generational.promoted_pages;
  check int "dead large: no bytes charged" 0 s2.Generational.promoted_bytes

(* A minor collection walks the page table through its rows and builds
   no page view, and the kernel takes the dirty old pages as a page set,
   not as one root range per object: each of the first five minors of a
   busy heap — 40,000 allocations of 8 to 56 bytes, every 50th rooted,
   and a rooted 20 KB object, over 323 pages — costs exactly the minor
   words of the same minor of an empty 64-page heap.  The first minor
   frees the garbage and ages every surviving page, the second promotes
   them dirty, and the third, the first after the promotion, rescans
   every promoted page's objects and tests each of their words for a
   young reference. *)
let test_minor_allocates_nothing_per_page () =
  let minor_words gen =
    List.init 5 (fun _ ->
        let w0 = Stdlib.Gc.minor_words () in
        let w1 = Stdlib.Gc.minor_words () in
        Generational.minor gen;
        let w2 = Stdlib.Gc.minor_words () in
        int_of_float (w2 -. w1 -. (w1 -. w0)))
  in
  let _, _, empty = make_env () in
  let empty = Generational.create empty in
  let _, globals, busy = make_env ~heap_kb:2048 () in
  let busy = Generational.create busy in
  for i = 0 to 39_999 do
    let a = Generational.allocate busy (8 + (8 * (i mod 7))) in
    if i mod 50 = 0 then set_slot globals (i / 50) (Addr.to_int a)
  done;
  set_slot globals 900 (Addr.to_int (Generational.allocate busy 20_000));
  check int "empty heap pages" 64 (Heap.committed_pages (Gc.heap (Generational.gc empty)));
  check int "busy heap pages" 323 (Heap.committed_pages (Gc.heap (Generational.gc busy)));
  let fixed = minor_words empty in
  check (Alcotest.list int) "minor words of minors 1-5: busy heap = empty heap" fixed
    (minor_words busy);
  let s = Generational.stats busy in
  check bool "the busy heap's survivors were promoted" true (s.Generational.promoted_pages > 200);
  check bool "and their pages rescanned dirty" true (s.Generational.dirty_pages_scanned > 200)

let () =
  Alcotest.run "gc"
    [
      ( "size-class",
        [ Alcotest.test_case "mapping" `Quick test_size_class_mapping ] );
      ( "heap",
        [
          Alcotest.test_case "geometry" `Quick test_heap_geometry;
          Alcotest.test_case "commit" `Quick test_heap_commit;
          Alcotest.test_case "exact reciprocal indexing" `Quick test_heap_reciprocal_exact;
          Alcotest.test_case "find free run" `Quick test_heap_find_run;
          QCheck_alcotest.to_alcotest prop_find_run_matches_reference;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "basics" `Quick test_allocate_basics;
          Alcotest.test_case "size rounding" `Quick test_allocate_size_rounding;
          Alcotest.test_case "rejects non-positive" `Quick test_allocate_rejects_nonpositive;
          Alcotest.test_case "field round trip" `Quick test_field_round_trip;
          Alcotest.test_case "recycled slots come back zeroed" `Quick test_recycled_slots_zeroed;
          Alcotest.test_case "boundary sizes" `Quick test_boundary_sizes;
          Alcotest.test_case "many classes" `Quick test_many_classes_interleaved;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "printers" `Quick test_pp_smoke;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "root keeps alive" `Quick test_root_keeps_object_alive;
          Alcotest.test_case "unreachable collected" `Quick test_unreachable_object_collected;
          Alcotest.test_case "transitive" `Quick test_transitive_reachability;
          Alcotest.test_case "cycles" `Quick test_cycle_collected;
          Alcotest.test_case "interior retains" `Quick test_interior_pointer_retains;
          Alcotest.test_case "interior disabled" `Quick test_interior_pointer_ignored_when_disabled;
          Alcotest.test_case "pointer-free not scanned" `Quick test_pointer_free_not_scanned;
          Alcotest.test_case "normal scanned" `Quick test_normal_object_is_scanned;
          Alcotest.test_case "register roots" `Quick test_register_roots;
          Alcotest.test_case "dynamic roots" `Quick test_dynamic_roots;
          Alcotest.test_case "run_mark_parallel is the serial stub" `Quick
            test_run_mark_parallel_stub;
          Alcotest.test_case "run_mark_parallel ignores jobs" `Quick
            test_run_mark_parallel_ignores_jobs;
          Alcotest.test_case "run_mark_parallel's shard is this mark's counts" `Quick
            test_run_mark_parallel_shard_is_delta;
        ] );
      ( "alignment",
        [
          Alcotest.test_case "unaligned root" `Quick test_unaligned_root_requires_alignment_1;
          Alcotest.test_case "halfword root" `Quick test_halfword_alignment_2;
        ] );
      ( "large",
        [
          Alcotest.test_case "lifecycle" `Quick test_large_object_lifecycle;
          Alcotest.test_case "tail pointers" `Quick test_large_tail_pointer;
          Alcotest.test_case "first page interior" `Quick test_large_first_page_interior;
          Alcotest.test_case "reuse after free" `Quick test_large_reuse_after_free;
          Alcotest.test_case "expansions count committing placements" `Quick
            test_large_expansions_count_commits;
          Alcotest.test_case "relaxed placement takes the lowest clean first page" `Quick
            test_large_relax_first_page_lowest_start;
        ] );
      ( "finalize",
        [
          Alcotest.test_case "queue" `Quick test_finalizer_queue;
          Alcotest.test_case "registry" `Quick test_finalizer_registry;
        ] );
      ( "blacklist",
        [
          Alcotest.test_case "unit" `Quick test_blacklist_unit;
          Alcotest.test_case "avoids false-ref page" `Quick test_blacklist_avoids_false_ref_page;
          Alcotest.test_case "covers uncommitted region" `Quick test_blacklist_covers_uncommitted_region;
          Alcotest.test_case "atomic on black pages" `Quick test_atomic_allowed_on_black_pages;
          Alcotest.test_case "off allows retention" `Quick test_blacklist_off_allows_false_retention;
          Alcotest.test_case "refresh releases pages" `Quick test_blacklist_refresh_releases_pages;
          Alcotest.test_case "hashed variant" `Quick test_blacklist_hashed;
          Alcotest.test_case "hashed end to end" `Quick test_blacklist_hashed_end_to_end;
          Alcotest.test_case "bucket geometry" `Quick test_blacklist_bucket_geometry;
        ] );
      ( "classify",
        [
          Alcotest.test_case "cases" `Quick test_classify;
          Alcotest.test_case "freed slot" `Quick test_classify_freed_slot_is_false;
        ] );
      ( "trailing-zeros",
        [
          Alcotest.test_case "avoidance" `Quick test_avoid_trailing_zeros;
          Alcotest.test_case "off by default" `Quick test_no_avoidance_by_default;
        ] );
      ( "growth",
        [
          Alcotest.test_case "grows on demand" `Quick test_heap_grows_on_demand;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "grow rung batch" `Quick test_grow_rung_batch;
          Alcotest.test_case "auto collect" `Quick test_auto_collect_triggers;
          Alcotest.test_case "startup collection" `Quick test_startup_collection_runs_before_first_alloc;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "releases empty pages" `Quick test_sweep_releases_empty_pages;
          QCheck_alcotest.to_alcotest prop_cursor_order_contract;
          Alcotest.test_case "cursor search at word boundaries" `Quick
            test_cursor_search_at_word_boundaries;
          Alcotest.test_case "budget follows committed bytes" `Quick
            test_budget_follows_committed_bytes;
          Alcotest.test_case "live bytes" `Quick test_live_bytes_accounting;
          Alcotest.test_case "hit path allocates nothing" `Quick test_hit_allocation_allocates_nothing;
          Alcotest.test_case "sweep allocates nothing per object" `Quick
            test_sweep_allocates_nothing;
          Alcotest.test_case "mark allocates nothing per object" `Quick
            test_mark_allocates_nothing;
          Alcotest.test_case "collect allocates nothing per page" `Quick
            test_collect_allocates_nothing_per_page;
          Alcotest.test_case "is_allocated allocates nothing" `Quick
            test_is_allocated_allocates_nothing;
          Alcotest.test_case "trim" `Quick test_trim_returns_trailing_pages;
        ] );
      ( "free-list",
        [
          Alcotest.test_case "policies" `Quick test_free_list_policies;
        ] );
      ( "explicit",
        [
          Alcotest.test_case "roundtrip" `Quick test_explicit_roundtrip;
          Alcotest.test_case "malloc+free pair allocation" `Quick test_explicit_pair_allocation;
          Alcotest.test_case "double free" `Quick test_explicit_double_free;
          Alcotest.test_case "wild free" `Quick test_explicit_wild_free;
          Alcotest.test_case "reuse order" `Quick test_explicit_reuse_order;
          Alcotest.test_case "large" `Quick test_explicit_large;
          Alcotest.test_case "release empty pages" `Quick test_explicit_release_empty_pages;
        ] );
      ( "precise",
        [
          Alcotest.test_case "no false references" `Quick test_precise_no_false_references;
          Alcotest.test_case "vs conservative" `Quick test_precise_vs_conservative_misidentification;
          Alcotest.test_case "collect is timed" `Quick test_precise_collect_is_timed;
          Alcotest.test_case "collect allocates nothing per page" `Quick
            test_precise_collect_allocates_nothing_per_page;
          Alcotest.test_case "type descriptors" `Quick test_type_desc_validation;
          Alcotest.test_case "descriptor eviction on sweep" `Quick test_precise_desc_eviction;
          Alcotest.test_case "typed page scans pointer words only" `Quick
            test_typed_page_scans_pointer_words_only;
          Alcotest.test_case "non-default alignment geometry" `Quick
            test_precise_nondefault_alignment_geometry;
          Alcotest.test_case "mark abort and restore" `Quick test_precise_mark_abort_and_restore;
          Alcotest.test_case "stale root detection" `Quick test_precise_stale_root_detection;
          Alcotest.test_case "audit leaves state as found" `Quick
            test_check_precise_mark_leaves_state;
          Alcotest.test_case "hook collects under pressure" `Quick
            test_precise_hook_collects_under_pressure;
          Alcotest.test_case "bounded mark stack" `Quick test_precise_bounded_mark_stack;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "header-cache hits count classification lookups only" `Quick
            test_stats_header_cache_hits_per_lookup;
          Alcotest.test_case "pp labels every counter" `Quick test_stats_pp_labels;
        ] );
      ( "generational-accounting",
        [
          Alcotest.test_case "small partial page charges live bytes" `Quick
            test_promoted_bytes_small_partial_page;
          Alcotest.test_case "large object charges live span only" `Quick
            test_promoted_bytes_large_object;
          Alcotest.test_case "minor allocates nothing per page" `Quick
            test_minor_allocates_nothing_per_page;
        ] );
    ]
