(* Differential tests for the mark-phase fast path.

   Two deterministically-identical collector instances are built from
   one random scenario; one is marked with the collector's trace kernel
   ([Gc.Internal.run_mark]), the other with the test oracle's reference
   marker ([Cgc_oracle.Reference.run]), which owns its own mark stack,
   push and overflow recovery.  Mark bitmaps, blacklisted pages and the
   marking statistics must be bit-identical — across alignments 1/2/4,
   interior pointers on/off, registered displacement lists, bounded
   mark stacks (overflow recovery), hashed blacklists and pointer-free
   leaves among the scanned objects.  [Stats.header_cache_hits] is
   compared too: the reference has no header cache, but counts the hits
   a one-entry cache must score.  A second scenario group spreads its
   objects over dozens of pages and links them in shuffled order, so
   nearly every reference misses the cache.  The generational minor collection runs on the same
   kernel; its young scope is pinned against a test-side walker.  The
   word-wide sweep is pinned the same way, against the per-object
   reference sweep [Cgc_oracle.Sweep_reference.run]. *)

open Cgc_vm
module Gc = Cgc.Gc
module Config = Cgc.Config
module Heap = Cgc.Heap
module Page = Cgc.Page
module Blacklist = Cgc.Blacklist
module Stats = Cgc.Stats

type scenario = {
  s_sizes : int array;  (* words per object *)
  s_leaves : bool array;  (* allocated [~pointer_free:true] *)
  s_edges : (int * int * int) list;  (* (src, field, dst) *)
  s_roots : int list;
  s_junk : int list;  (* raw word values written into the root segment *)
  s_bytes : string;  (* raw tail bytes, scanned at every alignment *)
  s_alignment : int;
  s_interior : bool;
  s_first_page_only : bool;  (* [large_validity = First_page_only] *)
  s_disps : int list;
  s_limit : int option;  (* mark_stack_limit *)
  s_hashed : bool;
  s_big_endian : bool;
}

let heap_base = 0x400000
let heap_bytes = 2 * 1024 * 1024

let junk_value_gen =
  QCheck.Gen.(
    frequency
      [
        (* anywhere in the 32-bit space *)
        (2, map (fun v -> v land 0xFFFFFFFF) (int_bound max_int));
        (* in the vicinity of the heap: interior, unaligned, off-by-one
           values — the classifier's hard cases *)
        (5, map (fun off -> heap_base + off) (int_bound (heap_bytes - 1)));
        (* straddling the heap's bounds *)
        (1, oneofl [ heap_base - 4; heap_base - 1; heap_base; heap_base + heap_bytes - 1; heap_base + heap_bytes ]);
        (1, return 0);
      ])

(* The field an edge of a [words]-word source lands in: one of the first
   four, the last, or any.  In a 1500-word object the last word and a
   word after a long run of zero words are where the block scan's zero
   skip, its four-word split and its 0-3-word tail meet. *)
let field_gen words =
  QCheck.Gen.(
    frequency
      [ (2, int_bound (min 3 (words - 1))); (1, return (words - 1)); (2, int_bound (words - 1)) ])

let scenario_gen =
  QCheck.Gen.(
    int_range 2 30 >>= fun n ->
    (* 1-9 words: every word count mod 4 is drawn, so every tail length *)
    array_size (return n) (frequency [ (9, int_range 1 9); (1, return 1500) ]) >>= fun sizes ->
    (* a quarter are leaves: pushed and popped like any object, never
       scanned, so their fields' pointers must not mark *)
    array_size (return n) (frequency [ (3, return false); (1, return true) ]) >>= fun leaves ->
    list_size (int_bound (2 * n))
      ( int_bound (n - 1) >>= fun src ->
        field_gen sizes.(src) >>= fun field ->
        int_bound (n - 1) >>= fun dst -> return (src, field, dst) )
    >>= fun edges ->
    (* sometimes every object is a root: one root-range scan then pushes
       up to 30 objects before it drains, overflowing a 16-entry stack *)
    frequency
      [
        (3, list_size (int_bound (max 1 (n / 2))) (int_bound (n - 1)));
        (1, return (List.init n Fun.id));
      ]
    >>= fun roots ->
    list_size (int_bound 48) junk_value_gen >>= fun junk ->
    string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 160) >>= fun bytes ->
    oneofl [ 1; 2; 4 ] >>= fun alignment ->
    bool >>= fun interior ->
    bool >>= fun first_page_only ->
    oneofl [ []; [ 4 ]; [ 8 ]; [ 4; 12 ]; [ 8; 16; 24 ] ] >>= fun disps ->
    oneofl [ None; Some 16; Some 64 ] >>= fun limit ->
    bool >>= fun hashed ->
    bool >>= fun big_endian ->
    return
      {
        s_sizes = sizes;
        s_leaves = leaves;
        s_edges = edges;
        s_roots = roots;
        s_junk = junk;
        s_bytes = bytes;
        s_alignment = alignment;
        s_interior = interior;
        s_first_page_only = first_page_only;
        s_disps = disps;
        s_limit = limit;
        s_hashed = hashed;
        s_big_endian = big_endian;
      })

(* Objects of [words] words whose even words are pointers. *)
let even_words words =
  Cgc.Type_desc.make ~name:"even-words" ~size_bytes:(4 * words)
    ~pointer_offsets:(List.init ((words + 1) / 2) (fun k -> 8 * k))

(* [typed]: every other object is allocated on a typed page, whose
   odd words the marker never reads; the leaves among the others are
   pointer-free. *)
let build ?(typed = false) s =
  let mem =
    Mem.create ~endian:(if s.s_big_endian then Endian.Big else Endian.Little) ()
  in
  let data =
    Mem.map mem ~name:"roots" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000
  in
  let config =
    {
      Config.default with
      Config.alignment = s.s_alignment;
      interior_pointers = s.s_interior;
      large_validity = (if s.s_first_page_only then Config.First_page_only else Config.Anywhere);
      valid_displacements = s.s_disps;
      mark_stack_limit = s.s_limit;
      blacklist_buckets = (if s.s_hashed then Some 61 else None);
      initial_pages = 16;
    }
  in
  let gc = Gc.create ~config mem ~base:(Addr.of_int heap_base) ~max_bytes:heap_bytes () in
  Gc.set_auto_collect gc false;
  Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"roots";
  let objs =
    Array.mapi
      (fun i words ->
        if typed && i mod 2 = 0 then Gc.Internal.allocate_typed gc (even_words words)
        else Gc.allocate ~pointer_free:s.s_leaves.(i) gc (4 * words))
      s.s_sizes
  in
  List.iter (fun (src, f, dst) -> Gc.set_field gc objs.(src) f (Addr.to_int objs.(dst))) s.s_edges;
  List.iteri
    (fun i r ->
      Segment.write_word data (Addr.add (Segment.base data) (4 * i)) (Addr.to_int objs.(r)))
    s.s_roots;
  (* junk words after the root slots, raw bytes near the end: both are
     scanned as roots at the configured alignment *)
  List.iteri
    (fun i v -> Segment.write_word data (Addr.add (Segment.base data) (0x400 + (4 * i))) v)
    s.s_junk;
  Segment.blit_string data (Addr.add (Segment.base data) 0x800) s.s_bytes;
  gc

(* Everything the mark phase is allowed to touch, in comparable form. *)
let mark_state gc =
  let heap = Gc.heap gc in
  let marks = ref [] in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Small small ->
          let bits = List.rev (Bitset.fold (fun acc b -> b :: acc) [] small.Page.mark) in
          marks := (i, bits) :: !marks
      | Page.Large_head l -> marks := (i, [ (if l.Page.l_marked then 1 else 0) ]) :: !marks
      | Page.Free | Page.Uncommitted | Page.Large_tail _ -> ());
  let black = ref [] in
  Blacklist.iter (fun p -> black := p :: !black) (Gc.blacklist gc);
  let st = Gc.stats gc in
  ( List.rev !marks,
    List.rev !black,
    ( st.Stats.words_scanned,
      st.Stats.valid_refs,
      st.Stats.false_refs,
      st.Stats.objects_marked,
      st.Stats.mark_stack_overflows ),
    st.Stats.header_cache_hits )

let scenario_print s =
  Printf.sprintf
    "objects=%d leaves=%d edges=%d roots=%d junk=%d bytes=%d align=%d interior=%b \
     first_page_only=%b disps=[%s] limit=%s hashed=%b big=%b"
    (Array.length s.s_sizes)
    (Array.fold_left (fun n leaf -> if leaf then n + 1 else n) 0 s.s_leaves)
    (List.length s.s_edges) (List.length s.s_roots)
    (List.length s.s_junk) (String.length s.s_bytes) s.s_alignment s.s_interior
    s.s_first_page_only
    (String.concat ";" (List.map string_of_int s.s_disps))
    (match s.s_limit with None -> "none" | Some l -> string_of_int l)
    s.s_hashed s.s_big_endian

let scenario_arb = QCheck.make scenario_gen ~print:scenario_print

let fast_matches_reference s =
  let gc_fast = build s and gc_ref = build s in
  Gc.Internal.run_mark gc_fast;
  Cgc_oracle.Reference.run gc_ref;
  let first = mark_state gc_fast = mark_state gc_ref in
  (* a second cycle ages the blacklist (begin_cycle rotation) and
     re-marks from already-populated state *)
  Gc.Internal.run_mark gc_fast;
  Cgc_oracle.Reference.run gc_ref;
  first && mark_state gc_fast = mark_state gc_ref

let prop_fast_matches_reference =
  QCheck.Test.make ~count:300 ~name:"fast path == reference (marks, blacklist, stats)"
    scenario_arb fast_matches_reference

(* --- the header cache's miss path -------------------------------- *)

(* Scenarios whose references change page nearly every time.  Objects
   of 1-64 words (up to 64 size classes, a few objects each, and now and
   then a 1500-word large object) spread over dozens of pages in
   allocation order; a chain links them in a shuffled order, and the
   roots name a shuffled subset, so consecutive references land on
   unrelated pages.  Everything else — junk, raw bytes, alignment,
   interior pointers, displacements, stack limit, blacklist, byte order
   — is drawn as in [scenario_gen]. *)
let miss_scenario_gen =
  QCheck.Gen.(
    int_range 40 200 >>= fun n ->
    array_size (return n) (frequency [ (30, int_range 1 64); (1, return 1500) ]) >>= fun sizes ->
    array_size (return n) (frequency [ (5, return false); (1, return true) ]) >>= fun leaves ->
    shuffle_l (List.init n Fun.id) >>= fun order ->
    let links = List.combine (List.filteri (fun i _ -> i < n - 1) order) (List.tl order) in
    flatten_l
      (List.map (fun (src, dst) -> map (fun f -> (src, f, dst)) (field_gen sizes.(src))) links)
    >>= fun chain ->
    list_size (int_bound n)
      ( int_bound (n - 1) >>= fun src ->
        field_gen sizes.(src) >>= fun field ->
        int_bound (n - 1) >>= fun dst -> return (src, field, dst) )
    >>= fun extra ->
    shuffle_l (List.init n Fun.id) >>= fun picks ->
    int_range 1 (n / 2) >>= fun n_roots ->
    scenario_gen >>= fun base ->
    return
      {
        base with
        s_sizes = sizes;
        s_leaves = leaves;
        s_edges = chain @ extra;
        s_roots = List.hd order :: List.filteri (fun i _ -> i < n_roots) picks;
      })

let miss_scenario_arb = QCheck.make miss_scenario_gen ~print:scenario_print

let prop_miss_path_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"miss-heavy heaps: fast path == reference (marks, blacklist, stats, cache hits)"
    miss_scenario_arb fast_matches_reference

(* The group does exercise the miss path: over 100 drawn heaps, fewer
   than a third of the in-heap references hit the header cache. *)
let test_miss_scenarios_miss () =
  let rand = Random.State.make [| 31 |] in
  let hits = ref 0 and refs = ref 0 in
  for _ = 1 to 100 do
    let gc = build (QCheck.Gen.generate1 ~rand miss_scenario_gen) in
    Gc.Internal.run_mark gc;
    let st = Gc.stats gc in
    hits := !hits + st.Stats.header_cache_hits;
    refs := !refs + st.Stats.valid_refs + st.Stats.false_refs
  done;
  if 3 * !hits >= !refs then
    Alcotest.failf "%d header-cache hits over %d in-heap references" !hits !refs

(* Collections driven end-to-end by the fast path keep the heap sound:
   a full collect (mark + sweep) on the fast instance frees exactly what
   a collect on the reference-marked instance frees. *)
let prop_fast_collect_matches_reference_collect =
  QCheck.Test.make ~count:150 ~name:"sweep after fast mark == sweep after reference mark"
    scenario_arb
    (fun s ->
      let gc_fast = build s and gc_ref = build s in
      Gc.Internal.run_mark gc_fast;
      let sweep_fast = Gc.Internal.run_sweep gc_fast in
      Cgc_oracle.Reference.run gc_ref;
      let sweep_ref = Gc.Internal.run_sweep gc_ref in
      sweep_fast = sweep_ref
      && Cgc.Verify.check gc_fast = []
      && Cgc.Verify.check gc_ref = [])

(* One word agrees with the pure classifier: a collector whose only root
   is a one-value register source marks exactly the object [classify]
   names (and nothing for any other word), and blacklists the page of a
   false in-heap reference. *)
let prop_register_value_matches_classify =
  QCheck.Test.make ~count:200 ~name:"a one-value register root marks exactly what classify names"
    (QCheck.make
       QCheck.Gen.(pair scenario_gen (list_size (int_bound 32) junk_value_gen)))
    (fun (s, values) ->
      let gc = build s in
      let heap = Gc.heap gc and config = Gc.config gc and st = Gc.stats gc in
      let value = ref [||] in
      Gc.clear_roots gc;
      Gc.add_register_roots gc ~label:"value" (fun () -> !value);
      List.for_all
        (fun v ->
          value := [| v |];
          let marked0 = st.Stats.objects_marked in
          Gc.Internal.run_mark gc;
          let marked = st.Stats.objects_marked - marked0 in
          match Cgc.Mark.classify heap config v with
          | Cgc.Mark.Valid { base; _ } -> marked >= 1 && Gc.Internal.is_marked gc base
          | Cgc.Mark.False_in_heap { page } ->
              marked = 0 && Blacklist.is_black (Gc.blacklist gc) page
          | Cgc.Mark.Outside -> marked = 0)
        values)

(* [Mark.classify] — the validity rules over [Heap.find_object] — names
   what the view-based [Cgc_oracle.Reference.classify] names, [page]
   included, for every byte address of the committed heap and one word
   past either end, and for every junk word: across the scenario space
   (interior pointers on and off, registered displacements,
   [First_page_only], 1500-word objects whose runs have tails), on
   untyped and typed pages, before a collection and after it has freed
   slots and large runs. *)
let classify_matches_reference s =
  List.for_all
    (fun typed ->
      let gc = build ~typed s in
      let heap = Gc.heap gc and config = Gc.config gc in
      let agree v =
        Cgc.Mark.classify heap config v = Cgc_oracle.Reference.classify heap config v
      in
      let every_word () =
        let hi = Addr.to_int (Heap.page_addr heap (Heap.committed_pages heap)) + 4 in
        let rec from v = v > hi || (agree v && from (v + 1)) in
        from (heap_base - 4) && List.for_all agree s.s_junk
      in
      let before = every_word () in
      Gc.collect gc;
      before && every_word ())
    [ false; true ]

let prop_classify_matches_reference =
  QCheck.Test.make ~count:100 ~name:"classify == view-based reference classify (every word)"
    scenario_arb classify_matches_reference

(* gcbench's frozen probe calls [run_mark_parallel], now a serial stub.
   Across the scenario space, on untyped pages and with every other
   object on a typed page, and for jobs 1, 2 and 4, two stub marks
   leave what two [run_mark]s of a twin leave (marks, blacklist, every
   marking tally), each report [Tracer_removed] with one shard that
   holds that mark's counts, and the audit is clean. *)
let stub_matches_run_mark ~typed s =
  let gc_ser = build ~typed s in
  Gc.Internal.run_mark gc_ser;
  let ser1 = mark_state gc_ser in
  Gc.Internal.run_mark gc_ser;
  let ser2 = mark_state gc_ser in
  let tallies gc =
    let st = Gc.stats gc in
    (st.Stats.words_scanned, st.Stats.valid_refs, st.Stats.false_refs, st.Stats.objects_marked)
  in
  let stub_mark gc ~jobs =
    let w0, v0, f0, o0 = tallies gc in
    let o = Gc.Internal.run_mark_parallel gc ~jobs in
    let w, v, f, om = tallies gc in
    o.Cgc.Mark.Parallel.fallback = Some Cgc.Mark.Parallel.Tracer_removed
    &&
    match o.Cgc.Mark.Parallel.shards with
    | [| sh |] ->
        sh.Stats.words_scanned = w - w0
        && sh.Stats.valid_refs = v - v0
        && sh.Stats.false_refs = f - f0
        && sh.Stats.objects_marked = om - o0
    | _ -> false
  in
  List.for_all
    (fun jobs ->
      let gc = build ~typed s in
      let ok1 = stub_mark gc ~jobs in
      let st1 = mark_state gc in
      let ok2 = stub_mark gc ~jobs in
      ok1 && ok2 && st1 = ser1 && mark_state gc = ser2
      && Cgc.Verify.check_parallel_mark gc = [])
    [ 1; 2; 4 ]

let prop_stub_matches_run_mark =
  QCheck.Test.make ~count:120 ~name:"run_mark_parallel stub == run_mark (jobs 1/2/4, typed pages)"
    scenario_arb
    (fun s -> List.for_all (fun typed -> stub_matches_run_mark ~typed s) [ false; true ])

(* Under an armed read-fault plan the stub runs the guarded scan as
   [run_mark] does: with identical plans on twins, marks, blacklist,
   the marking tallies and the downgraded reads agree, and the audit is
   clean. *)
let prop_stub_under_read_faults =
  QCheck.Test.make ~count:60 ~name:"run_mark_parallel stub == run_mark under a read-fault plan"
    scenario_arb
    (fun s ->
      let arm gc =
        Mem.set_fault_plan (Gc.mem gc)
          (Some (Mem.Fault.plan ~probability:(0.05, 7) ~target:Mem.Fault.Reads ()))
      in
      let state gc = (mark_state gc, (Gc.stats gc).Stats.mark_downgrades) in
      let gc_ser = build s in
      arm gc_ser;
      Gc.Internal.run_mark gc_ser;
      let gc_stub = build s in
      arm gc_stub;
      let o = Gc.Internal.run_mark_parallel gc_stub ~jobs:2 in
      o.Cgc.Mark.Parallel.fallback = Some Cgc.Mark.Parallel.Tracer_removed
      && state gc_stub = state gc_ser
      && Cgc.Verify.check_parallel_mark gc_stub = [])

(* --- the generational minor's young scope -------------------------- *)

module Generational = Cgc.Generational

(* An old graph aged until promoted, a young graph beside it, and two
   rounds of barriered stores into the old objects (round two allocates
   nothing and drops a young root). *)
type young_scenario = {
  y_promote_after : int;
  y_alignment : int;
  y_interior : bool;
  y_old_sizes : int array;
  y_old_edges : (int * int * int * int) list;  (* (src, field, dst, byte offset) *)
  y_old_roots : int list;
  y_young_sizes : int array;
  y_young_edges : (int * int * int * int) list;
  y_young_roots : int list;
  y_stores : (int * int * int * int) list;  (* (old src, field, young dst, byte offset) *)
  y_stores2 : (int * int * int * int) list;
  y_junk : int list;
}

let young_scenario_gen =
  QCheck.Gen.(
    let sizes =
      int_range 1 20 >>= fun n ->
      array_size (return n) (frequency [ (9, int_range 1 6); (1, return 1500) ])
    in
    let edges ~src ~dst =
      list_size (int_bound (2 * src))
        (quad (int_bound (src - 1)) (int_bound 3) (int_bound (dst - 1)) (oneofl [ 0; 0; 0; 2; 4 ]))
    in
    let roots n = list_size (int_range 1 (max 1 (n / 2))) (int_bound (n - 1)) in
    oneofl [ 1; 2 ] >>= fun promote_after ->
    oneofl [ 1; 2; 4 ] >>= fun alignment ->
    bool >>= fun interior ->
    sizes >>= fun old_sizes ->
    sizes >>= fun young_sizes ->
    let n_old = Array.length old_sizes and n_young = Array.length young_sizes in
    edges ~src:n_old ~dst:n_old >>= fun old_edges ->
    roots n_old >>= fun old_roots ->
    edges ~src:n_young ~dst:n_young >>= fun young_edges ->
    roots n_young >>= fun young_roots ->
    edges ~src:n_old ~dst:n_young >>= fun stores ->
    edges ~src:n_old ~dst:n_young >>= fun stores2 ->
    list_size (int_bound 24) junk_value_gen >>= fun junk ->
    return
      {
        y_promote_after = promote_after;
        y_alignment = alignment;
        y_interior = interior;
        y_old_sizes = old_sizes;
        y_old_edges = old_edges;
        y_old_roots = old_roots;
        y_young_sizes = young_sizes;
        y_young_edges = young_edges;
        y_young_roots = young_roots;
        y_stores = stores;
        y_stores2 = stores2;
        y_junk = junk;
      })

let young_scenario_print y =
  Printf.sprintf
    "promote_after=%d align=%d interior=%b old=%d old_edges=%d young=%d young_edges=%d \
     stores=%d+%d junk=%d"
    y.y_promote_after y.y_alignment y.y_interior (Array.length y.y_old_sizes)
    (List.length y.y_old_edges) (Array.length y.y_young_sizes) (List.length y.y_young_edges)
    (List.length y.y_stores) (List.length y.y_stores2) (List.length y.y_junk)

(* Every allocated object: [f ~page base bytes pointer_free]. *)
let iter_objects heap f =
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Small s ->
          let first = Addr.add (Heap.page_addr heap i) s.Page.first_offset in
          Bitset.iter_set s.Page.alloc (fun obj ->
              f ~page:i (Addr.add first (obj * s.Page.object_bytes)) s.Page.object_bytes
                (s.Page.layout = Page.Pointer_free))
      | Page.Large_head l ->
          if l.Page.l_allocated then
            f ~page:i (Heap.page_addr heap i) l.Page.object_bytes
              (l.Page.l_layout = Page.Pointer_free)
      | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ())

let iter_object_words gc base bytes f =
  Segment.iter_words (Heap.segment (Gc.heap gc)) ~alignment:(Gc.config gc).Config.alignment
    ~lo:base ~hi:(Addr.add base bytes) (fun _ v -> f v)

(* The young object a word names, if any. *)
let young_target gc gen v =
  match Cgc.Mark.classify (Gc.heap gc) (Gc.config gc) v with
  | Cgc.Mark.Valid { base; _ } when not (Generational.is_old gen base) -> Some base
  | Cgc.Mark.Valid _ | Cgc.Mark.False_in_heap _ | Cgc.Mark.Outside -> None

(* What a minor collection must keep: the young objects reachable from
   the roots and from the live objects of the dirty pages, through
   young objects only — old objects are opaque. *)
let young_closure gc gen roots =
  let seen = Hashtbl.create 64 in
  let rec visit v =
    match young_target gc gen v with
    | Some base when not (Hashtbl.mem seen base) ->
        Hashtbl.add seen base ();
        let bytes, layout = Heap.object_layout (Gc.heap gc) base in
        if layout <> Page.Pointer_free then iter_object_words gc base bytes visit
    | Some _ | None -> ()
  in
  Segment.iter_words roots ~alignment:(Gc.config gc).Config.alignment ~lo:(Segment.base roots)
    ~hi:(Segment.limit roots) (fun _ v -> visit v);
  let dirty = Generational.dirty_pages gen in
  iter_objects (Gc.heap gc) (fun ~page base bytes pointer_free ->
      if List.mem page dirty && not pointer_free then iter_object_words gc base bytes visit);
  List.sort compare (Hashtbl.fold (fun base () acc -> base :: acc) seen [])

(* One minor collection against the three young-scope claims: the young
   survivors are exactly the young closure (a superset of it under a
   bounded mark stack, whose overflow recovery also rescans the
   pre-marked old objects); the minor's [objects_marked] delta counts
   the young objects it marked; and every old page with a word naming
   a young object afterwards is dirty. *)
let minor_keeps_young_scope gc gen roots ~bounded =
  let heap = Gc.heap gc in
  let young = ref [] in
  iter_objects heap (fun ~page:_ base _ _ ->
      if not (Generational.is_old gen base) then young := base :: !young);
  let closure = young_closure gc gen roots in
  let st = Gc.stats gc in
  let marked0 = st.Stats.objects_marked in
  Generational.minor gen;
  let survivors = List.sort compare (List.filter (Gc.is_allocated gc) !young) in
  let closure_ok =
    if bounded then List.for_all (fun b -> List.mem b survivors) closure else survivors = closure
  in
  let count_ok = st.Stats.objects_marked - marked0 = List.length survivors in
  let dirty = Generational.dirty_pages gen in
  let dirty_ok = ref true in
  iter_objects heap (fun ~page base bytes pointer_free ->
      if Generational.is_old gen base && not pointer_free then
        iter_object_words gc base bytes (fun v ->
            if young_target gc gen v <> None && not (List.mem page dirty) then dirty_ok := false));
  closure_ok && count_ok && !dirty_ok

let young_scope_run y ~limit =
  let mem = Mem.create () in
  let roots =
    Mem.map mem ~name:"roots" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000
  in
  let config =
    {
      Config.default with
      Config.alignment = y.y_alignment;
      interior_pointers = y.y_interior;
      mark_stack_limit = limit;
      initial_pages = 16;
    }
  in
  let gc = Gc.create ~config mem ~base:(Addr.of_int heap_base) ~max_bytes:heap_bytes () in
  Gc.set_auto_collect gc false;
  Gc.add_static_root gc ~lo:(Segment.base roots) ~hi:(Segment.limit roots) ~label:"roots";
  let gen = Generational.create ~promote_after:y.y_promote_after gc in
  let slot i v = Segment.write_word roots (Addr.add (Segment.base roots) (4 * i)) v in
  let allocate sizes = Array.map (fun words -> Generational.allocate gen (4 * words)) sizes in
  let link objs sizes dsts (src, field, dst, off) =
    if field < sizes.(src) then Gc.set_field gc objs.(src) field (Addr.to_int dsts.(dst) + off)
  in
  (* the old generation: allocated, rooted and aged until promoted *)
  let old = allocate y.y_old_sizes in
  List.iter (link old y.y_old_sizes old) y.y_old_edges;
  List.iteri (fun i r -> slot i (Addr.to_int old.(r))) y.y_old_roots;
  List.iteri (fun i v -> slot (512 + i) v) y.y_junk;
  for _ = 1 to y.y_promote_after do
    Generational.minor gen
  done;
  let young = allocate y.y_young_sizes in
  List.iter (link young y.y_young_sizes young) y.y_young_edges;
  List.iteri (fun i r -> slot (256 + i) (Addr.to_int young.(r))) y.y_young_roots;
  (* barriered stores into the surviving old objects *)
  let store (src, field, dst, off) =
    let o = old.(src) in
    if Gc.is_allocated gc o && Generational.is_old gen o && field < y.y_old_sizes.(src) then
      Generational.set_field gen o field (Addr.to_int young.(dst) + off)
  in
  List.iter store y.y_stores;
  let bounded = limit <> None in
  let first = minor_keeps_young_scope gc gen roots ~bounded in
  List.iter store y.y_stores2;
  slot 256 0;
  first && minor_keeps_young_scope gc gen roots ~bounded

let prop_minor_keeps_young_scope =
  QCheck.Test.make ~count:200
    ~name:"minor on the trace kernel == young closure (count, dirty audit, stack limit)"
    (QCheck.make young_scenario_gen ~print:young_scenario_print)
    (fun y -> young_scope_run y ~limit:None && young_scope_run y ~limit:(Some 16))

(* The heap's last object: a full four-page heap whose top page is a
   small page of pointer-bearing 16-byte cells, or whose top three pages
   are one pointer-bearing large object, so the last object scanned ends
   exactly at [Heap.limit_reserved] — the edge of the fast path's
   per-object bounds check.  The top object's last word is the only
   reference to a sentinel cell, and its other words hold values at and
   around the heap's edges.  Fast path == reference at alignments 1/2/4
   in both byte orders, and the sentinel is marked. *)
let heap_top_case ~large ~alignment ~big_endian () =
  let page = 4096 in
  let build () =
    let mem = Mem.create ~endian:(if big_endian then Endian.Big else Endian.Little) () in
    let data =
      Mem.map mem ~name:"roots" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x100
    in
    let config = { Config.default with Config.alignment; initial_pages = 4 } in
    let gc = Gc.create ~config mem ~base:(Addr.of_int heap_base) ~max_bytes:(4 * page) () in
    Gc.set_auto_collect gc false;
    Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"roots";
    let limit = Addr.to_int (Heap.limit_reserved (Gc.heap gc)) in
    let edge_values = [ limit - 1; limit - 4; limit; heap_base; heap_base + page - 2 ] in
    let cells = Array.init (if large then 3 else 1024) (fun _ -> Gc.allocate gc 16) in
    let top =
      if large then Gc.allocate gc (3 * page)
      else Array.fold_left (fun a c -> if Addr.to_int c > Addr.to_int a then c else a) cells.(0) cells
    in
    let words = if large then 3 * page / 4 else 4 in
    if Addr.to_int top + (4 * words) <> limit then
      Alcotest.failf "top object at 0x%x does not end at the heap limit" (Addr.to_int top);
    (* a chain from the root through every other cell ends at the top
       object, whose last word alone reaches the sentinel *)
    let others = List.filter (fun c -> c != top) (Array.to_list cells) in
    let sentinel = List.nth others (List.length others - 1) in
    let chain = Array.of_list (List.filter (fun c -> c != sentinel) others) in
    Array.iteri
      (fun i c ->
        Gc.set_field gc c 0 (Addr.to_int (if i + 1 < Array.length chain then chain.(i + 1) else top)))
      chain;
    List.iteri (fun i v -> if i < words - 1 then Gc.set_field gc top i v) edge_values;
    Gc.set_field gc top (words - 1) (Addr.to_int sentinel);
    Segment.write_word data (Segment.base data) (Addr.to_int chain.(0));
    (gc, sentinel)
  in
  let gc_fast, sentinel = build () and gc_ref, _ = build () in
  Gc.Internal.run_mark gc_fast;
  Cgc_oracle.Reference.run gc_ref;
  Alcotest.(check bool) "fast path == reference" true (mark_state gc_fast = mark_state gc_ref);
  Alcotest.(check bool) "the top object's last word was scanned" true
    (Gc.Internal.is_marked gc_fast sentinel)

let heap_top_cases =
  List.concat_map
    (fun large ->
      List.concat_map
        (fun alignment ->
          List.map
            (fun big_endian ->
              Alcotest.test_case
                (Printf.sprintf "%s object at the heap top, align %d, %s-endian"
                   (if large then "large" else "small")
                   alignment
                   (if big_endian then "big" else "little"))
                `Quick
                (heap_top_case ~large ~alignment ~big_endian))
            [ false; true ])
        [ 1; 2; 4 ])
    [ false; true ]

(* Word order inside a block: the scan visits an object's words in
   address order, which decides which of two pushes a full stack drops.
   Fifteen pointer-free leaves and a 5-word object R are the roots, so
   the 16-entry stack is full when R's scan begins; R names A at word i
   and B at word i + 1 and holds zeros elsewhere.  A push of the second
   overflows: A dropped means its child C is found only by the rescan,
   so the tallies differ with the order.  For i = 0..3 (inside the
   four-word block, and across into the tail word) the fast path equals
   the reference, and the reference itself tells the two orders apart,
   in both byte orders at alignments 1/2/4. *)
let block_order_case ~alignment ~big_endian () =
  let build i ~swap =
    let mem = Mem.create ~endian:(if big_endian then Endian.Big else Endian.Little) () in
    let data =
      Mem.map mem ~name:"roots" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x100
    in
    let config =
      { Config.default with Config.alignment; mark_stack_limit = Some 16; initial_pages = 4 }
    in
    let gc = Gc.create ~config mem ~base:(Addr.of_int heap_base) ~max_bytes:(16 * 4096) () in
    Gc.set_auto_collect gc false;
    Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"roots";
    let root k a = Segment.write_word data (Addr.add (Segment.base data) (4 * k)) (Addr.to_int a) in
    for k = 0 to 14 do
      root k (Gc.allocate ~pointer_free:true gc 4)
    done;
    let r = Gc.allocate gc 20 and a = Gc.allocate gc 8 and b = Gc.allocate ~pointer_free:true gc 8 in
    Gc.set_field gc a 0 (Addr.to_int (Gc.allocate gc 8));
    let first, second = if swap then (b, a) else (a, b) in
    Gc.set_field gc r i (Addr.to_int first);
    Gc.set_field gc r (i + 1) (Addr.to_int second);
    root 15 r;
    gc
  in
  for i = 0 to 3 do
    let gc_fast = build i ~swap:false and gc_ref = build i ~swap:false in
    let gc_swapped = build i ~swap:true in
    Gc.Internal.run_mark gc_fast;
    Cgc_oracle.Reference.run gc_ref;
    Cgc_oracle.Reference.run gc_swapped;
    let ((_, _, (_, _, _, _, overflows), _) as expected) = mark_state gc_ref in
    Alcotest.(check int) (Printf.sprintf "words %d, %d: the stack overflowed" i (i + 1)) 1 overflows;
    Alcotest.(check bool) (Printf.sprintf "words %d, %d: the order shows" i (i + 1)) false
      (expected = mark_state gc_swapped);
    Alcotest.(check bool) (Printf.sprintf "words %d, %d: fast path == reference" i (i + 1)) true
      (mark_state gc_fast = expected)
  done

let block_order_cases =
  List.concat_map
    (fun alignment ->
      List.map
        (fun big_endian ->
          Alcotest.test_case
            (Printf.sprintf "block words in address order, align %d, %s-endian" alignment
               (if big_endian then "big" else "little"))
            `Quick
            (block_order_case ~alignment ~big_endian))
        [ false; true ])
    [ 1; 2; 4 ]

(* --- the word-wide sweep against the per-object reference sweep --- *)

(* A page table drawn from one seed: small pages of 16, 48, 64 or 8 B
   objects from offset 0 or 8, whose 63 to 512 objects always leave a
   partial last bitmap word, with empty, full, sparse, dense or
   bit-61-heavy alloc bitmaps and independent mark bitmaps; free pages;
   and large objects live, dead or unallocated.  Some pages are kept
   live.  With [finalizers], a third of the allocated
   objects (and a few free slots and non-object addresses) are
   registered. *)
let sweep_page_size = 4096

type sweep_world = {
  w_heap : Heap.t;
  w_finalize : Cgc.Finalize.t;
  w_stats : Stats.t;
  w_keep : bool array;
}

let build_sweep_world seed ~finalizers =
  let rng = Random.State.make [| seed |] in
  let n_pages = 4 + Random.State.int rng 24 in
  let config = { Config.default with Config.initial_pages = n_pages } in
  let heap =
    Heap.create (Mem.create ()) ~config ~base:(Addr.of_int heap_base)
      ~max_bytes:(n_pages * sweep_page_size)
  in
  let finalize = Cgc.Finalize.create () in
  let watch a =
    if finalizers && Random.State.int rng 3 = 0 then
      Cgc.Finalize.register finalize (Addr.of_int a) ~token:(Printf.sprintf "%#x" a)
  in
  let bits n mode =
    let b = Bitset.create n in
    for i = 0 to n - 1 do
      let on =
        match mode with
        | 0 -> false
        | 1 -> true
        | 2 -> Random.State.int rng 8 = 0
        | 3 -> Random.State.int rng 8 <> 0
        | _ -> i mod 62 = 61 || Random.State.bool rng
      in
      if on then Bitset.add b i
    done;
    b
  in
  let i = ref 0 in
  while !i < n_pages do
    let page_addr = Addr.to_int (Heap.page_addr heap !i) in
    let choice = Random.State.int rng 10 in
    if choice < 7 then begin
      let object_bytes = [| 16; 48; 64; 8 |].(Random.State.int rng 4) in
      let first_offset = if Random.State.bool rng then 0 else 8 in
      let n_objects = (sweep_page_size - first_offset) / object_bytes in
      let page =
        Page.make_small ~object_bytes ~layout:Page.Conservative
          ~first_offset ~n_objects
      in
      (match page with
      | Page.Small sp ->
          Bitset.union_into ~dst:sp.Page.alloc (bits n_objects (Random.State.int rng 5));
          Bitset.union_into ~dst:sp.Page.mark (bits n_objects (Random.State.int rng 5));
          for obj = 0 to n_objects - 1 do
            let a = page_addr + first_offset + (obj * object_bytes) in
            if Bitset.mem sp.Page.alloc obj || obj mod 17 = 0 then watch a;
            if obj mod 29 = 0 then watch (a + 4)
          done
      | _ -> assert false);
      Heap.set_page heap !i page;
      incr i
    end
    else if choice < 9 && !i + 1 < n_pages then begin
      let pages = 2 + Random.State.int rng (min 3 (n_pages - !i - 1)) in
      let page =
        Page.make_large ~n_pages:pages ~object_bytes:((pages * sweep_page_size) - 12)
          ~layout:Page.Conservative
      in
      (match page with
      | Page.Large_head l ->
          l.Page.l_allocated <- Random.State.int rng 4 <> 0;
          l.Page.l_marked <- Random.State.bool rng
      | _ -> assert false);
      watch page_addr;
      Heap.set_page heap !i page;
      for j = !i + 1 to !i + pages - 1 do
        Heap.set_page heap j (Page.Large_tail { head_index = !i })
      done;
      i := !i + pages
    end
    else begin
      Heap.set_page heap !i Page.Free;
      incr i
    end
  done;
  let keep = Array.init n_pages (fun _ -> Random.State.int rng 6 = 0) in
  { w_heap = heap; w_finalize = finalize; w_stats = Stats.create (); w_keep = keep }

(* Everything a sweep may touch, in comparable form. *)
let sweep_state w (r : Cgc.Sweep.result) =
  let pages =
    List.init (Heap.committed_pages w.w_heap) (fun i ->
        match Heap.page w.w_heap i with
        | Page.Small sp ->
            `Small (Format.asprintf "%a" Bitset.pp sp.Page.alloc, Bitset.count sp.Page.mark)
        | Page.Large_head l -> `Large (l.Page.l_allocated, l.Page.l_marked)
        | Page.Free -> `Free
        | Page.Uncommitted -> `Uncommitted
        | Page.Large_tail { head_index } -> `Tail head_index)
  in
  let st = w.w_stats in
  ( r,
    pages,
    Array.copy (Heap.desc w.w_heap).Heap.d_rows,
    (st.Stats.objects_freed, st.Stats.bytes_freed, st.Stats.live_objects, st.Stats.live_bytes),
    Cgc.Finalize.drain w.w_finalize,
    Cgc.Finalize.registered_count w.w_finalize )

let prop_sweep_matches_reference =
  QCheck.Test.make ~count:300 ~name:"word-wide sweep == per-object reference sweep"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      List.for_all
        (fun finalizers ->
          let fast = build_sweep_world seed ~finalizers
          and slow = build_sweep_world seed ~finalizers in
          let r_fast =
            Cgc.Sweep.run ~keep_live:(Array.get fast.w_keep) fast.w_heap fast.w_finalize
              fast.w_stats
          in
          let r_slow =
            Cgc_oracle.Sweep_reference.run ~keep_live:(Array.get slow.w_keep) slow.w_heap
              slow.w_finalize slow.w_stats
          in
          let s_fast = sweep_state fast r_fast and s_slow = sweep_state slow r_slow in
          if s_fast <> s_slow then
            QCheck.Test.fail_reportf "finalizers=%b: sweep state differs from the reference"
              finalizers;
          (* every swept page's marks are cleared *)
          List.for_all
            (fun i ->
              fast.w_keep.(i)
              ||
              match Heap.page fast.w_heap i with
              | Page.Small sp -> Bitset.is_empty sp.Page.mark
              | _ -> true)
            (List.init (Heap.committed_pages fast.w_heap) Fun.id))
        [ false; true ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fast_matches_reference;
      prop_fast_collect_matches_reference_collect;
      prop_register_value_matches_classify;
      prop_classify_matches_reference;
      prop_stub_matches_run_mark;
      prop_stub_under_read_faults;
      prop_minor_keeps_young_scope;
      prop_sweep_matches_reference;
    ]

let () =
  Alcotest.run "mark-diff"
    [
      ("differential", suite);
      ( "miss-path",
        [
          QCheck_alcotest.to_alcotest prop_miss_path_matches_reference;
          Alcotest.test_case "drawn heaps mostly miss the header cache" `Quick
            test_miss_scenarios_miss;
        ] );
      ("heap-top", heap_top_cases);
      ("block-order", block_order_cases);
    ]
