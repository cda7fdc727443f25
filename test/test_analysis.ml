(* Unit tests for the static retention analyzer: liveness dataflow on
   handcrafted IR programs, the conservative-marker model's spurious
   root classification, each lint rule on a minimal trigger, and
   cross-validation against live recorded runs of the cheap bundled
   scenarios. *)

module An = Cgc_analysis
module Ir = An.Ir
module ISet = An.Liveness.ISet

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mk ?(n_registers = 8) ?(stack_words = 64) ?(globals_words = 8) code =
  { Ir.n_registers; stack_words; globals_words; interior_pointers = true; code = Array.of_list code }

let handle id base = { Ir.raw = base; obj = Some id }
let alloc id base bytes = Ir.Alloc { obj = id; base; bytes; pointer_free = false }
let gc = Ir.Gc_point { measured = None }
let push = Ir.Frame_push { slots = 4; padding = 2; cleared = false }
let pop = Ir.Frame_pop { slots = 4; padding = 2; cleared = false }

(* --- liveness --- *)

let test_register_liveness () =
  (* r0 is live at the first GC (read afterwards), dead at the second
     (overwritten without a read) *)
  let p =
    mk
      [
        alloc 0 0x1000 8;
        Ir.Reg_write { reg = 0; value = handle 0 0x1000 };
        gc;
        Ir.Reg_read { reg = 0 };
        Ir.Reg_write { reg = 0; value = Ir.vint 7 };
        gc;
      ]
  in
  let lv = An.Liveness.analyze p in
  check int "two GC points" 2 (An.Liveness.n_gc_points lv);
  check bool "r0 live at gc0" true (ISet.mem 0 (An.Liveness.at_gc lv 0).An.Liveness.live_regs);
  check bool "r0 dead at gc1" false (ISet.mem 0 (An.Liveness.at_gc lv 1).An.Liveness.live_regs)

let test_frame_push_kills () =
  (* a later activation's uninitialized read of word [w] must not make
     [w] live across the intervening frame push: the push begins a new
     lifetime for the words it covers *)
  let w = 64 - 6 in
  (* first slot word of a 4+2 frame pushed from an empty stack *)
  let p =
    mk
      [
        alloc 0 0x1000 8;
        push;
        Ir.Local_write { word = w; value = handle 0 0x1000 };
        Ir.Local_read { word = w };
        pop;
        gc;
        push;
        Ir.Local_read { word = w };
        pop;
      ]
  in
  let lv = An.Liveness.analyze p in
  check bool "liveness does not leak past the push" false
    (ISet.mem w (An.Liveness.at_gc lv 0).An.Liveness.live_stack)

let test_used_objects () =
  (* an object accessed after a GC point is used there; one allocated
     after the point is not *)
  let p =
    mk
      [
        alloc 0 0x1000 8;
        gc;
        Ir.Heap_read { obj = 0; field = 0 };
        alloc 1 0x1040 8;
        Ir.Heap_write { obj = 1; field = 0; value = Ir.vint 3 };
      ]
  in
  let lv = An.Liveness.analyze p in
  let u = (An.Liveness.at_gc lv 0).An.Liveness.used_objects in
  check bool "accessed object used" true (ISet.mem 0 u);
  check bool "later allocation not used" false (ISet.mem 1 u)

(* --- the conservative-marker model --- *)

let snapshots p = (An.Analysis.run p).An.Analysis.retention.An.Apparent.snapshots

let classes_at (s : An.Apparent.gc_snapshot) =
  List.map (fun (r : An.Apparent.spurious_root) -> r.An.Apparent.sr_class) s.An.Apparent.spurious

let test_stale_slot_retains () =
  (* handle parked in a frame local, frame popped, fresh uncleared
     frame re-exposes it: apparent keeps the object, precise does not,
     and the root is classified as a stale slot *)
  let w = 64 - 6 in
  let p =
    mk
      [
        alloc 0 0x1000 8;
        push;
        Ir.Local_write { word = w; value = handle 0 0x1000 };
        Ir.Local_read { word = w };
        pop;
        push;
        gc;
        pop;
      ]
  in
  match snapshots p with
  | [ s ] ->
      check int "apparently live" 1 (ISet.cardinal s.An.Apparent.apparent);
      check int "precisely live" 0 (ISet.cardinal s.An.Apparent.precise);
      check bool "classified stale" true (List.mem An.Apparent.Stale_slot (classes_at s))
  | l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l)

let test_cleared_frame_drops_stale () =
  let w = 64 - 6 in
  let p =
    mk
      [
        alloc 0 0x1000 8;
        push;
        Ir.Local_write { word = w; value = handle 0 0x1000 };
        Ir.Local_read { word = w };
        pop;
        Ir.Frame_push { slots = 4; padding = 2; cleared = true };
        gc;
      ]
  in
  match snapshots p with
  | [ s ] -> check int "cleared frame retains nothing" 0 (ISet.cardinal s.An.Apparent.apparent)
  | l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l)

let test_model_sweep_frees () =
  (* once nothing apparent points at the object, a GC frees it in the
     model; a stale semantic handle stored later must not resurrect it *)
  let p =
    mk
      [
        alloc 0 0x1000 8;
        Ir.Reg_write { reg = 0; value = handle 0 0x1000 };
        Ir.Reg_write { reg = 0; value = Ir.vint 0 };
        gc;
        Ir.Root_write { word = 0; value = handle 0 0x1000 };
        Ir.Root_read { word = 0 };
        gc;
      ]
  in
  match snapshots p with
  | [ a; b ] ->
      check int "freed at first gc" 0 (ISet.cardinal a.An.Apparent.apparent);
      check int "not resurrected (apparent)" 0 (ISet.cardinal b.An.Apparent.apparent);
      check int "not resurrected (precise)" 0 (ISet.cardinal b.An.Apparent.precise)
  | l -> Alcotest.failf "expected 2 snapshots, got %d" (List.length l)

let test_interior_pointer_resolution () =
  (* an interior raw value pins the object under interior_pointers and
     does not when the program says base-only *)
  let code =
    [
      alloc 0 0x1000 16;
      Ir.Reg_write { reg = 0; value = Ir.vint 0x1008 };
      Ir.Reg_read { reg = 0 };
      gc;
    ]
  in
  let interior = mk code in
  let base_only = { (mk code) with Ir.interior_pointers = false } in
  (match snapshots interior with
  | [ s ] -> check int "interior pins" 1 (ISet.cardinal s.An.Apparent.apparent)
  | _ -> Alcotest.fail "expected 1 snapshot");
  match snapshots base_only with
  | [ s ] -> check int "base-only does not" 0 (ISet.cardinal s.An.Apparent.apparent)
  | _ -> Alcotest.fail "expected 1 snapshot"

(* --- lint rules on minimal triggers --- *)

let has p rule = An.Analysis.has_finding (An.Analysis.run p) rule

let test_r3_atomic_advice () =
  (* many scanned objects that never hold a pointer: advise atomic *)
  let n = 10 in
  let code = ref [] in
  for i = 0 to n - 1 do
    code := Ir.Root_write { word = 0; value = handle i (0x1000 + (i * 1024)) } :: alloc i (0x1000 + (i * 1024)) 512 :: !code
  done;
  code := gc :: !code;
  let p = mk (List.rev !code) in
  check bool "R3 fires" true (has p "R3");
  (* same shape but the objects link to each other: no R3 *)
  let code = ref [] in
  for i = 0 to n - 1 do
    code := alloc i (0x1000 + (i * 1024)) 512 :: !code;
    if i > 0 then
      code := Ir.Heap_write { obj = i; field = 0; value = handle (i - 1) (0x1000 + ((i - 1) * 1024)) } :: !code
  done;
  code := gc :: !code;
  check bool "R3 silent when pointers stored" false (has (mk (List.rev !code)) "R3")

let test_r4_large_object () =
  let p = mk [ Ir.Alloc { obj = 0; base = 0x10000; bytes = 128 * 1024; pointer_free = false }; gc ] in
  check bool "R4 fires on large scanned" true (has p "R4");
  let atomic =
    mk [ Ir.Alloc { obj = 0; base = 0x10000; bytes = 128 * 1024; pointer_free = true }; gc ]
  in
  check bool "R4 silent on atomic" false (has atomic "R4");
  let base_only =
    { (mk [ Ir.Alloc { obj = 0; base = 0x10000; bytes = 128 * 1024; pointer_free = false }; gc ]) with
      Ir.interior_pointers = false
    }
  in
  check bool "R4 silent without interior pointers" false (has base_only "R4")

let test_r5_minimal () =
  (* ten objects held only by a popped frame's locals, never cleared *)
  let n = 10 in
  let bigpush = Ir.Frame_push { slots = 12; padding = 2; cleared = false } in
  let bigpop = Ir.Frame_pop { slots = 12; padding = 2; cleared = false } in
  (* frame pushed from an empty stack: slot words 50..61 *)
  let code = ref [ bigpush ] in
  for i = 0 to n - 1 do
    let base = 0x1000 + (i * 64) in
    code :=
      Ir.Local_read { word = 50 + i }
      :: Ir.Local_write { word = 50 + i; value = handle i base }
      :: alloc i base 8 :: !code
  done;
  code := gc :: bigpush :: bigpop :: !code;
  let p = mk (List.rev !code) in
  check bool "R5 fires" true (has p "R5");
  (* identical program with cleared frames is mitigated *)
  let cleared =
    {
      p with
      Ir.code =
        Array.map
          (function
            | Ir.Frame_push { slots; padding; _ } -> Ir.Frame_push { slots; padding; cleared = true }
            | i -> i)
          p.Ir.code;
    }
  in
  check bool "R5 mitigated by clearing" false (has cleared "R5")

(* --- access-graph shape domain --- *)

let test_shape_dead_link () =
  (* a precise-dead head, still conservatively reachable through a
     stale frame slot, links into a precise-live tail: the access graph
     must keep that concrete edge (it is the fix generator's edit site) *)
  let w = 64 - 6 in
  let p =
    mk
      [
        alloc 0 0x1000 8;
        alloc 1 0x1040 8;
        Ir.Heap_write { obj = 0; field = 0; value = handle 1 0x1040 };
        Ir.Root_write { word = 0; value = handle 1 0x1040 };
        push;
        Ir.Local_write { word = w; value = handle 0 0x1000 };
        Ir.Local_read { word = w };
        pop;
        push;
        gc;
        pop;
        Ir.Root_read { word = 0 };
      ]
  in
  let t = An.Analysis.run p in
  match An.Shape.worst t.An.Analysis.shape with
  | None -> Alcotest.fail "no shape graph"
  | Some g ->
      check int "one dead link" 1 (List.length g.An.Shape.sh_dead_links);
      let l = List.hd g.An.Shape.sh_dead_links in
      check int "source is the dead head" 0 l.An.Shape.l_src;
      check int "link is field 0" 0 l.An.Shape.l_field;
      check int "destination is the tail" 1 l.An.Shape.l_dst;
      check bool "destination is precise-live" true l.An.Shape.l_dst_live

let test_shape_self_linked () =
  (* a chain of same-shaped cells linking through field 0 shows up as a
     self-linked group — R1's path-sensitive evidence *)
  let n = 4 in
  let code = ref [] in
  for i = 0 to n - 1 do
    code := alloc i (0x1000 + (i * 64)) 8 :: !code;
    if i > 0 then
      code := Ir.Heap_write { obj = i; field = 0; value = handle (i - 1) (0x1000 + ((i - 1) * 64)) } :: !code
  done;
  code := Ir.Root_read { word = 0 } :: gc :: Ir.Root_write { word = 0; value = handle (n - 1) (0x1000 + ((n - 1) * 64)) } :: !code;
  let t = An.Analysis.run (mk (List.rev !code)) in
  let groups = An.Shape.self_linked t.An.Analysis.shape in
  match List.assoc_opt (8, false) groups with
  | Some fields -> check bool "links through field 0" true (List.mem 0 fields)
  | None -> Alcotest.fail "chain group not self-linked"

(* --- cross-validation against live recorded runs --- *)

let outcome name =
  match An.Scenarios.run name with
  | Some o -> o
  | None -> Alcotest.failf "unknown scenario %s" name

let assert_valid (o : An.Scenarios.outcome) =
  let v = An.Analysis.validate o.An.Scenarios.o_analysis in
  check bool (o.An.Scenarios.o_name ^ ": sound") true v.An.Analysis.sound;
  check bool (o.An.Scenarios.o_name ^ ": within tolerance") true v.An.Analysis.within_tolerance

(* The dead-feeding set each snapshot carries, against its definition:
   the least set of precise-dead objects with an edge into the precise
   set or into the set itself, recomputed here forward to a fixed point.
   The example names a member iff the set is nonempty, and the
   uncleared queue must exhibit the signature at some collection. *)
let test_dead_feeding_sets () =
  let expected (s : An.Apparent.gc_snapshot) =
    let dead = ISet.diff s.An.Apparent.apparent s.An.Apparent.precise in
    let rec grow f =
      let f' =
        List.fold_left
          (fun acc (src, _, dst) ->
            if ISet.mem src dead && (ISet.mem dst s.An.Apparent.precise || ISet.mem dst f) then
              ISet.add src acc
            else acc)
          f s.An.Apparent.edges
      in
      if ISet.equal f f' then f else grow f'
    in
    grow ISet.empty
  in
  List.iter
    (fun name ->
      let snaps =
        (outcome name).An.Scenarios.o_analysis.An.Analysis.retention.An.Apparent.snapshots
      in
      List.iter
        (fun (s : An.Apparent.gc_snapshot) ->
          let at fmt = Printf.sprintf ("%s gc %d: " ^^ fmt) name s.An.Apparent.ordinal in
          let f = s.An.Apparent.dead_feeding in
          check bool (at "set matches its definition") true (ISet.equal f (expected s));
          check bool (at "example is a member") true
            (match s.An.Apparent.dead_feeding_example with
            | None -> ISet.is_empty f
            | Some x -> ISet.mem x f))
        snaps;
      if name = "queue-no-clear" then
        check bool "uncleared queue feeds live data from dead objects" true
          (List.exists
             (fun (s : An.Apparent.gc_snapshot) -> not (ISet.is_empty s.An.Apparent.dead_feeding))
             snaps))
    [ "queue-no-clear"; "queue-clear" ]

let test_queue_scenarios () =
  let no_clear = outcome "queue-no-clear" in
  let clear = outcome "queue-clear" in
  assert_valid no_clear;
  assert_valid clear;
  check bool "uncleared queue flagged R2" true
    (An.Analysis.has_finding no_clear.An.Scenarios.o_analysis "R2");
  check bool "cleared queue not flagged" false
    (An.Analysis.has_finding clear.An.Scenarios.o_analysis "R2");
  check bool "model explains the retention gap" true
    (An.Analysis.max_excess no_clear.An.Scenarios.o_analysis
    > 10 * max 1 (An.Analysis.max_excess clear.An.Scenarios.o_analysis))

let test_grid_scenarios () =
  let embedded = outcome "grid-embedded" in
  let separate = outcome "grid-separate" in
  assert_valid embedded;
  assert_valid separate;
  check bool "embedded grid flagged R1" true
    (An.Analysis.has_finding embedded.An.Scenarios.o_analysis "R1");
  check bool "separate grid not flagged" false
    (An.Analysis.has_finding separate.An.Scenarios.o_analysis "R1")

let test_scenarios_back_to_back () =
  (* regression: scenarios share the machine/recorder plumbing, so a
     recorder left attached by one run would keep consuming events and
     poison the next recording's IR.  Running the same scenario twice
     must give identical programs. *)
  let a = outcome "grid-embedded" in
  let b = outcome "grid-embedded" in
  assert_valid a;
  assert_valid b;
  let r o = o.An.Scenarios.o_analysis.An.Analysis.retention in
  check int "same object count on re-run" (r a).An.Apparent.n_objects (r b).An.Apparent.n_objects;
  check int "same gc point count on re-run"
    (List.length (r a).An.Apparent.snapshots)
    (List.length (r b).An.Apparent.snapshots);
  check bool "finding reproduced" true (An.Analysis.has_finding b.An.Scenarios.o_analysis "R1")

(* --- verified fix suggestions --- *)

let assert_fix_verified name rule =
  let o = outcome name in
  match An.Analysis.fix_for o.An.Scenarios.o_analysis rule with
  | None -> Alcotest.failf "%s: no %s finding with a suggestion" name rule
  | Some f ->
      let s =
        match f.An.Analysis.suggestion with
        | Some s -> s
        | None -> Alcotest.failf "%s: %s fix carries no suggestion" name rule
      in
      (match f.An.Analysis.verdict with
      | Some v -> check bool (name ^ ": static verdict sound") true (An.Fixes.sound v)
      | None -> Alcotest.failf "%s: %s fix carries no verdict" name rule);
      let c =
        An.Replay.compare_fix o.An.Scenarios.o_analysis.An.Analysis.program s.An.Fixes.fx_edits
      in
      check bool (name ^ ": replay preserves reads") true c.An.Replay.cmp_reads_equal;
      check bool (name ^ ": replay drops retained bytes") true (c.An.Replay.cmp_retention_drop > 0)

let test_fix_r1_grid () = assert_fix_verified "grid-embedded" "R1"
let test_fix_r2_queue () = assert_fix_verified "queue-no-clear" "R2"
let test_fix_r5_reverse () = assert_fix_verified "list-reverse-careless" "R5"
let test_fix_r5_program_t () = assert_fix_verified "program-t-careless" "R5"

(* --- the starvation matrix --- *)

let test_starvation_matrix () =
  let entries = An.Scenarios.starvation_matrix () in
  check bool "at least 12 scenarios" true (List.length entries >= 12);
  List.iter
    (fun (e : An.Scenarios.matrix_entry) ->
      check bool
        (Printf.sprintf "%s: predicted %s = measured %s" e.An.Scenarios.m_name
           (An.Starvation.class_name e.An.Scenarios.m_predicted)
           (An.Starvation.class_name e.An.Scenarios.m_measured))
        true
        (e.An.Scenarios.m_predicted = e.An.Scenarios.m_measured))
    entries;
  check bool "a memory-decayed OOM is exercised" true
    (List.exists
       (fun (e : An.Scenarios.matrix_entry) ->
         match e.An.Scenarios.m_oom with
         | Some d -> d.Cgc.Gc.memory_decayed
         | None -> false)
       entries);
  List.iter
    (fun c ->
      check bool (An.Starvation.class_name c ^ " is exercised") true
        (List.exists
           (fun (e : An.Scenarios.matrix_entry) -> e.An.Scenarios.m_predicted = c)
           entries))
    [
      An.Starvation.Safe;
      An.Starvation.Ladder_rescuable;
      An.Starvation.Blacklist_starved;
      An.Starvation.Decay_vulnerable;
      An.Starvation.Exhausted;
    ]

let () =
  Alcotest.run "analysis"
    [
      ( "liveness",
        [
          Alcotest.test_case "register gen/kill" `Quick test_register_liveness;
          Alcotest.test_case "frame push kills covered words" `Quick test_frame_push_kills;
          Alcotest.test_case "used objects" `Quick test_used_objects;
        ] );
      ( "marker model",
        [
          Alcotest.test_case "stale slot retains" `Quick test_stale_slot_retains;
          Alcotest.test_case "cleared frame drops stale" `Quick test_cleared_frame_drops_stale;
          Alcotest.test_case "model sweep frees" `Quick test_model_sweep_frees;
          Alcotest.test_case "interior pointer resolution" `Quick test_interior_pointer_resolution;
        ] );
      ( "lint",
        [
          Alcotest.test_case "R3 atomic advice" `Quick test_r3_atomic_advice;
          Alcotest.test_case "R4 large object" `Quick test_r4_large_object;
          Alcotest.test_case "R5 stack hygiene" `Quick test_r5_minimal;
        ] );
      ( "shape",
        [
          Alcotest.test_case "dead link into live data" `Quick test_shape_dead_link;
          Alcotest.test_case "self-linked group" `Quick test_shape_self_linked;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "queue pair" `Slow test_queue_scenarios;
          Alcotest.test_case "grid pair" `Slow test_grid_scenarios;
          Alcotest.test_case "dead-feeding sets" `Slow test_dead_feeding_sets;
          Alcotest.test_case "scenarios back to back" `Slow test_scenarios_back_to_back;
        ] );
      ( "fixes",
        [
          Alcotest.test_case "R1 grid fix verified" `Slow test_fix_r1_grid;
          Alcotest.test_case "R2 queue fix verified" `Slow test_fix_r2_queue;
          Alcotest.test_case "R5 list-reverse fix verified" `Slow test_fix_r5_reverse;
          Alcotest.test_case "R5 program-T fix verified" `Slow test_fix_r5_program_t;
        ] );
      ( "starvation",
        [ Alcotest.test_case "matrix agreement" `Slow test_starvation_matrix ] );
    ]
