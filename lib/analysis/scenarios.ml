(* Bundled workload scenarios with recorders attached — the
   cross-validation suite.  Each scenario runs one of the repo's
   mutator programs with a trace recorder hooked in through its
   [?prepare] hook, analyzes the recorded IR, and keeps the live
   collector handle around so findings can be explained with dynamic
   provenance chains. *)

module W = Cgc_workloads
module Machine = Cgc_mutator.Machine

type outcome = {
  o_name : string;
  o_analysis : Analysis.t;
  o_recorder : Recorder.t;
  o_gc : Cgc.Gc.t;
  o_note : string;  (** the workload's own result, pretty-printed *)
}

let finish name rec_ gc note =
  let program = Recorder.finish rec_ in
  { o_name = name; o_analysis = Analysis.run program; o_recorder = rec_; o_gc = gc; o_note = note }

(* A runner that dies after [prepare] attached the recorder would
   otherwise leave the tracer armed on a machine the next scenario
   never sees — and a recorder holding a partial trace.  Abort the
   recorder (detach tracer, drop buffered state) on every non-returning
   exit, so back-to-back scenarios start clean even when one fails. *)
let guarded st runner =
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then Option.iter (fun (rec_, _) -> Recorder.abort rec_) !st)
    (fun () ->
      let r = runner () in
      finished := true;
      r)

let with_harness name runner =
  let st = ref None in
  let prepare (h : W.Harness.t) =
    st := Some (Recorder.attach h.W.Harness.machine ~globals:h.W.Harness.data, h.W.Harness.gc)
  in
  let note = guarded st (fun () -> runner ~prepare) in
  match !st with
  | Some (rec_, gc) -> finish name rec_ gc note
  | None -> invalid_arg "scenario runner never called prepare"

let with_platform name platform =
  let st = ref None in
  let prepare (env : W.Platform.env) =
    st := Some (Recorder.attach env.W.Platform.machine ~globals:env.W.Platform.data, env.W.Platform.gc)
  in
  let result = guarded st (fun () -> W.Program_t.run ~prepare platform) in
  match !st with
  | Some (rec_, gc) -> finish name rec_ gc (Fmt.str "%a" W.Program_t.pp_result result)
  | None -> invalid_arg "program_t never called prepare"

let list_reverse name mode =
  with_harness name (fun ~prepare ->
      let r = W.List_reverse.run ~prepare mode ~elements:60 ~iterations:8 in
      Fmt.str "%a" W.List_reverse.pp r)

let grid name repr =
  with_harness name (fun ~prepare ->
      let r = W.Grid.run_one ~prepare repr ~rows:12 ~cols:12 ~target:30 in
      Fmt.str "grid %dx%d: retained %d/%d cells (%.0f%%)" r.W.Grid.rows r.W.Grid.cols
        r.W.Grid.retained_cells r.W.Grid.total_cells (100. *. r.W.Grid.retained_fraction))

let queue name ~clear_links =
  with_harness name (fun ~prepare ->
      let r = W.Queue_lazy.run ~prepare ~clear_links 160 in
      Fmt.str "%a" W.Queue_lazy.pp r)

let program_t name machine_config =
  with_platform name (W.Platform.clean ~machine_config ())

let table =
  [
    ("list-reverse-careless", fun () -> list_reverse "list-reverse-careless" W.List_reverse.Careless);
    ("list-reverse-cleared", fun () -> list_reverse "list-reverse-cleared" W.List_reverse.Cleared);
    ("grid-embedded", fun () -> grid "grid-embedded" W.Grid.Embedded);
    ("grid-separate", fun () -> grid "grid-separate" W.Grid.Separate);
    ("queue-no-clear", fun () -> queue "queue-no-clear" ~clear_links:false);
    ("queue-clear", fun () -> queue "queue-clear" ~clear_links:true);
    ("program-t-careless", fun () -> program_t "program-t-careless" Machine.careless_config);
    ("program-t-hygienic", fun () -> program_t "program-t-hygienic" Machine.hygienic_config);
  ]

let names = List.map fst table
let run name = Option.map (fun f -> f ()) (List.assoc_opt name table)
let run_all () = List.map (fun (_, f) -> f ()) table

(* ------------------------------------------------------------------ *)
(* The starvation matrix: tiny-heap scenarios steered into each of the
   predictor's classifications, with the static prediction checked for
   exact agreement against the real collector's OOM diagnosis and
   ladder counters. *)

module Mem = Cgc_vm.Mem
module Addr = Cgc_vm.Addr

type matrix_entry = {
  m_name : string;
  m_predicted : Starvation.classification;
  m_measured : Starvation.classification;
  m_prediction : Starvation.prediction;
  m_oom : Cgc.Gc.oom_diagnosis option;
  m_ladder_rungs : int;
  m_note : string;
}

let matrix_heap_base = 0x400000
let matrix_page = 4096
let matrix_obj = 256 (* 16 objects per page *)

(* A raw integer that lands inside the given heap page but names no
   object: global-root pollution, the seed of a blacklist entry. *)
let page_poison page = matrix_heap_base + (page * matrix_page) + 64

let pollute h ~slot pages =
  List.iteri (fun i p -> W.Harness.set_root h (slot + i) (page_poison p)) pages

(* A chain of [n] objects linked through field 0, head rooted at
   [slot].  Survives collections mid-build through register 0 (the
   conservative scan follows the freshest allocation's link chain). *)
let build_chain ?(bytes = matrix_obj) ?pointer_free h ~slot ~n =
  let machine = h.W.Harness.machine in
  let prev = ref 0 in
  for _ = 1 to n do
    let o = Machine.allocate ?pointer_free machine bytes in
    Machine.write_field machine o 0 !prev;
    prev := Addr.to_int o
  done;
  W.Harness.set_root h slot !prev

let churn ?(bytes = matrix_obj) ?pointer_free h ~n =
  for _ = 1 to n do
    ignore (Machine.allocate ?pointer_free h.W.Harness.machine bytes)
  done

(* Run one matrix scenario: record the workload, classify its ending
   both ways, and demand nothing — agreement is asserted by the
   selfcheck, not here. *)
let matrix_scenario ~name ~pages ?(config = fun c -> c) ?decay body =
  let config =
    config
      { Cgc.Config.default with Cgc.Config.initial_pages = pages; Cgc.Config.blacklisting = true }
  in
  let h = W.Harness.create ~config ~heap_kb:(pages * matrix_page / 1024) () in
  let geometry = Starvation.capture h.W.Harness.gc in
  let recorder = Recorder.attach h.W.Harness.machine ~globals:h.W.Harness.data in
  let oom = ref None in
  let note =
    guarded
      (ref (Some (recorder, h.W.Harness.gc)))
      (fun () ->
        try body h
        with Cgc.Gc.Out_of_memory d ->
          oom := Some d;
          Fmt.str "OOM: %s" (Cgc.Gc.oom_message d))
  in
  let program = Recorder.finish recorder in
  let liveness = Liveness.analyze program in
  let retention = Apparent.analyze program liveness in
  let prediction = Starvation.predict ?decay geometry program retention in
  let stats = Cgc.Gc.stats h.W.Harness.gc in
  {
    m_name = name;
    m_predicted = prediction.Starvation.pr_class;
    m_measured = Starvation.classify_measured ~oom:!oom stats;
    m_prediction = prediction;
    m_oom = !oom;
    m_ladder_rungs = Starvation.ladder_rungs stats;
    m_note = note;
  }

(* Catch the fault-plan exceptions a decayed world throws at the
   mutator and keep going; only [Out_of_memory] ends the scenario. *)
let tolerant f = try f () with Mem.Write_fault _ | Mem.Read_fault _ -> ()

let matrix_table =
  [
    (* -- safe ------------------------------------------------------ *)
    ( "sv-safe-steady",
      fun () ->
        matrix_scenario ~name:"sv-safe-steady" ~pages:16 (fun h ->
            build_chain h ~slot:0 ~n:8;
            churn h ~n:200;
            "steady churn, 8 live") );
    ( "sv-safe-growth",
      fun () ->
        matrix_scenario ~name:"sv-safe-growth" ~pages:32
          ~config:(fun c -> { c with Cgc.Config.initial_pages = 8 })
          (fun h ->
            build_chain h ~slot:0 ~n:192;
            churn h ~n:100;
            "rung-free growth to 12 live pages") );
    ( "sv-safe-atomic",
      fun () ->
        matrix_scenario ~name:"sv-safe-atomic" ~pages:16 (fun h ->
            pollute h ~slot:0 (List.init 14 (fun i -> i + 2));
            Cgc.Gc.collect h.W.Harness.gc;
            build_chain h ~slot:40 ~n:16 ~pointer_free:true;
            churn h ~n:150 ~pointer_free:true;
            "atomic churn over a 14/16-black heap") );
    (* -- ladder-rescuable ------------------------------------------ *)
    ( "sv-ladder-tight",
      fun () ->
        matrix_scenario ~name:"sv-ladder-tight" ~pages:16
          ~config:(fun c -> { c with Cgc.Config.blacklisting = false })
          (fun h ->
            build_chain h ~slot:0 ~n:224;
            churn h ~n:160;
            "churn against 14/16 pages live") );
    ( "sv-ladder-hashed",
      fun () ->
        matrix_scenario ~name:"sv-ladder-hashed" ~pages:16
          ~config:(fun c -> { c with Cgc.Config.blacklist_buckets = Some 8 })
          (fun h ->
            pollute h ~slot:0 [ 12 ];
            Cgc.Gc.collect h.W.Harness.gc;
            build_chain h ~slot:4 ~n:192;
            churn h ~n:80;
            "hashed blacklist smears 1 false ref over 2 pages") );
    ( "sv-ladder-relax",
      fun () ->
        matrix_scenario ~name:"sv-ladder-relax" ~pages:16
          ~config:(fun c -> { c with Cgc.Config.relax_blacklist = true })
          (fun h ->
            pollute h ~slot:0 (List.init 10 (fun i -> i + 4));
            Cgc.Gc.collect h.W.Harness.gc;
            build_chain h ~slot:20 ~n:96;
            churn h ~n:48;
            "blacklist-starved shape rescued by relaxation") );
    (* -- blacklist-starved ----------------------------------------- *)
    ( "sv-starved-exact",
      fun () ->
        matrix_scenario ~name:"sv-starved-exact" ~pages:16 (fun h ->
            pollute h ~slot:0 (List.init 12 (fun i -> i + 4));
            Cgc.Gc.collect h.W.Harness.gc;
            build_chain h ~slot:20 ~n:64;
            churn h ~n:64;
            "unreachable: churn should have died") );
    ( "sv-starved-hashed",
      fun () ->
        matrix_scenario ~name:"sv-starved-hashed" ~pages:16
          ~config:(fun c -> { c with Cgc.Config.blacklist_buckets = Some 8 })
          (fun h ->
            build_chain h ~slot:20 ~n:16;
            pollute h ~slot:0 (List.init 14 (fun i -> i + 2));
            Cgc.Gc.collect h.W.Harness.gc;
            churn h ~n:8;
            "unreachable: every bucket is dirty") );
    ( "sv-starved-large",
      fun () ->
        matrix_scenario ~name:"sv-starved-large" ~pages:16 (fun h ->
            churn h ~n:1 ~bytes:(8 * matrix_page);
            pollute h ~slot:0 (List.init 8 (fun i -> (2 * i) + 1));
            Cgc.Gc.collect h.W.Harness.gc;
            churn h ~n:1 ~bytes:(8 * matrix_page);
            "unreachable: no clean 8-page run") );
    (* -- decay-vulnerable ------------------------------------------ *)
    ( "sv-decay-writes",
      fun () ->
        matrix_scenario ~name:"sv-decay-writes" ~pages:8
          ~config:(fun c -> { c with Cgc.Config.blacklisting = false })
          ~decay:{ Starvation.dh_every = 24; dh_region_bytes = 4096 }
          (fun h ->
            build_chain h ~slot:0 ~n:32;
            Mem.set_fault_plan h.W.Harness.mem
              (Some
                 (Mem.Fault.plan ~countdown:24 ~rearm:true ~target:Mem.Fault.Writes
                    ~decay_bytes:4096 ()));
            for i = 1 to 3000 do
              tolerant (fun () -> churn h ~n:1);
              tolerant (fun () -> W.Harness.set_root h 30 i)
            done;
            "unreachable: memory should have decayed away") );
    ( "sv-decay-slow",
      fun () ->
        matrix_scenario ~name:"sv-decay-slow" ~pages:8
          ~config:(fun c -> { c with Cgc.Config.blacklisting = false })
          ~decay:{ Starvation.dh_every = 40; dh_region_bytes = 4096 }
          (fun h ->
            build_chain h ~slot:0 ~n:16;
            Mem.set_fault_plan h.W.Harness.mem
              (Some
                 (Mem.Fault.plan ~countdown:40 ~rearm:true ~target:Mem.Fault.Writes
                    ~decay_bytes:4096 ()));
            let machine = h.W.Harness.machine in
            for i = 1 to 4000 do
              tolerant (fun () ->
                  let o = Machine.allocate machine matrix_obj in
                  Machine.write_field machine o 1 i);
              tolerant (fun () -> W.Harness.set_root h 30 i)
            done;
            "unreachable: memory should have decayed away") );
    (* -- exhausted ------------------------------------------------- *)
    ( "sv-exhausted",
      fun () ->
        matrix_scenario ~name:"sv-exhausted" ~pages:8 (fun h ->
            build_chain h ~slot:0 ~n:1000;
            "unreachable: the chain outgrows the heap") );
  ]

let starvation_matrix () = List.map (fun (_, f) -> f ()) matrix_table

let pp_matrix_entry ppf e =
  Fmt.pf ppf "%-18s predicted %-18s measured %-18s %s" e.m_name
    (Starvation.class_name e.m_predicted)
    (Starvation.class_name e.m_measured)
    (match e.m_oom with
    | Some d -> Fmt.str "(%s; %d rungs)" (Cgc.Gc.oom_message d) e.m_ladder_rungs
    | None -> Fmt.str "(no OOM; %d rungs)" e.m_ladder_rungs)

(* Dynamic provenance for a finding's example object: ask the live
   collector why it is (still) retained. *)
(* Chains through long linked structures (a queue's spine, a list) can
   run to hundreds of steps; keep the head, which names the root, and
   summarize the rest. *)
let max_chain_steps = 8

let pp_chain ppf chain =
  let n = List.length chain in
  if n <= max_chain_steps then Cgc.Trace.pp_chain ppf chain
  else begin
    Fmt.pf ppf "@[<v>";
    List.iteri
      (fun i step ->
        if i < max_chain_steps then
          Fmt.pf ppf "%s%a@," (String.make (2 * i) ' ') Cgc.Trace.pp_step step)
      chain;
    Fmt.pf ppf "%s... %d more steps" (String.make (2 * max_chain_steps) ' ') (n - max_chain_steps);
    Fmt.pf ppf "@]"
  end

let explain outcome ppf id =
  match Recorder.base_of_obj outcome.o_recorder id with
  | None -> ()
  | Some base ->
      if Cgc.Gc.is_allocated outcome.o_gc base then (
        match Cgc.Trace.why_live outcome.o_gc base with
        | Some chain -> Fmt.pf ppf "  e.g. object #%d: %a@," id pp_chain chain
        | None -> Fmt.pf ppf "  e.g. object #%d at %a (allocated, no root chain found)@," id
                    Cgc_vm.Addr.pp base)
      else Fmt.pf ppf "  e.g. object #%d (since reclaimed)@," id

(* ------------------------------------------------------------------ *)
(* The generational fix matrix: the four headline findings replayed
   through a fresh Generational collector, original vs fixed trace,
   with the promotion model's predicted garbage checked against the
   measured figure on both sides.  This is the §3.1 experiment: an
   uncleared link or stack slot does not just retain dead data, it
   tenures it past the reach of every future minor collection. *)

let gen_promote_after = 1

type gen_fix_entry = {
  g_scenario : string;
  g_rule : string;
  g_cmp : Replay.gen_comparison;
  g_predicted_before : Promotion.prediction;
  g_predicted_after : Promotion.prediction;
}

(* (scenario, rule) pairs: the same four targets the conservative fix
   replay gates on. *)
let gen_fix_targets =
  [
    ("grid-embedded", "R1");
    ("queue-no-clear", "R2");
    ("list-reverse-careless", "R5");
    ("program-t-careless", "R5");
  ]

let generational_fix (o : outcome) rule =
  match Analysis.fix_for o.o_analysis rule with
  | None -> None
  | Some f ->
      let edits = match f.Analysis.suggestion with Some s -> s.Fixes.fx_edits | None -> [] in
      let p = o.o_analysis.Analysis.program in
      Some
        {
          g_scenario = o.o_name;
          g_rule = rule;
          g_cmp = Replay.compare_fix_generational ~promote_after:gen_promote_after p edits;
          g_predicted_before = Promotion.predict ~promote_after:gen_promote_after p;
          g_predicted_after =
            Promotion.predict ~promote_after:gen_promote_after (Fixes.apply p edits);
        }

let generational_fixes ?outcomes () =
  let outcomes = match outcomes with Some o -> o | None -> run_all () in
  List.filter_map
    (fun (scenario, rule) ->
      match List.find_opt (fun o -> o.o_name = scenario) outcomes with
      | None -> None
      | Some o -> generational_fix o rule)
    gen_fix_targets

let pp_gen_fix_entry ppf e =
  let c = e.g_cmp in
  Fmt.pf ppf
    "@[<v>%s %s:@,\
    \  measured:  promoted garbage %6dB -> %6dB (drop %dB); retention drop %dB; reads %s@,\
    \  predicted: promoted garbage %6dB -> %6dB (tolerance %dB/%dB): %s@]" e.g_scenario e.g_rule
    c.Replay.gcmp_garbage_before c.Replay.gcmp_garbage_after c.Replay.gcmp_garbage_drop
    c.Replay.gcmp_retention_drop
    (if c.Replay.gcmp_reads_equal then "preserved" else "CHANGED")
    e.g_predicted_before.Promotion.pr_garbage_bytes e.g_predicted_after.Promotion.pr_garbage_bytes
    (Promotion.tolerance e.g_predicted_before)
    (Promotion.tolerance e.g_predicted_after)
    (if
       Promotion.agrees e.g_predicted_before ~measured:c.Replay.gcmp_garbage_before
       && Promotion.agrees e.g_predicted_after ~measured:c.Replay.gcmp_garbage_after
     then "agrees"
     else "DRIFT")

(* The acceptance matrix: which rules must (and must not) fire on which
   scenario, plus soundness and measurement tolerance everywhere.
   Pinned empirically; a change that shifts one of these is a behaviour
   change worth noticing. *)
let selfcheck () =
  let outcomes = run_all () in
  let get n = List.find (fun o -> o.o_name = n) outcomes in
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  List.iter
    (fun o ->
      let v = Analysis.validate o.o_analysis in
      check (o.o_name ^ ": sound") v.Analysis.sound;
      check (o.o_name ^ ": within tolerance of measured") v.Analysis.within_tolerance)
    outcomes;
  let has n rule = Analysis.has_finding (get n).o_analysis rule in
  check "grid-embedded flags R1 (embedded links)" (has "grid-embedded" "R1");
  check "grid-separate does not flag R1" (not (has "grid-separate" "R1"));
  check "queue-no-clear flags R2 (uncleared links)" (has "queue-no-clear" "R2");
  check "queue-clear does not flag R2" (not (has "queue-clear" "R2"));
  check "list-reverse-careless flags R5 (stack hygiene)" (has "list-reverse-careless" "R5");
  check "list-reverse-cleared does not flag R5" (not (has "list-reverse-cleared" "R5"));
  check "program-t-careless flags R5" (has "program-t-careless" "R5");
  check "careless retains more than hygienic (model agrees)"
    (Analysis.max_excess (get "program-t-careless").o_analysis
    >= Analysis.max_excess (get "program-t-hygienic").o_analysis);
  (* Fix suggestions: every headline finding must carry a suggestion
     that passes static verification AND, replayed through the real
     collector, retains measurably less with identical read streams. *)
  let fix_check scenario rule =
    let a = (get scenario).o_analysis in
    let label = Fmt.str "%s %s fix" scenario rule in
    match Analysis.fix_for a rule with
    | None -> check (label ^ ": suggested") false
    | Some f ->
        check (label ^ ": suggested") true;
        check
          (label ^ ": statically sound")
          (match f.Analysis.verdict with Some v -> Fixes.sound v | None -> false);
        let edits =
          match f.Analysis.suggestion with Some s -> s.Fixes.fx_edits | None -> []
        in
        let cmp = Replay.compare_fix a.Analysis.program edits in
        check (label ^ ": replay drops retention") (cmp.Replay.cmp_retention_drop > 0);
        check (label ^ ": replay preserves reads") cmp.Replay.cmp_reads_equal
  in
  fix_check "grid-embedded" "R1";
  fix_check "queue-no-clear" "R2";
  fix_check "list-reverse-careless" "R5";
  fix_check "program-t-careless" "R5";
  (* The generational fix matrix: the same findings replayed through
     the generational backend.  Each fix must still preserve the read
     stream, must measurably lower the §3.1 promoted garbage, and the
     promotion model's prediction must agree with the measured figure
     on both sides of the fix. *)
  let gen = generational_fixes ~outcomes () in
  check "gen fix matrix covers all four targets" (List.length gen = List.length gen_fix_targets);
  List.iter
    (fun e ->
      let label = Fmt.str "gen %s %s" e.g_scenario e.g_rule in
      let c = e.g_cmp in
      check (label ^ ": replay preserves reads") c.Replay.gcmp_reads_equal;
      check (label ^ ": promotes garbage before fix") (c.Replay.gcmp_garbage_before > 0);
      check (label ^ ": fix lowers promoted garbage") (c.Replay.gcmp_garbage_drop > 0);
      check
        (label ^ ": model predicts the drop")
        (e.g_predicted_before.Promotion.pr_garbage_bytes
        > e.g_predicted_after.Promotion.pr_garbage_bytes);
      check
        (label ^ ": model within tolerance (before fix)")
        (Promotion.agrees e.g_predicted_before ~measured:c.Replay.gcmp_garbage_before);
      check
        (label ^ ": model within tolerance (after fix)")
        (Promotion.agrees e.g_predicted_after ~measured:c.Replay.gcmp_garbage_after);
      check
        (label ^ ": dirty-bit audits exact")
        (List.for_all Replay.audit_exact c.Replay.gcmp_before.Replay.gr_audits
        && List.for_all Replay.audit_exact c.Replay.gcmp_after.Replay.gr_audits))
    gen;
  (* The starvation matrix: static classification must match the real
     collector's behaviour exactly, scenario by scenario. *)
  let matrix = starvation_matrix () in
  check "starvation matrix has >= 12 scenarios" (List.length matrix >= 12);
  List.iter
    (fun e ->
      check
        (Fmt.str "%s: predicted %s = measured %s" e.m_name
           (Starvation.class_name e.m_predicted)
           (Starvation.class_name e.m_measured))
        (e.m_predicted = e.m_measured))
    matrix;
  check "matrix exercises memory decay (memory_decayed diagnosed)"
    (List.exists
       (fun e ->
         match e.m_oom with Some d -> d.Cgc.Gc.memory_decayed | None -> false)
       matrix);
  (List.rev !checks, outcomes)
