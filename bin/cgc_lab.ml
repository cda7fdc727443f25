(* cgc_lab: command-line driver for every experiment in the reproduction
   of "Space Efficient Conservative Garbage Collection" (Boehm, PLDI'93). *)

open Cmdliner
module W = Cgc_workloads

let seed_arg =
  let doc = "Random seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int 1993 & info [ "seed" ] ~docv:"SEED" ~doc)

(* --- program-t --- *)

let platform_arg =
  let doc =
    "Platform preset: " ^ String.concat ", " W.Platform.names ^ ", or 'all' for the full table."
  in
  Arg.(value & opt string "all" & info [ "platform"; "p" ] ~docv:"NAME" ~doc)

let lists_arg =
  let doc = "Number of lists (default: the platform's)." in
  Arg.(value & opt (some int) None & info [ "lists" ] ~docv:"N" ~doc)

let nodes_arg =
  let doc =
    "Cells per list (default: a quarter of the platform's, i.e. the standard evaluation scale; \
     use --paper-scale for the full size)."
  in
  Arg.(value & opt (some int) None & info [ "nodes" ] ~docv:"N" ~doc)

let paper_scale_arg =
  let doc = "Run at the paper's full scale (200 x 25000 cells; slower)." in
  Arg.(value & flag & info [ "paper-scale" ] ~doc)

let effective_nodes ~paper_scale ~nodes (p : W.Platform.t) =
  match nodes with
  | Some n -> n
  | None -> if paper_scale then p.W.Platform.nodes_per_list else p.W.Platform.nodes_per_list / 4

let run_program_t seed platform lists nodes paper_scale =
  let platforms =
    if platform = "all" then W.Platform.all
    else
      match W.Platform.by_name platform with
      | Some p -> [ p ]
      | None ->
          Format.eprintf "unknown platform %s; try one of: %s@." platform
            (String.concat ", " W.Platform.names);
          exit 1
  in
  List.iter
    (fun p ->
      let nodes = effective_nodes ~paper_scale ~nodes p in
      let row = W.Program_t.run_row ~seed ?lists ~nodes p in
      Format.printf "%a@." W.Program_t.pp_result row.W.Program_t.without_blacklisting;
      Format.printf "%a@.%!" W.Program_t.pp_result row.W.Program_t.with_blacklisting)
    platforms

let program_t_cmd =
  let doc = "Program T (appendix A): storage retention with and without blacklisting (table 1)." in
  Cmd.v
    (Cmd.info "program-t" ~doc)
    Term.(const run_program_t $ seed_arg $ platform_arg $ lists_arg $ nodes_arg $ paper_scale_arg)

(* --- grid --- *)

let run_grid seed rows cols trials =
  List.iter
    (fun repr ->
      Format.printf "%a@." W.Grid.pp_summary (W.Grid.run_trials ~seed repr ~rows ~cols ~trials))
    [ W.Grid.Embedded; W.Grid.Separate ]

let grid_cmd =
  let rows = Arg.(value & opt int 20 & info [ "rows" ] ~docv:"N" ~doc:"Grid rows.") in
  let cols = Arg.(value & opt int 20 & info [ "cols" ] ~docv:"N" ~doc:"Grid columns.") in
  let trials = Arg.(value & opt int 40 & info [ "trials" ] ~docv:"N" ~doc:"Random injections.") in
  Cmd.v
    (Cmd.info "grid" ~doc:"Embedded vs separate link cells (figures 3-4).")
    Term.(const run_grid $ seed_arg $ rows $ cols $ trials)

(* --- stack clearing --- *)

let run_stack elements iterations =
  List.iter
    (fun mode ->
      Format.printf "%a@.%!" W.List_reverse.pp (W.List_reverse.run mode ~elements ~iterations))
    [ W.List_reverse.Careless; W.List_reverse.Cleared; W.List_reverse.Optimized ]

let stack_cmd =
  let elements = Arg.(value & opt int 250 & info [ "elements" ] ~docv:"N" ~doc:"List length.") in
  let iterations = Arg.(value & opt int 30 & info [ "iterations" ] ~docv:"N" ~doc:"Reversals.") in
  Cmd.v
    (Cmd.info "stack-clearing" ~doc:"Recursive list reversal and stack hygiene (section 3.1).")
    Term.(const run_stack $ elements $ iterations)

(* --- structures --- *)

let run_structures seed =
  Format.printf "%a@." W.Tree.pp (W.Tree.run ~seed ~depth:10 ~trials:60 ());
  List.iter
    (fun (clear, ops) ->
      Format.printf "%a@." W.Queue_lazy.pp (W.Queue_lazy.run ~seed ~clear_links:clear ops))
    [ (false, 1000); (false, 4000); (true, 1000); (true, 4000) ]

let structures_cmd =
  Cmd.v
    (Cmd.info "structures" ~doc:"Trees vs queues under a false reference (section 4).")
    Term.(const run_structures $ seed_arg)

(* --- misidentification --- *)

let run_sweep seed samples =
  List.iter
    (fun kind ->
      List.iter
        (fun p -> Format.printf "%a@." W.False_ref.pp_sweep_point p)
        (W.False_ref.misidentification_sweep ~seed ~samples ~kind [ 64; 256; 1024; 4096 ]))
    [ W.False_ref.Uniform_words; W.False_ref.Integer_like ];
  Format.printf "-- heap placement --@.";
  List.iter
    (Format.printf "%a@." W.False_ref.pp_placement)
    (W.False_ref.placement_study ~seed ~samples 512)

let sweep_cmd =
  let samples =
    Arg.(value & opt int 200_000 & info [ "samples" ] ~docv:"N" ~doc:"Sampled words per point.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Misidentification probability vs heap occupancy (section 2).")
    Term.(const run_sweep $ seed_arg $ samples)

(* --- figure 1 --- *)

let run_fig1 seed pairs =
  Format.printf "%a@." W.False_ref.pp_halfword (W.False_ref.halfword_study ~seed pairs)

let fig1_cmd =
  let pairs = Arg.(value & opt int 16 & info [ "pairs" ] ~docv:"N" ~doc:"Small-integer pairs.") in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Halfword concatenation into valid addresses (figure 1).")
    Term.(const run_fig1 $ seed_arg $ pairs)

(* --- large objects --- *)

let run_large seed =
  Format.printf "%a@." W.Large_object.pp
    (W.Large_object.run ~seed ~sizes_kb:[ 16; 32; 64; 96; 128; 192; 256; 512; 1024 ] ())

let large_cmd =
  Cmd.v
    (Cmd.info "large-object" ~doc:"Large objects vs the blacklist (section 3, observation 7).")
    Term.(const run_large $ seed_arg)

(* --- dual run --- *)

let run_dual seed = Format.printf "%a@." W.Dual_run.pp (W.Dual_run.run ~seed ())

let dual_cmd =
  Cmd.v
    (Cmd.info "dual-run" ~doc:"Two-copies-shifted-heap pointer identification (footnote 4).")
    Term.(const run_dual $ seed_arg)

(* --- pcr threads --- *)

let run_threads seed threads awake =
  Format.printf "%a@." W.Pcr_threads.pp (W.Pcr_threads.run ~seed ~threads ~awake ())

let threads_cmd =
  let threads = Arg.(value & opt int 5 & info [ "threads" ] ~docv:"N" ~doc:"Background workers.") in
  let awake = Arg.(value & flag & info [ "awake" ] ~doc:"Wake workers after the lists are dropped.") in
  Cmd.v
    (Cmd.info "pcr-threads" ~doc:"Idle thread stacks pin dropped data (appendix B).")
    Term.(const run_threads $ seed_arg $ threads $ awake)

(* --- fragmentation --- *)

let run_frag seed population iterations =
  List.iter
    (fun a ->
      Format.printf "%a@.%!" W.Fragmentation.pp
        (W.Fragmentation.run ~seed a ~population ~iterations))
    [ W.Fragmentation.Malloc_lifo; W.Fragmentation.Malloc_address_ordered; W.Fragmentation.Collector ]

let frag_cmd =
  let population =
    Arg.(value & opt int 5000 & info [ "population" ] ~docv:"N" ~doc:"Objects kept live.")
  in
  let iterations = Arg.(value & opt int 12 & info [ "iterations" ] ~docv:"N" ~doc:"Churn rounds.") in
  Cmd.v
    (Cmd.info "fragmentation" ~doc:"Free-list discipline and fragmentation (conclusions).")
    Term.(const run_frag $ seed_arg $ population $ iterations)

(* --- chaos --- *)

let run_chaos seed steps collectors =
  let outcomes = W.Chaos.run_matrix ~steps ?collectors ~seed () in
  List.iter (Format.printf "%a@.%!" W.Chaos.pp_outcome) outcomes;
  let dirty = List.filter (fun o -> not (W.Chaos.clean o)) outcomes in
  Format.printf "%d/%d scenario runs clean@.%!"
    (List.length outcomes - List.length dirty)
    (List.length outcomes);
  if dirty <> [] then exit 1

let chaos_cmd =
  let steps =
    Arg.(value & opt int 1500 & info [ "steps" ] ~docv:"N" ~doc:"Mutator steps per scenario.")
  in
  let collector =
    let choices =
      ("all", None)
      :: List.map
           (fun c -> (W.Chaos.collector_name c, Some [ c ]))
           W.Chaos.all_collectors
    in
    Arg.(
      value
      & opt (enum choices) None
      & info [ "collector" ] ~docv:"BACKEND"
          ~doc:
            "Restrict the matrix to one memory-management backend: $(b,conservative), \
             $(b,generational), $(b,explicit), or $(b,all) (the default).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos soak: a randomized mutator under seeded fault plans (commit countdown, \
          probability, byte quota, ECC read corruption, write refusal, permanent region \
          decay) across collector backends and configurations.  Audits crash coherence \
          after every injected fault and exits nonzero on any violation.")
    Term.(const run_chaos $ seed_arg $ steps $ collector)

(* --- analyze --- *)

module A = Cgc_analysis

(* One generational fix-replay entry as text (and its pass/fail), used
   by the --fix --collector generational path and the @gen-fixes CI
   alias: a target fails on a changed read stream, a fix that does not
   lower promoted garbage, or promotion-model drift on either side. *)
let gen_entry_ok (e : A.Scenarios.gen_fix_entry) =
  let c = e.A.Scenarios.g_cmp in
  c.A.Replay.gcmp_reads_equal
  && c.A.Replay.gcmp_garbage_drop > 0
  && A.Promotion.agrees e.A.Scenarios.g_predicted_before
       ~measured:c.A.Replay.gcmp_garbage_before
  && A.Promotion.agrees e.A.Scenarios.g_predicted_after ~measured:c.A.Replay.gcmp_garbage_after

let json_gen_entry ppf (e : A.Scenarios.gen_fix_entry) =
  let c = e.A.Scenarios.g_cmp in
  Format.fprintf ppf
    "{\"scenario\":%S,\"rule\":%S,\"garbage_before\":%d,\"garbage_after\":%d,\"garbage_drop\":%d,\"predicted_before\":%d,\"predicted_after\":%d,\"reads_equal\":%b,\"ok\":%b}"
    e.A.Scenarios.g_scenario e.A.Scenarios.g_rule c.A.Replay.gcmp_garbage_before
    c.A.Replay.gcmp_garbage_after c.A.Replay.gcmp_garbage_drop
    e.A.Scenarios.g_predicted_before.A.Promotion.pr_garbage_bytes
    e.A.Scenarios.g_predicted_after.A.Promotion.pr_garbage_bytes c.A.Replay.gcmp_reads_equal
    (gen_entry_ok e)

let run_analyze scenario selfcheck starvation fix collector json verbose =
  if selfcheck then begin
    let checks, outcomes = A.Scenarios.selfcheck () in
    if verbose then
      List.iter
        (fun (o : A.Scenarios.outcome) ->
          Format.printf "=== %s ===@.%s@.%a@." o.A.Scenarios.o_name o.A.Scenarios.o_note
            (A.Report.pp ~explain:(A.Scenarios.explain o) ~fixes:true)
            o.A.Scenarios.o_analysis)
        outcomes;
    let failed = List.filter (fun (_, ok) -> not ok) checks in
    List.iter
      (fun (name, ok) -> Format.printf "%s %s@." (if ok then "ok  " else "FAIL") name)
      checks;
    Format.printf "%d/%d checks passed@.%!" (List.length checks - List.length failed)
      (List.length checks);
    if failed <> [] then exit 1
  end
  else begin
    let names =
      if scenario = "all" then A.Scenarios.names
      else if List.mem scenario A.Scenarios.names then [ scenario ]
      else begin
        Format.eprintf "unknown scenario %s; try one of: %s@." scenario
          (String.concat ", " ("all" :: A.Scenarios.names));
        exit 1
      end
    in
    let outcomes = List.filter_map A.Scenarios.run names in
    let matrix = if starvation then Some (A.Scenarios.starvation_matrix ()) else None in
    let gen =
      if fix && collector = `Generational then
        Some (A.Scenarios.generational_fixes ~outcomes ())
      else None
    in
    if json then begin
      Format.printf "{\"scenarios\":[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (fun ppf (o : A.Scenarios.outcome) ->
             A.Report.json
               ~name:o.A.Scenarios.o_name
               ~replay:(fix && collector = `Conservative)
               ppf o.A.Scenarios.o_analysis))
        outcomes;
      (match matrix with
      | Some m -> Format.printf ",\"starvation_matrix\":%a" A.Report.json_matrix m
      | None -> ());
      (match gen with
      | Some g ->
          Format.printf ",\"gen_fixes\":[%a]"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
               json_gen_entry)
            g
      | None -> ());
      Format.printf "}@.%!";
      match gen with
      | Some g when List.exists (fun e -> not (gen_entry_ok e)) g -> exit 1
      | _ -> ()
    end
    else begin
      List.iter
        (fun (o : A.Scenarios.outcome) ->
          Format.printf "=== %s ===@.%s@.%a@.%!" o.A.Scenarios.o_name o.A.Scenarios.o_note
            (A.Report.pp ~explain:(A.Scenarios.explain o) ~fixes:fix)
            o.A.Scenarios.o_analysis;
          if fix && collector = `Conservative then
            List.iter
              (fun (f : A.Analysis.fix) ->
                match f.A.Analysis.suggestion with
                | Some s ->
                    let cmp =
                      A.Replay.compare_fix o.A.Scenarios.o_analysis.A.Analysis.program
                        s.A.Fixes.fx_edits
                    in
                    Format.printf "replayed [%s]: %a@.%!" f.A.Analysis.finding.A.Lint.rule
                      A.Replay.pp_comparison cmp
                | None -> ())
              o.A.Scenarios.o_analysis.A.Analysis.fixes)
        outcomes;
      (match gen with
      | Some g ->
          Format.printf
            "== generational fix replay (promote_after %d; measured vs promotion model) ==@."
            A.Scenarios.gen_promote_after;
          List.iter (Format.printf "%a@.%!" A.Scenarios.pp_gen_fix_entry) g;
          let ok = List.filter gen_entry_ok g in
          Format.printf "%d/%d generational fix replays verified@.%!" (List.length ok)
            (List.length g)
      | None -> ());
      (match matrix with
      | Some m ->
          Format.printf "== starvation matrix (static prediction vs real collector) ==@.";
          List.iter (Format.printf "%a@.%!" A.Scenarios.pp_matrix_entry) m;
          let agree =
            List.length
              (List.filter
                 (fun (e : A.Scenarios.matrix_entry) ->
                   e.A.Scenarios.m_predicted = e.A.Scenarios.m_measured)
                 m)
          in
          Format.printf "%d/%d classifications agree@.%!" agree (List.length m)
      | None -> ());
      match gen with
      | Some g when List.exists (fun e -> not (gen_entry_ok e)) g -> exit 1
      | _ -> ()
    end
  end

let analyze_cmd =
  let scenario =
    let doc =
      "Scenario to record and analyze: "
      ^ String.concat ", " A.Scenarios.names
      ^ ", or 'all'."
    in
    Arg.(value & opt string "all" & info [ "scenario"; "s" ] ~docv:"NAME" ~doc)
  in
  let selfcheck =
    Arg.(
      value & flag
      & info [ "selfcheck" ]
          ~doc:
            "Run the pinned acceptance matrix over every scenario and exit nonzero on any \
             unexpected finding, soundness violation or out-of-tolerance prediction.")
  in
  let starvation =
    Arg.(
      value & flag
      & info [ "starvation" ]
          ~doc:
            "Also run the starvation matrix: tiny-heap scenarios classified statically \
             (safe / ladder-rescuable / blacklist-starved / decay-vulnerable / exhausted) \
             and checked against the real collector's OOM diagnoses.")
  in
  let fix =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:
            "Print verified fix suggestions for each finding and replay every fix through a \
             fresh real collector to measure the retention drop.")
  in
  let collector =
    Arg.(
      value
      & opt (enum [ ("conservative", `Conservative); ("generational", `Generational) ]) `Conservative
      & info [ "collector" ] ~docv:"BACKEND"
          ~doc:
            "Collector backend the $(b,--fix) replay runs against.  $(b,conservative) (the \
             default) replays each fix through a full-collecting replica and reports the \
             retention drop; $(b,generational) replays the R1/R2/R5 fix matrix through a fresh \
             generational collector, reports the measured promoted-garbage drop next to the \
             promotion model's prediction, and exits nonzero on drift.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print full reports too.") in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static retention analyzer: record a workload's trace, run liveness dataflow and the \
          conservative-marker model, predict apparently-live sets at each GC point, lint for \
          paper-keyed space-leak patterns, suggest statically verified fixes, and cross-validate \
          against the collector.")
    Term.(const run_analyze $ scenario $ selfcheck $ starvation $ fix $ collector $ json $ verbose)

let main_cmd =
  let doc =
    "Experiments from 'Space Efficient Conservative Garbage Collection' (Boehm, PLDI 1993)."
  in
  let info = Cmd.info "cgc_lab" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      program_t_cmd;
      grid_cmd;
      stack_cmd;
      structures_cmd;
      sweep_cmd;
      fig1_cmd;
      large_cmd;
      dual_cmd;
      threads_cmd;
      frag_cmd;
      chaos_cmd;
      analyze_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
