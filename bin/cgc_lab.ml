(* cgc_lab: the chaos matrix and the static retention analyzer of the
   reproduction of "Space Efficient Conservative Garbage Collection"
   (Boehm, PLDI'93).  The paper's tables and figures are sections of
   bench/main.exe. *)

open Cmdliner
module W = Cgc_workloads

let seed_arg =
  let doc = "Random seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int 1993 & info [ "seed" ] ~docv:"SEED" ~doc)

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
             $(b,generational), $(b,explicit), $(b,precise), or $(b,all) (the default).")
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

(* Whether one generational fix-replay entry passes, for the --fix
   --collector generational path (pinned as golden/gen-fixes.txt): a
   target fails on a changed read stream, a fix that does not lower
   promoted garbage, or promotion-model drift on either side. *)
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
      (* one scenario or matrix row per line, so a moved figure is one
         changed line *)
      let lines pp = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@\n") pp in
      Format.printf "{\"scenarios\":[@\n%a]"
        (lines
           (fun ppf (o : A.Scenarios.outcome) ->
             A.Report.json
               ~name:o.A.Scenarios.o_name
               ~replay:(fix && collector = `Conservative)
               ppf o.A.Scenarios.o_analysis))
        outcomes;
      (match matrix with
      | Some m ->
          Format.printf ",@\n\"starvation_matrix\":[@\n%a]" (lines A.Report.json_matrix_entry) m
      | None -> ());
      (match gen with
      | Some g -> Format.printf ",@\n\"gen_fixes\":[@\n%a]" (lines json_gen_entry) g
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
[ chaos_cmd; analyze_cmd ]

let () = exit (Cmd.eval main_cmd)
