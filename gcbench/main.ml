(* Layered collector benchmark.

     gcbench/main.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc N]

   Workloads: churn, live-heap (see README.md).
   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   runs half the time untraced and half traced, prints the per-layer
   metrics and writes the spans to gcbench-out/.  The last line of
   standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   Exits 1 when a correctness check fails. *)

open Common

let end_to_end =
  [ "setup_s"; "wall_s"; "pause_ms_p50"; "pause_ms_p90"; "gc_share"; "peak_committed_kb"; "retained_excess_kb" ]

let workloads = [ "churn"; "live-heap" ]

let () =
  let workload = ref "" and seed = ref Table1.default_seed and seconds = ref 15. and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 1993, the Table-1 seed)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
      ("--nproc", Arg.Set_int nproc, "N processors available to the run, for the host record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload '" ^ !workload ^ "'; one of " ^ String.concat ", " workloads);
    exit 2
  end;
  let ctx = { seed = !seed; seconds = !seconds; trace = !trace = 1; spans = Spans.create (!trace = 1) } in
  let host =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \"recommended_domain_count\": %d, \
       \"ocaml\": %S, \"mark_jobs\": 1, \"probe_mark_jobs\": 2, \"probe_mark_jobs_cores\": %d}"
      !workload !seed !trace !nproc (Domain.recommended_domain_count ()) Sys.ocaml_version (min 2 !nproc)
  in
  Printf.printf "host %s\n%!" host;
  let r =
    match !workload with
    | "churn" -> Churn.run ctx
    | _ -> Live_heap.run ctx
  in
  let metrics = List.rev r.metrics in
  List.iter
    (fun (name, v, _) ->
      check r (Float.is_finite v) (Printf.sprintf "metric %s is not a finite number" name))
    metrics;
  if not ctx.trace then
    check r
      (List.map (fun (n, _, _) -> n) metrics = end_to_end)
      "the end-to-end metric set does not match BENCHMARK.json";
  if ctx.trace then begin
    (try Sys.mkdir "gcbench-out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "gcbench-out/spans-%s-%d.jsonl" !workload !seed in
    Spans.write ctx.spans path;
    Printf.printf "spans: %d written to %s\n" (List.length ctx.spans.Spans.spans) path
  end;
  let correct = r.errors = [] in
  (* a run that fails its check counts every request it made as failed *)
  let failed = if correct then r.failed else r.attempted in
  let attempted = max 1 r.attempted in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) (List.rev r.errors);
  List.iter (fun (name, v, unit) -> Printf.printf "%-40s %16.6f %s\n" name v unit) metrics;
  Printf.printf "%-40s %16d count\n" "pause samples" r.pause_samples;
  Printf.printf "%-40s %16.6f ratio\n" "failed_frac" (float_of_int failed /. float_of_int attempted);
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
          unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted failed
    (String.concat ", " fields);
  exit (if correct then 0 else 1)
