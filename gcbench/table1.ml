(* Program T in the traced run: the paper's Appendix-A program T through
   [Program_t.run], once for each of the nine Table-1 presets with
   blacklisting off and on, at the standard scale of [bench/main.exe
   table1] (1/4-length lists).  The timed workloads never enter the
   Platform and Machine layers; this probe measures them and checks
   Table 1.  No collect hook is installed: the hook path skips the
   startup collection and would move Table 1. *)

open Common
module W = Cgc_workloads
module Gc = Cgc.Gc

let default_seed = 1993

(* The committed Table-1 retention figures (BENCH_pr10.json, table1_*
   keys) at seed 1993: preset, (blacklisting off, blacklisting on). *)
let oracle =
  [
    ("sparc-static", ("79.50", "0.00"));
    ("sparc-static-opt", ("79.50", "0.00"));
    ("sparc-dynamic", ("11.50", "0.50"));
    ("sparc-dynamic-opt", ("11.50", "0.50"));
    ("sgi-static", ("3.00", "0.00"));
    ("sgi-static-opt", ("3.00", "0.00"));
    ("os2-static", ("28.00", "1.00"));
    ("os2-static-opt", ("28.00", "1.00"));
    ("pcr", ("47.00", "2.50"));
  ]

let nodes p = p.W.Platform.nodes_per_list / 4

(* Check one row's result: at every seed it retains between none and
   all of its lists and its final heap passes
   [Verify.check_after_collect]; at seed 1993 its retention is the
   Table-1 figure. *)
let check_row r ~seed (res : W.Program_t.result) env =
  let name = res.W.Program_t.platform and bl = res.W.Program_t.blacklisting in
  check r
    (res.W.Program_t.retained >= 0 && res.W.Program_t.retained <= res.W.Program_t.lists)
    (Printf.sprintf "program-t %s bl=%b: retained %d of %d lists" name bl res.W.Program_t.retained
       res.W.Program_t.lists);
  if seed = default_seed then begin
    let off, on = Option.value (List.assoc_opt name oracle) ~default:("?", "?") in
    let want = if bl then on else off in
    let got = Printf.sprintf "%.2f" res.W.Program_t.retention_percent in
    check r (String.equal got want) (Printf.sprintf "program-t %s bl=%b: retention %s, Table 1 says %s" name bl got want)
  end;
  match Cgc.Verify.check_after_collect env.W.Platform.gc with
  | [] -> ()
  | v :: _ -> check r false (Printf.sprintf "program-t %s bl=%b: Verify.check_after_collect: %s" name bl v)

(* Run the 18 rows, adding each row's wall time, its environment build
   (start to the [prepare] callback) and its machine self time (row
   time minus environment build minus the row's GC CPU time) to [l]. *)
let probe (l : Layers.t) r ctx =
  let run_id = Spans.fresh ctx.spans in
  let t0 = now_ns () in
  List.iteri
    (fun i (preset, blacklisting) ->
      let env = ref None and env_ns = ref 0 in
      let prepare e =
        env_ns := now_ns ();
        env := Some e
      in
      let start_ns = now_ns () in
      match W.Program_t.run ~seed:ctx.seed ~blacklisting ~prepare ~nodes:(nodes preset) preset with
      | exception Gc.Out_of_memory _ ->
          check r false (Printf.sprintf "program-t %s bl=%b: out of memory" preset.W.Platform.name blacklisting)
      | res ->
          let stop_ns = now_ns () in
          let gc_s = res.W.Program_t.total_gc_seconds in
          let id = Spans.fresh ctx.spans in
          Spans.leaf ctx.spans ~parent:id ~iter:i "build_env" start_ns !env_ns;
          Spans.leaf ctx.spans ~parent:id ~iter:i "program" !env_ns stop_ns;
          Spans.leaf ctx.spans ~clock:"cpu" ~parent:id ~iter:i "gc" !env_ns (!env_ns + int_of_float (gc_s *. 1e9));
          Spans.record ctx.spans ~id ~parent:run_id ~iter:i "program-t-row" start_ns stop_ns;
          Samples.add l.Layers.row_s (s_of_ns (stop_ns - start_ns));
          Samples.add l.Layers.build_env_ms (ms_of_ns (!env_ns - start_ns));
          Samples.add l.Layers.machine_self_s (s_of_ns (stop_ns - !env_ns) -. gc_s);
          check_row r ~seed:ctx.seed res (Option.get !env))
    (List.concat_map (fun p -> [ (p, false); (p, true) ]) W.Platform.all);
  Spans.record ctx.spans ~id:run_id ~parent:0 ~iter:0 "program-t" t0 (now_ns ())
