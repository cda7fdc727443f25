(* Human-readable report: per-GC-point retention table, spurious-root
   breakdown, lint findings, validation verdict.  [explain] lets the
   caller attach dynamic provenance (a [Trace.why_live] chain from
   the live collector) to any finding's example object. *)

module ISet = Liveness.ISet

let pp_table ppf (t : Analysis.t) =
  Fmt.pf ppf "@[<v>%-5s %-10s %-10s %-10s %-8s %s@,"
    "gc#" "apparent" "precise" "measured" "excess" "spurious roots";
  List.iter
    (fun (s : Apparent.gc_snapshot) ->
      let app = ISet.cardinal s.apparent and pre = ISet.cardinal s.precise in
      let counts = Hashtbl.create 8 in
      List.iter
        (fun (r : Apparent.spurious_root) ->
          Hashtbl.replace counts r.sr_class
            (1 + Option.value (Hashtbl.find_opt counts r.sr_class) ~default:0))
        s.spurious;
      let breakdown =
        Hashtbl.fold
          (fun cls n acc -> Printf.sprintf "%s:%d" (Apparent.class_name cls) n :: acc)
          counts []
        |> List.sort compare |> String.concat " "
      in
      Fmt.pf ppf "%-5d %-10d %-10d %-10s %-8d %s@," s.ordinal app pre
        (match s.measured with
        | Some m -> string_of_int m.Ir.m_live_objects
        | None -> "-")
        (app - pre) breakdown)
    t.retention.Apparent.snapshots;
  Fmt.pf ppf "@]"

let pp_validation ppf (v : Analysis.validation) =
  Fmt.pf ppf "@[<v>soundness (precise \xe2\x8a\x86 apparent): %s@,"
    (if v.sound then "ok" else "VIOLATED");
  if v.n_measured > 0 then
    Fmt.pf ppf "cross-validation vs collector: %s (%d/%d points measured, worst err %d objs / %.1f%%)@,"
      (if v.within_tolerance then "ok" else "OUT OF TOLERANCE")
      v.n_measured v.n_gc_points v.worst_abs_err (100. *. v.worst_rel_err)
  else Fmt.pf ppf "cross-validation vs collector: no measured GC points@,";
  Fmt.pf ppf "@]"

let pp_fix ppf (f : Analysis.fix) =
  match f.Analysis.suggestion with
  | None -> Fmt.pf ppf "[%s] no mechanical fix" f.Analysis.finding.Lint.rule
  | Some s ->
      Fmt.pf ppf "%a" Fixes.pp_suggestion s;
      (match f.Analysis.verdict with
      | Some v -> Fmt.pf ppf "@,  %a" Fixes.pp_verdict v
      | None -> ())

let pp_fixes ppf (t : Analysis.t) =
  match t.Analysis.fixes with
  | [] -> Fmt.pf ppf "== fixes ==@,none@,"
  | fs ->
      Fmt.pf ppf "== fixes ==@,";
      List.iter (fun f -> Fmt.pf ppf "@[<v>%a@]@," pp_fix f) fs

let pp ?explain ?(fixes = false) ppf (t : Analysis.t) =
  Fmt.pf ppf "@[<v>== retention per GC point (%d objects allocated) ==@,%a@,"
    t.retention.Apparent.n_objects pp_table t;
  Fmt.pf ppf "== validation ==@,%a@," pp_validation (Analysis.validate t);
  (match t.findings with
  | [] -> Fmt.pf ppf "== findings ==@,none@,"
  | fs ->
      Fmt.pf ppf "== findings ==@,";
      List.iter
        (fun (f : Lint.finding) ->
          Fmt.pf ppf "%a@," Lint.pp_finding f;
          match (f.Lint.example_obj, explain) with
          | Some id, Some ex -> ex ppf id
          | _ -> ())
        fs);
  if fixes then pp_fixes ppf t;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled: the toolchain carries no JSON library)    *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr ppf s = Fmt.pf ppf "\"%s\"" (json_escape s)
let jbool ppf b = Fmt.pf ppf "%b" b

let jlist pp_elt ppf xs =
  Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ",") pp_elt) xs

let json_verdict ppf (v : Fixes.verdict) =
  Fmt.pf ppf
    "{\"gc_points\":%d,\"precise_preserved\":%a,\"apparent_not_worse\":%a,\"reads_preserved\":%a,\"no_premature_free\":%a,\"apparent_drop_bytes\":%d,\"sound\":%a}"
    v.Fixes.sv_gc_points jbool v.Fixes.sv_precise_preserved jbool v.Fixes.sv_apparent_not_worse
    jbool v.Fixes.sv_reads_preserved jbool v.Fixes.sv_no_premature_free
    v.Fixes.sv_apparent_drop_bytes jbool (Fixes.sound v)

let json_replay ppf (c : Replay.comparison) =
  Fmt.pf ppf
    "{\"retention_before\":%d,\"retention_after\":%d,\"retention_drop\":%d,\"reads_equal\":%a,\"skipped_after\":%d}"
    c.Replay.cmp_before.Replay.rp_total_retained c.Replay.cmp_after.Replay.rp_total_retained
    c.Replay.cmp_retention_drop jbool c.Replay.cmp_reads_equal
    c.Replay.cmp_after.Replay.rp_skipped

let json_fix ~replay (t : Analysis.t) ppf (f : Analysis.fix) =
  Fmt.pf ppf "{\"rule\":%a,\"title\":%a" jstr f.Analysis.finding.Lint.rule jstr
    f.Analysis.finding.Lint.title;
  (match f.Analysis.suggestion with
  | None -> Fmt.pf ppf ",\"fix\":null"
  | Some s ->
      Fmt.pf ppf ",\"fix\":{\"title\":%a,\"edits\":%d" jstr s.Fixes.fx_title
        (List.length s.Fixes.fx_edits);
      (match f.Analysis.verdict with
      | Some v -> Fmt.pf ppf ",\"static\":%a" json_verdict v
      | None -> ());
      if replay then
        Fmt.pf ppf ",\"replay\":%a" json_replay
          (Replay.compare_fix t.Analysis.program s.Fixes.fx_edits);
      Fmt.pf ppf "}");
  Fmt.pf ppf "}"

let json_snapshot ppf (s : Apparent.gc_snapshot) =
  Fmt.pf ppf
    "{\"ordinal\":%d,\"apparent\":%d,\"precise\":%d,\"apparent_bytes\":%d,\"precise_bytes\":%d,\"measured\":%s,\"stack_excess\":%d}"
    s.Apparent.ordinal
    (ISet.cardinal s.Apparent.apparent)
    (ISet.cardinal s.Apparent.precise)
    s.Apparent.apparent_bytes s.Apparent.precise_bytes
    (match s.Apparent.measured with
    | Some m -> string_of_int m.Ir.m_live_objects
    | None -> "null")
    s.Apparent.stack_excess

let json ?name ?(replay = false) ppf (t : Analysis.t) =
  let v = Analysis.validate t in
  Fmt.pf ppf "{";
  (match name with Some n -> Fmt.pf ppf "\"scenario\":%a," jstr n | None -> ());
  Fmt.pf ppf
    "\"validation\":{\"sound\":%a,\"within_tolerance\":%a,\"gc_points\":%d,\"measured_points\":%d,\"worst_abs_err\":%d},"
    jbool v.Analysis.sound jbool v.Analysis.within_tolerance v.Analysis.n_gc_points
    v.Analysis.n_measured v.Analysis.worst_abs_err;
  Fmt.pf ppf "\"gc\":%a," (jlist json_snapshot) t.retention.Apparent.snapshots;
  Fmt.pf ppf "\"findings\":%a}" (jlist (json_fix ~replay t)) t.Analysis.fixes

let json_prediction ppf (p : Starvation.prediction) =
  Fmt.pf ppf
    "{\"class\":%a,\"black_pages\":%d,\"decayed_pages\":%d,\"forced_collects\":%d,\"live_pages\":%d,\"usable_pages\":%d}"
    jstr
    (Starvation.class_name p.Starvation.pr_class)
    p.Starvation.pr_black_pages p.Starvation.pr_decayed_pages p.Starvation.pr_forced_collects
    p.Starvation.pr_live_pages p.Starvation.pr_usable_pages

let json_matrix_entry ppf (e : Scenarios.matrix_entry) =
  Fmt.pf ppf "{\"name\":%a,\"predicted\":%a,\"measured\":%a,\"match\":%a,\"ladder_rungs\":%d," jstr
    e.Scenarios.m_name jstr
    (Starvation.class_name e.Scenarios.m_predicted)
    jstr
    (Starvation.class_name e.Scenarios.m_measured)
    jbool
    (e.Scenarios.m_predicted = e.Scenarios.m_measured)
    e.Scenarios.m_ladder_rungs;
  (match e.Scenarios.m_oom with
  | Some d ->
      Fmt.pf ppf
        "\"oom\":{\"message\":%a,\"blacklist_starved\":%a,\"memory_decayed\":%a}," jstr
        (Cgc.Gc.oom_message d) jbool d.Cgc.Gc.blacklist_starved jbool d.Cgc.Gc.memory_decayed
  | None -> Fmt.pf ppf "\"oom\":null,");
  Fmt.pf ppf "\"prediction\":%a}" json_prediction e.Scenarios.m_prediction
