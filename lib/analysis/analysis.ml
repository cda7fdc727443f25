(* Facade: run the whole static pipeline over one IR program and
   validate the prediction against the collector's own measurements
   recorded in the trace. *)

module ISet = Liveness.ISet

type fix = {
  finding : Lint.finding;
  suggestion : Fixes.suggestion option;
  verdict : Fixes.verdict option;  (** static verification, when a suggestion exists *)
}

type t = {
  program : Ir.program;
  liveness : Liveness.t;
  retention : Apparent.result;
  shape : Shape.t;
  findings : Lint.finding list;
  fixes : fix list;  (** one entry per finding, in finding order *)
}

let run ?(suggest_fixes = true) program =
  let liveness = Liveness.analyze program in
  let retention = Apparent.analyze program liveness in
  let shape = Shape.build program retention in
  let findings = Lint.run program retention shape in
  let fixes =
    List.map
      (fun finding ->
        let suggestion =
          if suggest_fixes then Fixes.suggest program liveness retention shape finding else None
        in
        let verdict =
          Option.map (fun (s : Fixes.suggestion) -> Fixes.verify_static program s.Fixes.fx_edits)
            suggestion
        in
        { finding; suggestion; verdict })
      findings
  in
  { program; liveness; retention; shape; findings; fixes }

type validation = {
  sound : bool;  (** precise is a subset of apparent at every GC point *)
  n_gc_points : int;
  n_measured : int;  (** GC points carrying collector measurements *)
  worst_abs_err : int;
      (** max |apparent - measured| in objects over measured points *)
  worst_rel_err : float;
  within_tolerance : bool;
      (** every measured point within max(2, 10%) of the measurement *)
}

let validate t =
  let sound = ref true in
  let n_measured = ref 0 in
  let worst_abs = ref 0 in
  let worst_rel = ref 0. in
  let ok = ref true in
  List.iter
    (fun (s : Apparent.gc_snapshot) ->
      if not (ISet.subset s.precise s.apparent) then sound := false;
      match s.measured with
      | None -> ()
      | Some m ->
          incr n_measured;
          let predicted = ISet.cardinal s.apparent in
          let err = abs (predicted - m.Ir.m_live_objects) in
          let rel =
            if m.Ir.m_live_objects = 0 then if err = 0 then 0. else 1.
            else float_of_int err /. float_of_int m.Ir.m_live_objects
          in
          if err > !worst_abs then worst_abs := err;
          if rel > !worst_rel then worst_rel := rel;
          let tol = max 2 (m.Ir.m_live_objects / 10) in
          if err > tol then ok := false)
    t.retention.Apparent.snapshots;
  {
    sound = !sound;
    n_gc_points = List.length t.retention.Apparent.snapshots;
    n_measured = !n_measured;
    worst_abs_err = !worst_abs;
    worst_rel_err = !worst_rel;
    within_tolerance = !ok;
  }

let has_finding t rule = List.exists (fun (f : Lint.finding) -> f.Lint.rule = rule) t.findings

let max_excess t =
  List.fold_left
    (fun acc (s : Apparent.gc_snapshot) ->
      max acc (ISet.cardinal s.apparent - ISet.cardinal s.precise))
    0 t.retention.Apparent.snapshots

let fix_for t rule =
  List.find_opt (fun f -> f.finding.Lint.rule = rule && f.suggestion <> None) t.fixes
