(** Recorded-run scenarios: the repo's workloads with a trace recorder
    attached, analyzed and cross-validated against the live collector.

    Scenario names: [list-reverse-careless], [list-reverse-cleared],
    [grid-embedded], [grid-separate], [queue-no-clear], [queue-clear],
    [program-t-careless], [program-t-hygienic]. *)

type outcome = {
  o_name : string;
  o_analysis : Analysis.t;
  o_recorder : Recorder.t;
  o_gc : Cgc.Gc.t;
  o_note : string;
}

val names : string list
val run : string -> outcome option

val explain : outcome -> Format.formatter -> int -> unit
(** Report hook: prints the live collector's {!Cgc.Trace.why_live}
    chain for a finding's example object, if it is still allocated. *)

(** {1 The starvation matrix}

    Tiny-heap scenarios steered into each of the predictor's
    classifications — safe, ladder-rescuable, blacklist-starved (exact,
    hashed, and large-contiguity flavours), decay-vulnerable under an
    armed {!Cgc_vm.Mem.Fault} plan, and plain exhaustion — each
    classified statically from the recorded trace and dynamically from
    the real collector's OOM diagnosis and ladder counters. *)

type matrix_entry = {
  m_name : string;
  m_predicted : Starvation.classification;
  m_measured : Starvation.classification;
  m_prediction : Starvation.prediction;
  m_oom : Cgc.Gc.oom_diagnosis option;
  m_ladder_rungs : int;
  m_note : string;
}

val starvation_matrix : unit -> matrix_entry list
val pp_matrix_entry : Format.formatter -> matrix_entry -> unit

(** {1 The generational fix matrix}

    The four headline findings (R1/R2/R5) replayed original-vs-fixed
    through a fresh {!Cgc.Generational} collector, with the
    {!Promotion} model's predicted garbage cross-checked against the
    measured promoted garbage ({!Replay.gen_comparison}) on both sides of each fix. *)

val gen_promote_after : int
(** Promotion threshold used across the matrix (and by the bench /
    [cgc_lab] front-ends, so their figures line up with selfcheck). *)

type gen_fix_entry = {
  g_scenario : string;
  g_rule : string;
  g_cmp : Replay.gen_comparison;
  g_predicted_before : Promotion.prediction;
  g_predicted_after : Promotion.prediction;
}

val generational_fixes : ?outcomes:outcome list -> unit -> gen_fix_entry list
(** Run (or reuse) the scenarios and replay each target's suggested
    fix through the generational backend.  Targets whose scenario or
    suggestion is missing are dropped — {!selfcheck} asserts all four
    are present. *)

val pp_gen_fix_entry : Format.formatter -> gen_fix_entry -> unit

val selfcheck : unit -> (string * bool) list * outcome list
(** The pinned acceptance matrix: per-scenario soundness and
    measurement tolerance, which lint rules must and must not fire
    where, fix suggestions verified both statically and by collector
    replay (conservative {e and} generational, the latter with the
    promotion model's predictions checked against measured promoted
    garbage), and exact static-vs-measured agreement across the
    starvation matrix (including at least one memory-decay OOM). *)
