(** The analyzer pipeline: liveness dataflow, conservative-marker
    model, lint rules — plus cross-validation of the prediction
    against the collector measurements embedded in the trace. *)

module ISet = Liveness.ISet

type fix = {
  finding : Lint.finding;
  suggestion : Fixes.suggestion option;
  verdict : Fixes.verdict option;
}

type t = {
  program : Ir.program;
  liveness : Liveness.t;
  retention : Apparent.result;
  shape : Shape.t;
  findings : Lint.finding list;
  fixes : fix list;  (** one entry per finding, in finding order *)
}

val run : ?suggest_fixes:bool -> Ir.program -> t
(** The full pipeline: liveness, marker model, access graphs, lint,
    and (unless [suggest_fixes] is [false]) a statically verified fix
    suggestion per finding that admits one. *)

type validation = {
  sound : bool;
  n_gc_points : int;
  n_measured : int;
  worst_abs_err : int;
  worst_rel_err : float;
  within_tolerance : bool;
}

val validate : t -> validation
(** [sound] checks the static over-approximation invariant (precise
    live set contained in the apparent one at every GC point);
    [within_tolerance] checks the apparent prediction against the
    collector's own post-sweep object counts, within max(2 objects,
    10%). *)

val has_finding : t -> string -> bool
(** Whether a lint rule (by id, e.g. ["R2"]) fired. *)

val max_excess : t -> int
(** Largest predicted (apparent - precise) object count — the
    retention gap the lint rules try to explain. *)

val fix_for : t -> string -> fix option
(** The first finding of the given rule that carries a suggestion. *)
