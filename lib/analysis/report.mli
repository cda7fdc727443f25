(** Report printer for analysis results. *)

val pp :
  ?explain:(Format.formatter -> int -> unit) ->
  ?fixes:bool ->
  Format.formatter ->
  Analysis.t ->
  unit
(** Full report.  [explain] is called with each finding's example
    object id, letting the caller print a dynamic provenance chain
    (e.g. {!Cgc.Trace.why_live}) from the live collector.  [fixes]
    appends the fixes section. *)

(** {1 JSON}

    Hand-rolled emitters (the toolchain carries no JSON library) for
    the CI artifact and machine-readable diffing. *)

val json : ?name:string -> ?replay:bool -> Format.formatter -> Analysis.t -> unit
(** One scenario's analysis as a JSON object: validation verdict,
    per-GC-point table, findings with their fix verdicts.  [replay]
    additionally replays each suggested fix through a real collector
    and embeds the measured retention drop. *)

val json_matrix_entry : Format.formatter -> Scenarios.matrix_entry -> unit
(** One starvation-matrix row as a JSON object: predicted vs measured
    class, ladder rungs, the OOM diagnosis if any, and the prediction's
    page counts. *)
