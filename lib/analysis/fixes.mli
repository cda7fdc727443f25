(** Verified fix suggestions for lint findings.

    A suggestion is a list of mechanical IR edits — link-field clears
    placed just after an object's last access, [Stack_clear]s placed
    just before GC points, or atomic re-allocations — generated so the
    edit provably cannot change the program's reads or its precise
    retention.  [verify_static] checks that claim by re-running the
    full liveness + marker pipeline on the edited program; {!Replay}
    provides the dynamic half (measured retention through the real
    collector). *)

type edit =
  | Insert of { at : int; instr : Ir.instr }
      (** insert [instr] before original instruction index [at]
          ([at = length] appends) *)
  | Make_atomic of { obj : int }
      (** rewrite the object's [Alloc] to [pointer_free = true] *)

type suggestion = {
  fx_rule : string;  (** the lint rule this fix closes *)
  fx_title : string;
  fx_edits : edit list;
  fx_rationale : string;
}

type verdict = {
  sv_gc_points : int;
  sv_precise_preserved : bool;
      (** per-GC precise sets identical on the edited program *)
  sv_apparent_not_worse : bool;
      (** per-GC apparent sets are subsets of the originals *)
  sv_reads_preserved : bool;
      (** the full read stream (every value any read returns) is
          unchanged *)
  sv_no_premature_free : bool;
      (** the edit does not let the marker reclaim any object strictly
          before its last recorded access (unless the original model
          already reclaimed it at least as early) — the static mirror
          of a replay landing on recycled memory *)
  sv_apparent_drop_bytes : int;
      (** total predicted retention reduction over all GC points *)
}

val sound : verdict -> bool

val apply : Ir.program -> edit list -> Ir.program
(** Apply edits; insert positions refer to original indices, so a list
    of edits needs no re-indexing. *)

val verify_static : Ir.program -> edit list -> verdict

val suggest :
  Ir.program -> Liveness.t -> Apparent.result -> Shape.t -> Lint.finding -> suggestion option
(** The concrete edit list for a finding, or [None] when the finding
    has no mechanically expressible fix (R4 on genuinely
    pointer-holding objects, for instance). *)

val pp_suggestion : Format.formatter -> suggestion -> unit
val pp_verdict : Format.formatter -> verdict -> unit
