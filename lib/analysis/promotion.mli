(** The promoted-garbage model: a static prediction of the paper's
    section 3.1 ceiling on generational collection.

    An object that is apparently live (conservative root scan,
    {!Apparent}) at [promote_after] consecutive GC points is predicted
    promoted; predicted-promoted objects that are precisely dead at the
    last GC point are predicted {e promoted garbage} — dead data a
    minor collection can never reclaim.  The model is object-grained
    where the collector promotes page-wise, so agreement with the
    measured figure ({!Replay.promoted_garbage}) is banded: {!agrees}
    allows the larger of one page (4096B) or 25% of the prediction. *)

type prediction = {
  pr_promote_after : int;
  pr_promoted : (int * int) list;  (** (id, bytes), predicted promoted *)
  pr_promoted_bytes : int;
  pr_garbage : (int * int) list;
      (** predicted-promoted objects precisely dead at the last GC point *)
  pr_garbage_bytes : int;
}

val predict : ?promote_after:int -> Ir.program -> prediction
(** Default [promote_after] 2, matching {!Cgc.Generational.create}. *)

val tolerance : prediction -> int
val agrees : prediction -> measured:int -> bool
