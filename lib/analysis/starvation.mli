(** Static OOM-diagnosis prediction.

    Classifies how a recorded program's allocation behavior ends —
    [Safe], rescued by the escalation ladder, starved by the blacklist,
    killed by decayed memory, or genuinely exhausted — by mirroring the
    collector's failure semantics at page granularity over the marker
    model's snapshots.  [classify_measured] reads the same
    classification off a finished run (its OOM diagnosis and ladder
    counters), so predictions can be validated exactly against the real
    collector. *)

type classification =
  | Safe  (** no OOM, no escalation-ladder rungs (plain growth included) *)
  | Ladder_rescuable  (** the ladder fired (forced collects, relaxation) but the program survived *)
  | Blacklist_starved  (** OOM with room left when the blacklist is ignored *)
  | Decay_vulnerable  (** OOM forced by decay-quarantined pages *)
  | Exhausted  (** OOM with no such escape: the heap is simply too small *)

val class_name : classification -> string

type geometry = {
  st_page_size : int;
  st_reserved_pages : int;
  st_initial_pages : int;
  st_space_divisor : int;
  st_max_small_bytes : int;
  st_blacklisting : bool;
  st_relax_blacklist : bool;
  st_atomic_on_black : bool;
  st_auto_collect : bool;
  st_heap_base : int;
  st_blacklist : Cgc.Blacklist.geometry;
}

val capture : Cgc.Gc.t -> geometry
(** Snapshot the collector-side facts the predictor needs (page
    geometry, budget rule, blacklist representation).  Capture at
    attach time: the values are configuration, not run state. *)

type decay_hint = {
  dh_every : int;  (** guarded writes per injected decay fault *)
  dh_region_bytes : int;
}

type site = {
  site_bytes : int;
  site_pointer_free : bool;
  site_count : int;
  site_class : classification;
}

type prediction = {
  pr_class : classification;
  pr_black_pages : int;
  pr_decayed_pages : int;
  pr_forced_collects : int;
      (** GC points arriving well under the auto-collect budget — the
          trace signature of ladder-forced collections *)
  pr_live_pages : int;
  pr_usable_pages : int;
  pr_sites : site list;
      (** per allocation kind (size, atomicity), most frequent first *)
  pr_note : string;
}

val predict : ?decay:decay_hint -> geometry -> Ir.program -> Apparent.result -> prediction

val ladder_rungs : Cgc.Stats.t -> int
(** Total escalation-ladder rungs a run fired, summed over the rung
    counters. *)

val classify_measured : oom:Cgc.Gc.oom_diagnosis option -> Cgc.Stats.t -> classification
