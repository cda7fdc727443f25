(** Collector statistics.

    Besides the usual allocation/reclamation counters, we count the
    quantities the paper reports on directly: false references seen
    while marking, blacklist bookkeeping operations (behind the "usually
    less than 1%" overhead claim of footnote 3), and per-phase time.

    The trace-phase counters ([words_scanned], [valid_refs],
    [false_refs], [objects_marked], [header_cache_hits],
    [mark_stack_overflows], [mark_downgrades]) count every run of the
    trace kernel, {!Generational} minor collections included.  The
    serial kernel adds the first five once per trace, as the trace ends,
    so they do not move while it runs.  A minor
    starts with its old objects already marked, so its
    [objects_marked] counts the young objects it marked, and its
    [valid_refs] includes references to old objects. *)

type t = {
  mutable collections : int;
      (** full collections: {!Gc.collect} and {!Precise.collect}.
          {!Generational} minor collections are not counted here (they
          are in {!Generational.stats}), though their trace counters and
          phase times are *)
  mutable words_scanned : int;  (** root + heap words examined by the marker *)
  mutable valid_refs : int;  (** scanned values that named a live object *)
  mutable false_refs : int;  (** scanned values inside the heap region that named no object *)
  mutable objects_marked : int;
  mutable header_cache_hits : int;
      (** classification lookups answered by the marker's one-entry page
          cache: at most one per in-heap candidate, so never more than
          [valid_refs + false_refs].  Popping an object to scan it is not
          a lookup and is not counted. *)
  mutable bytes_allocated : int;  (** cumulative *)
  mutable objects_allocated : int;
  mutable bytes_freed : int;
  mutable objects_freed : int;
  mutable live_bytes : int;  (** after the most recent sweep *)
  mutable live_objects : int;
  mutable heap_expansions : int;
      (** placements (a small page or a large run) that committed pages,
          i.e. whose run crossed the committed watermark; the ladder's
          grow rung counts in [ladder_expansions] instead *)
  mutable mark_stack_overflows : int;
  mutable blacklist_alloc_checks : int;
      (** allocation-side page checks: one per vacant page the run finder
          asked about while blacklisting is on (decayed pages excepted) *)
  mutable blacklist_rejected_pages : int;  (** page checks vetoed by the blacklist *)
  mutable ladder_collects : int;
      (** allocation-ladder rung: collections forced by a failed request *)
  mutable ladder_trims : int;  (** rung: trailing free pages released and the request retried *)
  mutable ladder_expansions : int;  (** rung: heap growth attempts on behalf of a request *)
  mutable ladder_backoffs : int;
      (** expansion-size halvings after a grow attempt was refused by the (simulated) OS *)
  mutable ladder_relax_first_page : int;
      (** rung: blacklist strictness dropped to first-page-only for a starved request *)
  mutable ladder_relax_black : int;
      (** rung: allocation permitted on blacklisted pages outright *)
  mutable commit_faults : int;  (** injected commit/map failures absorbed by the ladder *)
  mutable read_faults : int;
      (** injected read failures observed by the collector (mark-phase
          probes plus field accessors) *)
  mutable write_faults : int;
      (** injected write failures observed by the collector (allocation
          zeroing plus field accessors) *)
  mutable mark_downgrades : int;
      (** mark-phase words downgraded to "not a pointer" after a read
          fault: the word is skipped, never retained *)
  mutable pages_decayed : int;  (** heap pages quarantined after a decay write fault *)
  mutable decay_retries : int;
      (** allocations retried after the returned slot's memory decayed
          (or its page was quarantined) under the allocator *)
  mutable oom_raised : int;  (** structured [Out_of_memory] raises after the ladder ran dry *)
  mutable precise_collections : int;
      (** exact (type-accurate) collections completed by {!Precise.collect} *)
  mutable precise_mark_aborts : int;
      (** exact mark phases abandoned after an access fault, with the
          pre-collect mark state restored *)
  mutable precise_stale_roots : int;
      (** exact root-provider slots naming freed or decayed addresses —
          counted and audited rather than silently skipped *)
  mutable mark_seconds : float;
  mutable sweep_seconds : float;
  mutable total_gc_seconds : float;
      (** phase times, in seconds of {!now_s}, of every collection
          cycle, {!Generational} minors included *)
}

val now_s : unit -> float
(** The monotonic wall clock the phase times are read from, in seconds.
    Wall time, not process CPU time: a phase time is the pause the
    mutator sees. *)

val create : unit -> t

val add_cycle_time : t -> t0:float -> t1:float -> t2:float -> unit
(** Charge one collection cycle that started at [t0], finished marking
    at [t1] and finished sweeping at [t2] (all {!now_s} readings) to
    [mark_seconds], [sweep_seconds] and [total_gc_seconds]. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
