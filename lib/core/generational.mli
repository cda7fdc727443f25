(** A two-generation extension of the conservative collector.

    The paper cites generational conservative hybrids [5, 12] as routine
    and observes their Achilles' heel (section 3.1): "stray stack
    pointers can significantly lengthen the lifetime of some objects,
    thus placing a ceiling on the effectiveness of generational
    collection".  This module makes that measurable.

    Generations are page-grained: fresh pages are young; young pages
    whose objects survive [promote_after] consecutive minor collections
    are promoted wholesale.  Minor collections treat old objects as live
    and scan only the {e dirty} old pages (those written since the last
    minor collection — the write barrier is {!set_field}) plus the usual
    conservative roots; only young pages are swept, and fresh allocation
    is kept off old pages.

    The dirty-bit lifecycle: a barrier store into an old page sets its
    bit; promotion itself sets the bit too (the page's stores all
    happened while it was young, when no barrier was owed, so a freshly
    promoted page may hold uncovered young references); a minor
    collection rescans every dirty page and clears the bit
    {e unless the page still references young data} — such a page's bit
    is carried to the next minor (see {!carried_pages}), because the
    store that created the cross-generation edge happened once and the
    mutator owes no second barrier for it.  The bit drops when the young
    target dies or is promoted.  {!major} is an ordinary full
    collection; it empties the whole dirty set and resets the generation
    clock. *)

open Cgc_vm

type t

val create : ?promote_after:int -> Gc.t -> t
(** Wrap a collector (default [promote_after] 2).  The wrapped [Gc.t]
    should have automatic collection disabled: the generational policy
    decides when to collect.  Do not mix [Gc.collect] with minor
    collections except through {!major}.
    @raise Invalid_argument if [promote_after < 1]. *)

val gc : t -> Gc.t

val allocate : ?pointer_free:bool -> ?finalizer:string -> t -> int -> Addr.t
(** Allocate through the wrapped collector.  On [Gc.Out_of_memory] a
    {!major} collection runs and the request is retried once; if the
    retry also fails, the re-raised diagnosis records {e both} attempts
    (the first attempt's ladder rungs precede the retry's, and each
    boolean cause is the disjunction over the two attempts). *)

val set_field : t -> Addr.t -> int -> int -> unit
(** Pointer store with the write barrier: the object's page is marked
    dirty so the next minor collection rescans it.  The dirty bit is set
    only after the store succeeds: a store that raises
    [Mem.Write_fault] leaves the dirty set untouched. *)

val minor : t -> unit
(** Collect the young generation only.  Its trace counters and phase
    times land in the wrapped collector's {!Stats}; it counts in
    {!stats}'s [minor_collections], not in [Stats.collections]. *)

val major : t -> unit
(** Full collection; also re-derives generation state: the dirty set is
    emptied and {e every} page returns to the young generation with a
    fresh age (survivors re-earn tenure).  Resetting the clock is what
    makes emptying the dirty set sound — immediately after a major
    there is no old generation whose young references could go
    uncovered.  The cumulative promotion counters are not touched. *)

val is_old : t -> Addr.t -> bool
(** Whether the object's page has been promoted. *)

val dirty_pages : t -> int list
(** Indexes of old pages currently marked dirty (awaiting a rescan), in
    increasing order.  Exposed for write-barrier tests and audits. *)

val carried_pages : t -> int list
(** The subset of {!dirty_pages} whose bits the collector itself
    installed, in increasing order: rescan carryovers (the page still
    referenced young data) and fresh promotions (the page's
    pre-promotion stores were never barriered).  Between two minors,
    every dirty page is either carried or the target of a barrier
    store since the last minor — the replay harness audits exactly
    that. *)

val reset_stats : t -> unit
(** Zero the cumulative counters reported by {!stats} without touching
    generation state, so a harness can measure one window (a replay, a
    post-warm-up phase) in isolation. *)

type stats = {
  minor_collections : int;
  major_collections : int;
  promoted_pages : int;  (** cumulative *)
  promoted_bytes : int;  (** live bytes at the moment of promotion, cumulative *)
  dirty_pages_scanned : int;  (** cumulative write-barrier rescans *)
}

val stats : t -> stats
