(** Conservative marking with blacklisting — the paper's figure 2.

    {v
    mark(p) {
      if p is not a valid object address
        if p is in the vicinity of the heap
          add p to blacklist
        return
      if p is marked return
      set mark bit for p
      for each field q in the object referenced by p
        mark(q)
    }
    v}

    The recursion is realised with an explicit mark stack; "fields" are
    every word of the object at the configured alignment, since the
    collector has no layout information — except on pages typed with a
    {!Type_desc.t} ({!Page.layout}), where they are the descriptor's
    pointer words alone.

    One serial trace kernel serves every collection, {!Precise} included
    (on a marker of its own with an exact classifier): mark-stack entries
    that carry each object's scan extent (a conservative small object's
    words are scanned without a descriptor load, a pointer-free one not
    at all), flat page-descriptor rows from {!Heap.desc} for the rest, a
    one-entry header cache for classification, reciprocal object
    indexing, closure-free endianness-specialized scan loops of 32-bit
    loads, displacement bitmasks.  {!run} is the full mark phase;
    {!trace} is the kernel alone, which the generational minor
    collection runs over its young scope.  The differential tests pin
    the kernel against an independent reference marker that lives with
    the tests, built on {!classify}. *)

open Cgc_vm

type classification =
  | Valid of { base : Addr.t; page : int }
      (** a reference to (possibly the interior of) a live object *)
  | False_in_heap of { page : int }
      (** not a valid object address, but within the reserved heap
          region — a candidate for blacklisting *)
  | Outside  (** cannot be or become a heap pointer *)

val classify : Heap.t -> Config.t -> int -> classification
(** Classify a scanned word value.  Pure with respect to mark state. *)

type t

val create : ?stop_on_fault:bool -> Heap.t -> Config.t -> Blacklist.t -> Stats.t -> t
(** [stop_on_fault] (default [false]) ends a {!trace} at its first
    downgraded word, leaving the marks partial: for a caller that
    discards such a trace anyway ({!Precise}), where finishing it would
    only read more faulting memory. *)

val run : t -> Roots.t -> mem:Mem.t -> unit
(** Perform a full mark phase: {!Heap.clear_marks}, open a blacklist
    cycle, then {!trace}.  Statistics are updated; the heap's mark bits
    are left set for the sweeper. *)

val trace : ?extra:Roots.range list -> t -> Roots.t -> mem:Mem.t -> unit
(** The trace kernel, from the mark bits as it finds them: scan every
    register value, then every root range, then every [extra] range
    (default none), draining the mark stack after each, and end with
    the bounded-stack overflow recovery.  An object already marked on
    entry counts as a valid reference but is never pushed, so a caller
    makes objects live and opaque by marking them first — the
    generational minor pre-marks its old pages and passes their dirty
    objects as [extra].  Overflow recovery rescans every marked object,
    pre-marked ones included.  Does not clear marks or open a blacklist
    cycle.  The trace's [words_scanned], [valid_refs], [false_refs],
    [objects_marked] and [header_cache_hits] reach its {!Stats.t} once,
    as it ends, normally or by an exception. *)

(** The parallel tracer: N marker domains, each with a private
    Chase-Lev mark stack ({!Cgc_vm.Ws_deque}) and a private one-entry
    header cache, pulling root tasks from a shared queue and stealing
    object work from each other.  Mark bits are won through atomic
    shadow tables ({!Cgc_vm.Bitset.Atomic.test_and_set}) written back
    serially after the domains join; blacklist notes are buffered
    per-domain (pre-bucketed) and merged at the end barrier; stats
    shards are summed so every counter keeps its serial meaning.
    Mark-stack overflow generalizes the serial page rescan to "any idle
    domain claims the next committed page".

    The result — mark bitmap, blacklist, downgrade behavior — is
    bit-identical to the serial marker for any [jobs], pinned by the
    [test_mark_diff] QCheck differential.

    The tracer is fail-stop: a domain that raises sets an abandon flag
    that every other domain unwinds on at its next claim, nap or
    barrier; {!Parallel.run} joins every domain and re-raises the first
    exception, leaving the mark bits cleared and the blacklist and
    statistics untouched. *)
module Parallel : sig
  type fallback =
    | Serial_configured  (** [jobs <= 1]: the serial fast path, by design *)
    | Access_plan_armed
        (** a [Mem.Fault] access plan is armed; its trip streams are
            stateful (countdowns, seeded draws) and cannot be raced
            across domains, so the serial marker ran instead *)

  val fallback_to_string : fallback -> string

  type outcome = {
    jobs_requested : int;
    domains_used : int;
        (** [jobs_requested] when the parallel tracer ran, 1 on the
            serial fallbacks *)
    fallback : fallback option;  (** [None] iff the parallel tracer ran *)
    shards : Stats.t array;
        (** per-domain stats snapshots (empty on fallback); their
            trace-phase counters sum to the serial totals *)
  }

  val run : t -> Roots.t -> mem:Mem.t -> jobs:int -> outcome
  (** Like {!run}, with [jobs] marker domains.  [jobs <= 1] or an armed
      access plan runs the serial marker and says so in the outcome.
      Re-raises the first exception a marker domain raised, after
      every domain has joined. *)
end
