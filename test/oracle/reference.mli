(** The reference conservative marker: a direct transcription of the
    paper's figure 2 over its own view-based {!classify}, with per-word
    closures through {!Cgc_vm.Segment.iter_words}, an allocating
    classification per word and a variant match for every mark-bit
    update.

    It is an oracle, so it owns everything a marking bug could hide in —
    its mark stack, push, stack-limit test, overflow counting and
    overflow recovery — and shares only {!Cgc.Heap.clear_marks},
    {!Cgc.Blacklist} and {!Cgc.Stats} with the collector's trace
    kernel.  On the same heap it must leave mark
    bitmaps, blacklist and counters bit-identical to [Gc.Internal.run_mark].
    It has no header cache, but counts into [Stats.header_cache_hits] the
    hits the kernel's one-entry cache must score: an in-heap word whose
    page is the previous in-heap word's page, within one mark phase. *)

val run : Cgc.Gc.t -> unit
(** A full mark phase over the collector's roots: clear the marks, open a
    blacklist cycle, scan registers then ranges (draining after each
    value and range), and recover from mark-stack overflow.  Leaves the
    mark bits set for the sweeper, like [Gc.Internal.run_mark]. *)

val classify : Cgc.Heap.t -> Cgc.Config.t -> int -> Cgc.Mark.classification
(** The paper's validity test, transcribed against {!Cgc.Page.t} views
    of the page table and dividing where the kernel multiplies by the
    reciprocal.  [Cgc.Mark.classify] must agree with it on every value,
    [page] field included. *)
