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
    indexing, closure-free scan loops (at alignment 4 on a little-endian
    host, a block scan that reads four words from two 64-bit loads and
    skips an all-zero block with one test, and a drain loop picked once
    per call that reads an 8- or 16-byte object with one or two loads in
    straight-line code; otherwise one 32-bit load per word, specialized
    per byte order), displacement bitmasks.  It is the
    only tracer: marking is serial, as in the paper's collector.  {!run}
    is the full mark phase;
    {!trace} is the kernel alone, which the generational minor
    collection runs over its young scope.  The differential tests pin
    the kernel against an independent reference marker that lives with
    the tests, with a view-based classifier of its own. *)

open Cgc_vm

type classification =
  | Valid of { base : Addr.t; page : int }
      (** a reference to (possibly the interior of) a live object *)
  | False_in_heap of { page : int }
      (** not a valid object address, but within the reserved heap
          region — a candidate for blacklisting *)
  | Outside  (** cannot be or become a heap pointer *)

val valid_base : Heap.t -> Config.t -> int -> int
(** The base of the object a scanned word value validly references, or
    -1: the object {!Heap.find_object} finds for it, kept when the
    configuration's validity rules ([interior_pointers],
    [valid_displacements], [large_validity]) accept the value's
    displacement into it.  Reads the page table's rows, builds no page
    view and allocates nothing; pure with respect to mark state. *)

val classify : Heap.t -> Config.t -> int -> classification
(** {!valid_base} with its three cases told apart, for cold callers:
    [Valid] when it finds a base, else [False_in_heap] for a value in
    the reserved region, else [Outside].  A valid reference's [page] is
    the object's (a large tail's head); a false one's is the value's
    own. *)

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

val trace : ?dirty:Bitset.t -> t -> Roots.t -> mem:Mem.t -> unit
(** The trace kernel, from the mark bits as it finds them: scan every
    register value, then every root range, then the live
    pointer-bearing objects of the pages in [dirty] (default none),
    draining the mark stack after each, and end with the bounded-stack
    overflow recovery.  [dirty]'s universe is the heap's pages; for each
    of its pages in increasing order, every allocated slot of a small
    page whose layout is not pointer-free, or the object of an allocated
    large head that is not pointer-free, is scanned in full, all its
    words at the scan alignment (a typed object's too), in address
    order, as a root range over the object would be.  An object already
    marked on entry counts as a valid reference but is never pushed, so
    a caller makes objects live and opaque by marking them first — the
    generational minor pre-marks its old pages and passes its dirty old
    pages as [dirty].  Overflow recovery rescans every marked object,
    pre-marked ones included.  Does not clear marks or open a blacklist
    cycle.  Allocates nothing per object or page.  The trace's
    [words_scanned], [valid_refs], [false_refs], [objects_marked] and
    [header_cache_hits] reach its {!Stats.t} once, as it ends, normally
    or by an exception. *)

(** Kept only for gcbench's frozen [mark_parallel.*] probe, and deleted
    with it: the parallel tracer is gone, and
    [Gc.Internal.run_mark_parallel] runs this serial {!run}. *)
module Parallel : sig
  type fallback = Tracer_removed  (** the serial {!run} marked instead *)

  type outcome = {
    fallback : fallback option;  (** always [Some Tracer_removed] *)
    shards : Stats.t array;
        (** one shard holding this mark's [words_scanned], [valid_refs],
            [false_refs], [objects_marked] and [header_cache_hits] *)
  }

  val run : t -> Roots.t -> mem:Mem.t -> outcome
end
