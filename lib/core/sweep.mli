(** The sweep phase.

    Walks every committed page in address order, reclaims unmarked
    objects by clearing their alloc bits, and returns fully empty pages
    to the heap's free-page pool.  It builds no page view.  A small page costs one word-at-a-time
    pass over its bitmap words ({!Cgc_vm.Bitset.sweep_words}); freed
    objects are visited one by one, in address order, only while the
    finalization registry is non-empty, to feed its queue.  Without finalizers the
    sweep allocates nothing per page or object.
    The alloc bitmaps are the free lists: the collector's per-class
    cursor finds the cleared slots there, lowest address first, so
    the sweep builds no list of its own. *)

type result = {
  swept_objects : int;  (** objects reclaimed *)
  swept_bytes : int;
  live_objects : int;
  live_bytes : int;
  pages_released : int;  (** pages returned to the free pool *)
}

val run : ?keep_live:(int -> bool) -> Heap.t -> Finalize.t -> Stats.t -> result
(** Consumes the mark bits set by {!Mark.run} (they are cleared for
    small pages as a side effect of being consulted; large-object mark
    flags are reset).  Reads the page table's rows only; a page left
    empty goes back through {!Heap.release}.

    [keep_live] (default: no page) names the pages a generational
    collector exempts by page index: such a page contributes its
    allocated objects to the live counts and is otherwise left untouched
    — its mark bits are not consulted. *)
