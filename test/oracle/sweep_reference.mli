(** The reference sweep: the per-object reclamation loop the collector
    ran before its word-wide {!Cgc_vm.Bitset.sweep} kernel.  Every
    allocated object of a small page is visited in address order, its
    mark bit probed, and a dead one has its alloc bit removed and its
    address handed to {!Cgc.Finalize.on_reclaimed}; large objects and
    [keep_live] pages are treated as {!Cgc.Sweep.run} treats them.

    On the same heap it must leave alloc bitmaps, mark bitmaps, page
    table, finalization registry and queue, {!Cgc.Stats} and result
    bit-identical to {!Cgc.Sweep.run}. *)

val run :
  ?keep_live:(int -> bool) -> Cgc.Heap.t -> Cgc.Finalize.t -> Cgc.Stats.t -> Cgc.Sweep.result
