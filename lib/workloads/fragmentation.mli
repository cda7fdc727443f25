(** Section 5 (conclusions): free-list discipline and fragmentation.

    "Even a completely nonmoving conservative collector should gain a
    slight advantage over a malloc/free implementation, in that it is
    usually much less expensive to keep free lists sorted by address.
    This increases the probability that related objects are allocated
    together, and thus increases the probability of large chunks of
    adjacent space becoming available in the future, decreasing
    fragmentation."

    A churn workload (allocate a population of mixed-size objects,
    repeatedly free a random half and reallocate with a drifting size
    mix) runs against the explicit allocator under both free-list
    policies, and against the collector (whose sweep produces
    address-ordered lists for free). *)

type allocator =
  | Malloc_lifo
  | Malloc_address_ordered
  | Collector

type result = {
  allocator : allocator;
  iterations : int;
  population : int;
  live_bytes : int;
  committed_bytes : int;
  fragmentation : float;  (** committed / live *)
  releasable_pages : int;  (** empty pages that page-level trimming can return *)
}

val run : ?seed:int -> allocator -> population:int -> iterations:int -> result

val pp : Format.formatter -> result -> unit
