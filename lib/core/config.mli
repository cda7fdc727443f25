(** Collector configuration.

    Every technique studied in the paper is an independent knob here, so
    experiments can ablate them: blacklisting (section 3), interior
    pointer recognition and scan alignment (section 2), treatment of
    pointers into the middle of large objects (section 3, observation 7),
    and the allocator's avoidance of addresses with many trailing zeros
    (section 2, figure 1). *)

val granule : int
(** Allocation granularity in bytes: the 4-byte machine word.  Object
    sizes round up to it, and interior displacements are recognized
    only at multiples of it. *)

type large_validity =
  | Anywhere
      (** any pointer into a large object retains it — the strict
          interior-pointer regime that makes > 100 KB objects hard to
          place (paper observation 7) *)
  | First_page_only
      (** only pointers into the object's first page are valid; the
          paper notes the blacklist problem "is never a problem if
          addresses that do not point to the first page of an object can
          be considered invalid" *)

type t = {
  page_size : int;  (** bytes per heap block; a power of two *)
  interior_pointers : bool;
      (** recognize pointers to object interiors, "often required if the
          source language requires that array elements can be passed by
          reference" *)
  valid_displacements : int list;
      (** when [interior_pointers] is off, interior pointers at exactly
          these byte displacements are still recognized (the
          registered-displacement compromise used by language
          implementations whose objects carry a known header offset);
          offset 0 is always valid *)
  large_validity : large_validity;
      (** only consulted when [interior_pointers] is true *)
  alignment : int;
      (** granularity (1, 2 or 4 bytes) at which scanned memory is
          examined for pointers; 4 models compilers that guarantee
          alignment, below 4 models the unpleasant unaligned case *)
  blacklisting : bool;  (** the paper's central technique *)
  blacklist_buckets : int option;
      (** [None]: exact bit array indexed by page number.  [Some n]: the
          paper's hash-table variant with [n] one-bit buckets (pages
          colliding with a false reference's bucket are also treated as
          black) *)
  blacklist_refresh : bool;
      (** when true, "blacklisted values that are no longer found by a
          later collection may be removed from the list" (two-cycle
          aging); when false the blacklist only grows *)
  atomic_on_black_pages : bool;
      (** allow small pointer-free objects to be allocated on
          blacklisted pages, since "very little memory will ever be
          reachable from these objects" *)
  avoid_trailing_zeros : int option;
      (** [Some k]: never place an object at an address with [>= k]
          trailing zero bits (counters the figure-1 halfword hazard) *)
  initial_pages : int;  (** pages committed up front *)
  max_expand_pages : int;
      (** starting batch for the allocation ladder's grow rung: when the
          (simulated) OS refuses a [max_expand_pages]-sized expansion,
          the ladder halves the batch, down to the pages the request
          needs (at least one, at most the room left), before giving up
          (capped-backoff expansion sizing) *)
  space_divisor : int;
      (** collect when bytes allocated since the last collection exceed
          committed-heap-bytes / [space_divisor]; smaller keeps the heap
          tighter at the price of more frequent collections *)
  mark_stack_limit : int option;
      (** bound on the explicit mark stack; on overflow the marker drops
          entries and recovers by rescanning marked objects until a
          fixpoint (the classic Boehm-collector strategy).  [None] means
          unbounded. *)
  relax_blacklist : bool;
      (** permit the allocation ladder's blacklist-relaxation rungs: a
          request starved by black pages may fall back to first-page-only
          placement and finally to allocating on blacklisted pages
          outright (counted in {!Stats}).  Off by default so retention
          experiments keep the paper's strict regime — relaxation trades
          the blacklist's space guarantee for availability, Boehm's
          pragmatic answer to observation 7 *)
}

val default : t
(** 4 KB pages, interior pointers on ([Anywhere]), aligned scanning,
    blacklisting on with refresh, atomic-on-black on, no trailing-zero
    avoidance, 64 initial pages, grow-rung batch 256 pages, space
    divisor 3, blacklist relaxation off.  Every allocation comes back
    zeroed, so reused memory cannot leak stale pointers into the scan;
    that is not a setting. *)

val validate : t -> unit
(** @raise Invalid_argument on inconsistent settings. *)

val max_small_bytes : t -> int
(** Largest request served from size-classed pages ([page_size / 2]);
    larger requests become multi-page "large" objects. *)

val displacement_mask : t -> int array
(** Bitmask form of [valid_displacements] for the scan fast path: bit
    [d / granule] (62 bits per array word) is set iff byte displacement
    [d] is recognized.  Bit 0 is always set. *)

val displacement_in_mask : int array -> int -> bool
(** [displacement_in_mask mask d]: whether displacement [d] is
    recognized — equivalent to
    [d = 0 || List.mem d valid_displacements] on the mask's source
    config, in O(1). *)

val pp : Format.formatter -> t -> unit
