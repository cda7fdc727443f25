(** The page blacklist (paper section 3, figure 2).

    During marking, a value that is not a valid object address but lies
    in the vicinity of the heap is recorded; its page is then avoided
    when fresh pages are handed to the allocator.  Following the paper,
    blacklisting is page-grained ("for reasons of performance and
    simplicity, we blacklist entire pages rather than individual
    addresses") and implemented as a bit array indexed by page number.

    Aging: with [refresh] on, entries live for two collection cycles —
    "blacklisted values that are no longer found by a later collection
    may be removed from the list".  A page is effectively black if it was
    recorded in the current or the previous cycle.

    Representation: the paper describes two variants — the exact bit
    array, and, for discontinuous heaps, "a hash table with one bit per
    entry.  If a false reference is seen to any of the pages with a
    given hash address, all of them are effectively blacklisted.  Since
    collisions can easily be made rare, this does not result in much
    lost precision."  Both are provided; the hashed variant trades a
    controllable amount of false blacklisting for O(buckets) memory. *)

type representation =
  | Exact  (** one bit per page *)
  | Hashed of int  (** one bit per hash bucket; the int is the bucket count *)

type t

val create : ?representation:representation -> n_pages:int -> refresh:bool -> unit -> t

val note : t -> int -> unit
(** Record a false reference into the given page (counted as one
    bookkeeping operation). *)

val is_black : t -> int -> bool

val begin_cycle : t -> unit
(** Start a new collection cycle (ages out stale entries when refresh is
    on; a no-op otherwise). *)

val count : t -> int
(** Number of currently black pages (for [Hashed], the number of pages
    whose bucket is black — including collision victims). *)

val representation : t -> representation

val ops : t -> int
(** Total bookkeeping operations performed (notes + cycle rotations),
    the quantity behind the paper's "less than 1%" overhead claim. *)

val note_override : t -> unit
(** Record that the allocator placed an object on a black page anyway —
    the ladder's relaxation tiers trading the space guarantee for
    availability.  Purely an audit counter; the page stays black. *)

val overridden : t -> int
(** Overrides recorded so far. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over currently black pages in increasing order. *)

type geometry = {
  g_representation : representation;
  g_n_pages : int;
  g_refresh : bool;
}
(** Read-only shape of a blacklist: enough to reproduce the
    page-to-bucket mapping without mutating (or even holding) the live
    structure.  Consumed by the static starvation predictor. *)

val geometry : t -> geometry

val bucket : geometry -> int -> int
(** [bucket g page] is the bit index [note]/[is_black] would use for
    [page] under this geometry — the page itself for [Exact], the
    Fibonacci-hash bucket for [Hashed].  Pure. *)

val pp : Format.formatter -> t -> unit
