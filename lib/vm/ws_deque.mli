(** Chase-Lev work-stealing deque of [int]s.

    Each parallel marker domain owns one deque as its private mark
    stack: the owner pushes and pops at the bottom (LIFO, preserving the
    serial tracer's depth-first scanning order), idle domains steal the
    oldest entry from the top (FIFO, exporting the broadest pending
    subtrees).  Lock-free; single owner, any number of thieves. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) is rounded up to a power of two; the
    buffer grows automatically, so it only sets the initial size. *)

val push : t -> int -> unit
(** Owner only. *)

val pop : t -> int option
(** Owner only.  Newest element, or [None] when empty. *)

val steal : t -> int option
(** Any domain.  Oldest element; [None] when empty or when the CAS race
    with the owner/another thief is lost (callers just move on). *)

val size : t -> int
(** Owner-side estimate; concurrent steals can only make the true size
    smaller.  Used for the mark-stack-limit overflow check. *)

val is_empty : t -> bool
