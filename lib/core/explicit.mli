(** Explicit malloc/free baseline.

    The paper contrasts the collector with C [malloc] implementations
    ("malloc implementations usually provide no useful bound on space
    usage, either; in the worst case they are subject to disastrous
    fragmentation overhead") and argues in its conclusion that keeping
    free lists sorted by address reduces fragmentation.  This allocator
    runs on the same page substrate as the collector, with a selectable
    free-list policy, so both claims can be measured. *)

open Cgc_vm

type t

val create :
  ?page_size:int -> ?policy:Free_list.policy -> Mem.t -> base:Addr.t -> max_bytes:int -> unit -> t

val malloc : t -> int -> Addr.t
(** @raise Out_of_memory when the reserved region is exhausted or a
    fault plan makes the simulated OS refuse the commit (the untyped
    [Mem.Commit_failed] never escapes this allocator). *)

exception Out_of_memory of string

val free : t -> Addr.t -> unit
(** @raise Invalid_argument on a double free or a pointer that is not an
    object base. *)

val is_allocated : t -> Addr.t -> bool

val live_bytes : t -> int
val live_objects : t -> int
val committed_bytes : t -> int

val release_empty_pages : t -> int
(** Return fully-empty small-object pages to the free pool (a very
    simple madvise-style trim); returns the number released. *)

val heap : t -> Heap.t
(** The underlying page substrate, exposed so harnesses can run
    heap-level coherence audits ({!Verify.check_heap}) against this
    baseline exactly as against the collector. *)

val get_field : t -> Addr.t -> int -> int
(** @raise Mem.Read_fault when an installed fault plan trips the read. *)

val set_field : t -> Addr.t -> int -> int -> unit
(** @raise Mem.Write_fault when an installed fault plan trips the write;
    the store does not happen. *)
