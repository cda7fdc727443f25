(** Simulated 32-bit machine addresses.

    The whole simulation lives in a flat 32-bit address space, the common
    case for the machines of Boehm's PLDI'93 study (SPARCstation 2, SGI
    4D/35, 80486).  Addresses are represented as plain OCaml [int]s in the
    range [0, 2{^32}); all constructors mask to 32 bits so arithmetic can
    never escape the space. *)

type t = int
(** An address.  Always in [0, 2{^32}). *)

val space_size : int
(** Size of the simulated address space in bytes, [2{^32}]. *)

val zero : t

val of_int : int -> t
(** [of_int n] is [n] truncated to the low 32 bits. *)

val to_int : t -> int
(** Identity; provided for symmetry and call-site documentation. *)

val add : t -> int -> t
(** [add a n] is [a + n] wrapped to 32 bits ([n] may be negative). *)

val diff : t -> t -> int
(** [diff a b] is the signed byte distance [a - b] (no wrapping). *)

val is_aligned : t -> int -> bool
(** [is_aligned a n] is true when [a] is a multiple of [n].
    [n] must be a power of two. *)

val align_down : t -> int -> t
(** Round down to a multiple of [n] (a power of two). *)

val align_up : t -> int -> t
(** Round up to a multiple of [n] (a power of two); wraps to 32 bits. *)

val trailing_zeros : t -> int
(** Number of trailing zero bits; [trailing_zeros zero] is 32.
    Used by the allocator policy that avoids handing out objects at
    addresses with many trailing zeros (paper section 2, figure 1). *)

val in_range : t -> lo:t -> hi:t -> bool
(** [in_range a ~lo ~hi] is [lo <= a < hi]. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Hexadecimal, zero-padded to 8 digits, e.g. [0x00090000]. *)

val to_string : t -> string
