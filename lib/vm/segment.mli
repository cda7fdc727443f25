(** A contiguous region of the simulated address space.

    Segments model the pieces of a process image the paper's collector
    scans: text, static data, bss, stack, and the heap itself.  Each is
    backed by OCaml [Bytes] and provides byte- and word-granularity
    access at simulated addresses, honouring the machine's byte order —
    essential for the unaligned-scan experiments (paper figure 1). *)

type kind =
  | Text  (** program code; never scanned for roots *)
  | Static_data  (** initialized data + bss; scanned conservatively *)
  | Stack  (** machine stack; scanned conservatively *)
  | Heap  (** collector-managed heap *)
  | Other of string

type t

val create : name:string -> kind:kind -> endian:Endian.t -> base:Addr.t -> size:int -> t
(** A zero-filled segment of [size] bytes starting at [base].
    [base + size] must not exceed the address space. *)

val name : t -> string
val kind : t -> kind
val endian : t -> Endian.t
val base : t -> Addr.t
val size : t -> int
val limit : t -> Addr.t
(** One past the last byte, i.e. [base + size]. *)

val contains : t -> Addr.t -> bool

val read_u8 : t -> Addr.t -> int
val write_u8 : t -> Addr.t -> int -> unit

val read_word : t -> Addr.t -> int
(** Read the 32-bit word at the given address (any byte alignment),
    assembled according to the segment's endianness. *)

val write_word : t -> Addr.t -> int -> unit

val fill : t -> Addr.t -> len:int -> char -> unit

val zero_range : t -> Addr.t -> len:int -> unit

val blit_string : t -> Addr.t -> string -> unit
(** Copy a raw byte string into the segment. *)

val read_string : t -> Addr.t -> len:int -> string

val iter_words : t -> ?alignment:int -> lo:Addr.t -> hi:Addr.t -> (Addr.t -> int -> unit) -> unit
(** [iter_words t ~alignment ~lo ~hi f] applies [f addr word] to every
    32-bit word whose first byte lies in [\[lo, hi - 4\]] at the given
    alignment granularity (default 4; 2 and 1 model collectors forced to
    consider unaligned pointers).  [lo] is clamped to the segment and
    then rounded up to the requested alignment (the alignment grid is
    absolute), so a clamp against an unaligned segment base cannot
    produce misaligned reads. *)

(** {1 Scan fast path}

    The pieces from which closure-free scan loops are built (see
    {!Cgc.Mark}): clamp the range once, then read words straight out of
    the backing bytes with no per-word bounds check or boxing. *)

val clamp_words : t -> alignment:int -> lo:Addr.t -> hi:Addr.t -> int * int
(** [(lo', hi')]: the scan range clamped to the segment, with [lo']
    re-aligned upward after clamping.  Words at [lo', lo' + alignment,
    ...] with [addr + 4 <= hi'] are all safely readable — this is the
    one bounds check a whole-range scan needs. *)

val unsafe_bytes : t -> Bytes.t
(** The backing store.  Offsets are [addr - base t].  Only for scan
    loops that have validated their range — with {!clamp_words}, or
    against the segment's known bounds. *)

val pp : Format.formatter -> t -> unit
