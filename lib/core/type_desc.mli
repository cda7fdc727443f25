(** Object layout descriptors.

    A descriptor gives an object's size and the byte offsets of its
    pointer fields.  The {e precise} baseline collector ({!Precise})
    allocates through them, and the layout then lives on the object's
    page ({!Page.layout}): every collection of that heap — precise, or a
    conservative {!Gc.collect} — reads only those fields.  The mutator's
    typed object builders use them to know where pointer fields live. *)

type t = private {
  name : string;
  size_bytes : int;
  pointer_offsets : int array;  (** strictly increasing, word-aligned *)
}

val make : name:string -> size_bytes:int -> pointer_offsets:int list -> t
(** @raise Invalid_argument if an offset is unaligned, out of bounds or
    out of order. *)

val atomic : name:string -> size_bytes:int -> t
(** A descriptor with no pointer fields. *)

val is_atomic : t -> bool

val cons : t
(** Two words: car, cdr — the "lisp-style cons-cell" of section 4. *)

val link_cell : t
(** One word: a bare next pointer — program T's 4-byte list cell. *)
