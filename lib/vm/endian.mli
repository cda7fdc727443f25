(** Byte order of the simulated machine.

    Endianness matters to the paper's experiments: appendix B notes that
    on the big-endian SPARC a trailing NUL character of one string
    followed by the first three characters of the next can appear to be
    a pointer, and that the corresponding problem involves the {e end}
    of a string on little-endian machines. *)

type t =
  | Little  (** e.g. the 80486 OS/2 machine of the paper *)
  | Big  (** e.g. SPARCstation 2 and the SGI 4D/35 in big-endian mode *)

val equal : t -> t -> bool
val to_string : t -> string
