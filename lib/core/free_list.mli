(** Per-size-class free lists of object addresses, for the explicit
    allocator baseline ({!Explicit}).

    The conservative collector keeps no such lists: its page alloc
    bitmaps are the free lists, walked by a per-class cursor.  This
    module exists for the paper's §5 comparison of LIFO against
    address-ordered reuse ("it is usually much less expensive to keep
    free lists sorted by address"). *)

type t

type policy =
  | Lifo  (** freed objects are pushed on the front *)
  | Address_ordered  (** freed objects are inserted in address order *)

val create : n_classes:int -> policy -> t
(** Classes are indexed [1 .. n_classes]. *)

val take : t -> granules:int -> int option
(** Pop the first free object of the class, if any. *)

val add : t -> granules:int -> int -> unit
(** Return one object to the class, honouring the policy. *)

val prepend_block : t -> granules:int -> int list -> unit
(** Put a freshly carved page's slots (in ascending order) at the front
    of the class so they are handed out lowest-address-first. *)

val drop_in_page : t -> granules:int -> page_of:(int -> int) -> page:int -> unit
(** Remove every entry whose [page_of] address equals [page] (used when
    an empty page is withdrawn from a size class). *)
