(** Size classes for small objects.

    Like Boehm's collector, each heap page is dedicated to objects of a
    single size, measured in granules (machine words).  Objects carry no
    headers: an object's size is implied by its page, which is what makes
    the 4-byte cons cells of the paper's program T possible. *)

type t

val create : Config.t -> t

val displacement_mask : t -> int array
(** The config's registered-displacement bitmask (see
    {!Config.displacement_mask}), precomputed at creation. *)

val displacement_ok : t -> int -> bool
(** O(1) test that a byte displacement into an object is a recognized
    interior-pointer offset (0, or a registered displacement). *)

val max_small_bytes : t -> int

val is_small : t -> int -> bool
(** Whether a request of that many bytes is served from size-class
    pages. *)

val granules_for : int -> int
(** [granules_for bytes] is the number of granules needed for a
    request ([>= 1]); the class index of the request. *)

val bytes_of_granules : int -> int

val n_classes : t -> int
(** Number of small size classes; class indexes run [1 .. n_classes]. *)

val objects_per_page : t -> granules:int -> first_offset:int -> int
(** How many objects of the given class fit on a page whose first object
    starts at byte [first_offset]. *)
