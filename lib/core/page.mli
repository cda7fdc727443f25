(** Heap page descriptors.

    The heap is an array of fixed-size pages ("heap blocks"); each
    committed page is either dedicated to small objects of one size
    class, or part of a multi-page large object.  Mark and allocation
    state live in the descriptor, not in the objects — objects are
    headerless. *)

open Cgc_vm

(** How the marker reads the objects of a page.  A page is carved for
    one layout and loses it when it is freed. *)
type layout =
  | Conservative  (** every aligned word may be a pointer *)
  | Pointer_free  (** contents never scanned (atomic objects) *)
  | Typed of Type_desc.t
      (** only the descriptor's pointer words are read; the descriptor
          has at least one *)

type small = {
  granules : int;  (** object size in granules *)
  object_bytes : int;  (** object size in bytes *)
  layout : layout;
  pointer_free : bool;  (** [layout = Pointer_free] *)
  first_offset : int;  (** byte offset of the first object in the page *)
  n_objects : int;
  alloc : Bitset.t;  (** object currently allocated *)
  mark : Bitset.t;  (** object reached during the current/last mark *)
}

type large = {
  n_pages : int;
  object_bytes : int;  (** exact size requested, may not fill the last page *)
  l_layout : layout;
  l_pointer_free : bool;  (** [l_layout = Pointer_free] *)
  mutable l_allocated : bool;
  mutable l_marked : bool;
}

type t =
  | Uncommitted  (** reserved for the heap but not yet obtained *)
  | Free  (** committed and empty *)
  | Small of small
  | Large_head of large
  | Large_tail of { head_index : int }

val layout_tag : layout -> string
(** [""], [" atomic"] or [" typed NAME"], as {!pp} prints it. *)

(** {1 Kind codes}

    Small-integer encodings of the variant's constructor, stored in the
    heap's flat descriptor table so the scan fast path can dispatch on an
    int load from the page's row instead of a variant match. *)

val kind_uncommitted : int
val kind_small : int
val kind_large_head : int
val kind_large_tail : int

val kind_code : t -> int

val dummy_large : large
(** Shared placeholder for descriptor rows of pages that carry no large
    object.  Never meaningfully mutated. *)

val make_small :
  granules:int -> object_bytes:int -> layout:layout -> first_offset:int -> n_objects:int -> t

val make_large : n_pages:int -> object_bytes:int -> layout:layout -> t

val pp : Format.formatter -> t -> unit
