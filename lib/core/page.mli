(** Heap page descriptors.

    The heap is an array of fixed-size pages ("heap blocks"); each
    committed page is either dedicated to small objects of one size
    class, or part of a multi-page large object.  Mark and allocation
    state live in the descriptor, not in the objects — objects are
    headerless.

    A {!t} is a view of one row of the heap's page table ({!Heap.desc})
    that {!Heap.page} builds on demand; writes through a view's bitsets
    or large record reach the table. *)

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
  object_bytes : int;  (** object size in bytes, a whole number of granules *)
  layout : layout;
  first_offset : int;  (** byte offset of the first object in the page *)
  n_objects : int;
  alloc : Bitset.t;  (** object currently allocated *)
  mark : Bitset.t;  (** object reached during the current/last mark *)
}

type large = {
  n_pages : int;
  object_bytes : int;  (** exact size requested, may not fill the last page *)
  l_layout : layout;
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

    Small-integer encodings of the variant's constructor, stored in each
    page's row of the heap's page table ({!Heap.desc}): the scan fast
    path and every page-table walk dispatch on an int load instead of a
    variant match. *)

val kind_uncommitted : int
val kind_free : int
val kind_small : int
val kind_large_head : int
val kind_large_tail : int

val kind_code : t -> int

val dummy_large : large
(** Shared placeholder for descriptor rows of pages that carry no large
    object.  Never meaningfully mutated. *)

val make_small : object_bytes:int -> layout:layout -> first_offset:int -> n_objects:int -> t

val make_large : n_pages:int -> object_bytes:int -> layout:layout -> t

val pp : Format.formatter -> t -> unit
