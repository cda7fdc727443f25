open Cgc_vm

type layout =
  | Conservative
  | Pointer_free
  | Typed of Type_desc.t

type small = {
  object_bytes : int;
  layout : layout;
  first_offset : int;
  n_objects : int;
  alloc : Bitset.t;
  mark : Bitset.t;
}

type large = {
  n_pages : int;
  object_bytes : int;
  l_layout : layout;
  mutable l_allocated : bool;
  mutable l_marked : bool;
}

type t =
  | Uncommitted
  | Free
  | Small of small
  | Large_head of large
  | Large_tail of { head_index : int }

(* Kind codes for the heap's page table: every page-table walk reads
   these from a descriptor row instead of matching the variant. *)
let kind_uncommitted = 0
let kind_free = 1
let kind_small = 2
let kind_large_head = 3
let kind_large_tail = 4

let kind_code = function
  | Uncommitted -> kind_uncommitted
  | Free -> kind_free
  | Small _ -> kind_small
  | Large_head _ -> kind_large_head
  | Large_tail _ -> kind_large_tail

(* A placeholder for descriptor rows of pages that carry no large
   object; shared, and never meaningfully mutated. *)
let dummy_large =
  { n_pages = 0; object_bytes = 0; l_layout = Pointer_free; l_allocated = false; l_marked = false }

let make_small ~object_bytes ~layout ~first_offset ~n_objects =
  Small
    {
      object_bytes;
      layout;
      first_offset;
      n_objects;
      alloc = Bitset.create n_objects;
      mark = Bitset.create n_objects;
    }

let make_large ~n_pages ~object_bytes ~layout =
  Large_head { n_pages; object_bytes; l_layout = layout; l_allocated = true; l_marked = false }

let layout_tag = function
  | Conservative -> ""
  | Pointer_free -> " atomic"
  | Typed d -> " typed " ^ d.Type_desc.name

let pp ppf = function
  | Uncommitted -> Format.pp_print_string ppf "uncommitted"
  | Free -> Format.pp_print_string ppf "free"
  | Small s ->
      Format.fprintf ppf "small(%dB%s %d/%d live)" s.object_bytes (layout_tag s.layout)
        (Bitset.count s.alloc) s.n_objects
  | Large_head l ->
      Format.fprintf ppf "large(%dB over %d pages%s %s)" l.object_bytes l.n_pages
        (layout_tag l.l_layout)
        (if l.l_allocated then "live" else "dead")
  | Large_tail { head_index } -> Format.fprintf ppf "large-tail(head=%d)" head_index
