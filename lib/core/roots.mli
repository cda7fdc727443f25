(** The conservative root set.

    Boehm's collector scans "the stack(s), registers, static data, as
    well as the heap conservatively".  Root sources are registered once;
    dynamic sources (the live stack extent, register contents) are
    re-queried at each collection. *)

open Cgc_vm

type range = {
  lo : Addr.t;
  hi : Addr.t;  (** exclusive *)
  label : string;
}

type source =
  | Static_range of range
      (** a fixed region, e.g. the program's static data segment *)
  | Dynamic_ranges of string * (unit -> range list)
      (** regions recomputed per collection, e.g. the currently live part
          of each thread stack *)
  | Register_file of string * (unit -> int array)
      (** raw word values scanned directly (they live in no segment) *)

type t

val create : unit -> t
val add : t -> source -> unit
val clear : t -> unit
val sources : t -> source list

val exclude : t -> lo:Cgc_vm.Addr.t -> hi:Cgc_vm.Addr.t -> label:string -> unit
(** Mark a sub-range as not-to-be-scanned.  The paper recommends this
    for "large static data areas that contain seemingly random,
    nonpointer areas (e.g. IO buffers)". *)

val current_ranges : t -> range list
(** All ranges, with dynamic sources expanded and exclusions subtracted,
    in registration order. *)

val current_registers : t -> (string * int array) list

val pp : Format.formatter -> t -> unit
