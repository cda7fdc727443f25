(** Typed object construction on top of the machine.

    The data structures of the paper's experiments: program T's circular
    lists of bare link cells, lisp-style cons lists, embedded-link and
    separate-link grids (figures 3 and 4), queues, and binary trees.

    Builders keep intermediate pointers in machine registers so a
    collection in the middle of construction cannot reclaim the partial
    structure (exactly as compiled code would keep them in caller-saved
    registers). *)

open Cgc_vm

val nil : int
(** The null "pointer" (0). *)

val cons : Machine.t -> car:int -> cdr:int -> Addr.t
(** An 8-byte two-word cell. *)

val car : Machine.t -> Addr.t -> int
val cdr : Machine.t -> Addr.t -> int

val list_of : Machine.t -> int list -> Addr.t
(** A cons list of the given values; [nil] for the empty list. *)

val list_values : Machine.t -> Addr.t -> int list
val list_length : Machine.t -> Addr.t -> int

val alloc_cycle : ?finalizer:string -> ?cell_bytes:int -> Machine.t -> n:int -> Addr.t
(** Program T's [allot_cycle]: a circular list of [n] cells (default
    4 bytes — just a next pointer; 8 reproduces the PCR variant, whose
    second word holds a magic number).  Returns a pointer into the
    cycle; the optional finalizer token is attached to that cell. *)

val cycle_cells : Machine.t -> Addr.t -> Addr.t list
(** All cell bases of a circular list, starting from the given cell. *)

val atomic_array : Machine.t -> int array -> Addr.t
(** A pointer-free data object (compressed data, bitmaps...) the
    collector is told not to scan. *)

val scanned_array : Machine.t -> int array -> Addr.t
(** The same data allocated as an ordinary (conservatively scanned)
    object — the hazard the paper warns about for large compressed
    data. *)

(** {1 Grids (paper figures 3 and 4)} *)

type grid = {
  rows : int;
  cols : int;
  vertices : Addr.t array;  (** row-major; [vertices.(r*cols + c)] *)
  headers : Addr.t;
      (** an object holding the row and column header pointers — the
          structure's intended entry points *)
  spine : Addr.t array;
      (** separate-link representation only: all cons cells *)
}

val grid_embedded : Machine.t -> rows:int -> cols:int -> grid
(** Figure 3: each vertex is a 4-word object [right; down; payload0;
    payload1] — linked lists "involve pointer fields in the objects
    themselves". *)

val grid_separate : Machine.t -> rows:int -> cols:int -> grid
(** Figure 4: vertices are 2-word payload objects with {e no} links;
    rows and columns are chains of separate cons cells whose cars point
    to the vertices. *)

(** {1 Queue (section 4)} *)

type queue

val queue_create : Machine.t -> queue

(** The two-word head/tail header object.  The client must keep this
    reachable (e.g. store it in a rooted slot): the queue's nodes are
    only reachable through it. *)
val queue_header : queue -> Addr.t
val queue_push : queue -> int -> Addr.t
(** Enqueue a value; returns the new node's address. *)

val queue_pop : ?clear_link:bool -> queue -> int option
(** Dequeue.  [clear_link] implements the paper's fix: "queues no longer
    grow without bound if the queue link field is cleared when an item
    is removed". *)

val queue_length : queue -> int
val queue_nodes : queue -> Addr.t list
(** Live nodes from head to tail. *)

(** {1 Balanced binary tree (section 4)} *)

val tree_build : Machine.t -> depth:int -> Addr.t
(** A perfect binary tree of the given depth with child links; 3-word
    nodes [left; right; payload].  Depth 0 is a single leaf. *)

val tree_nodes : Machine.t -> Addr.t -> Addr.t list
val tree_size : Machine.t -> Addr.t -> int
