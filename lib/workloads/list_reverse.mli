(** Section 3.1: the list-reversal stack-hygiene experiment.

    "A simple program (compiled unoptimized on a SPARC) that recursively
    and nondestructively reverses a 1000 element list 1000 times
    resulted in a maximum of between 40,000 and 100,000 apparently
    accessible cons-cells at one point.  With a very cheap
    stack-clearing algorithm added, we never saw the maximum exceed
    18,000 ...  The optimized version of the program never resulted in
    many more than 2000 cons-cells reported as accessible ... the list
    reversal routine is tail recursive, and was optimized to a loop."

    Modes:
    - [Careless]: deep naive recursion, no stack hygiene at all;
    - [Cleared]: same recursion, with the collector's cheap periodic
      clearing of the dead stack;
    - [Optimized]: the tail-recursive accumulator version, compiled to a
      loop (constant stack). *)

type mode =
  | Careless
  | Cleared
  | Optimized

type result = {
  mode : mode;
  elements : int;
  iterations : int;
  max_live_cells : int;  (** max cons cells reported accessible at any collection *)
  final_live_cells : int;
  cells_allocated : int;
  collections : int;
}

val run :
  ?seed:int -> ?prepare:(Harness.t -> unit) -> mode -> elements:int -> iterations:int -> result
(** [prepare] runs on the fresh harness before any allocation — the
    hook a trace recorder attaches through. *)

val pp : Format.formatter -> result -> unit
