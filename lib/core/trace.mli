(** Leak forensics: why is this object still alive?

    The paper's authors repeatedly had to "track down" the false
    references behind observed retention (section 3, appendix B's
    magic-number cells).  This module automates that: a provenance mark
    records, for every reached object, the root or heap word that first
    reached it, and {!why_live} reports the full chain from a root to
    the object in question. *)

open Cgc_vm

type step =
  | Root of { label : string; at : Addr.t option; value : int }
      (** the chain starts at a root word (register roots have no
          address) *)
  | Heap_word of { obj : Addr.t; at : Addr.t; value : int }
      (** ... and continues through a word of a marked object *)

type chain = step list
(** Outermost root first; the last step's [value] resolves to (possibly
    the interior of) the queried object. *)

val why_live : Gc.t -> Addr.t -> chain option
(** [why_live gc obj] runs a full provenance mark (using the collector's
    registered roots and configuration, without disturbing allocation
    state beyond the mark bits) and explains how [obj] gets marked: the
    chain the mark, a LIFO walk, discovers first, not always the
    shortest.  [None] when the object is not reachable (or not
    allocated). *)

val retained_by : Gc.t -> Addr.t list -> (Addr.t * chain) list
(** Explain every object of the list that is reachable. *)

val reached : Gc.t -> Addr.t list
(** The base of every object the same provenance mark reaches, in no
    particular order and with no chains built. *)

val pp_step : Format.formatter -> step -> unit
val pp_chain : Format.formatter -> chain -> unit
