(** Forward model of the conservative marker over an IR program.

    Replays the trace, mirroring registers, stack, globals and heap
    object fields, and at every GC point computes both the conservative
    (apparent) live set — the numeric closure of every scanned word
    against the current object address map — and the precise live set —
    the semantic closure of dataflow-live locations.  The difference is
    the predicted spurious retention, with every spurious root
    classified by the paper's taxonomy (stale slots, frame padding,
    allocator spill residue, dead registers, uncleared globals,
    parked stack regions). *)

module ISet = Liveness.ISet

type root_class =
  | Intended
  | Dead_local
  | Stale_slot
  | Padding
  | Spill_residue
  | Dead_register
  | Stale_global
  | Parked

val class_name : root_class -> string

type spurious_root = {
  sr_class : root_class;
  sr_where : string;  (** human-readable location, e.g. ["stack[512]"] *)
  sr_raw : int;
  sr_target : int;  (** object id the raw value resolves to *)
}

type structure_stats = {
  g_bytes : int;
  g_pointer_free : bool;
  g_count : int;
  g_mean_intra_degree : float;
  g_mean_blast : float;
}

type gc_snapshot = {
  ordinal : int;
  at_instr : int;
  sp_word : int;
  measured : Ir.measurement option;
  apparent : ISet.t;
  precise : ISet.t;
  apparent_bytes : int;
  precise_bytes : int;
  spurious : spurious_root list;
  stack_excess : int;
  dead_feeding : ISet.t;
      (** precise-dead objects from which precise-live data is
          reachable over [edges] — the uncleared-link signature of
          section 4; {!Shape} draws its dead links from it *)
  dead_feeding_example : int option;
  structures : structure_stats list;
  edges : (int * int * int) list;
      (** semantic pointer edges [(src, field, dst)] out of apparent
          objects at this point — the raw material of access graphs *)
  unresolved : ISet.t;
      (** nonzero raw words the marker scanned or traversed into that
          resolved to no object — the false references the real
          collector blacklists *)
}

type obj_state = {
  o_id : int;
  o_base : int;
  o_bytes : int;
  o_pointer_free : bool;
  o_fields : Ir.value array;
  mutable o_freed : bool;
  mutable o_freed_at : int option;
  mutable o_ever_held_ptr : bool;
}

type result = {
  snapshots : gc_snapshot list;
  objects : (int, obj_state) Hashtbl.t;
  n_objects : int;
}

val analyze : Ir.program -> Liveness.t -> result
