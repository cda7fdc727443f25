(** Bounded access-graph domain over the marker model.

    Summarizes each GC point's heap as a graph whose nodes are bounded
    population summaries — one per (rounded size, atomicity, liveness
    role) — with field-labelled summary edges, in the spirit of
    access-graph heap reference analysis (Khedker/Sanyal/Karkare).
    Alongside the summaries, each graph retains the concrete {e dead
    links}: pointer fields of precise-dead objects lying on an access
    path into precise-live data.  These make the R1/R2 lint rules
    path-sensitive and give the fix generator its exact edit sites. *)

module ISet = Liveness.ISet

type node = {
  sn_bytes : int;
  sn_pointer_free : bool;
  sn_dead : bool;
  sn_count : int;
}

type summary_edge = {
  se_src : node;
  se_dst : node;
  se_fields : int list;
  se_count : int;
}

type link = {
  l_src : int;  (** precise-dead object id *)
  l_field : int;
  l_dst : int;
  l_dst_live : bool;
}

type graph = {
  sh_ordinal : int;
  sh_at_instr : int;
  sh_nodes : node list;
  sh_edges : summary_edge list;
  sh_dead_links : link list;
  sh_barrier_stores : int;
}

type t = {
  graphs : graph list;
  max_dead_links : int;
}

val build : Ir.program -> Apparent.result -> t

val worst : t -> graph option
(** The graph with the most dead links (ties broken toward the earliest). *)

val self_linked : t -> ((int * bool) * int list) list
(** Group keys [(bytes, pointer_free)] that link to themselves through
    fields somewhere in the run, with the linking field labels. *)
