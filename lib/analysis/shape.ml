(* Bounded access-graph domain over the marker model's snapshots.

   Following the access-graph idea of Khedker/Sanyal/Karkare (heap
   reference analysis) as adapted to a trace IR: instead of tracking
   every concrete object, each GC point is summarized by a graph whose
   nodes are bounded summaries — one node per (rounded size, atomicity,
   liveness role) — and whose edges are field-labelled summaries of the
   semantic pointer edges between the summarized populations.  The
   node set is bounded by the number of distinct size classes (times
   two roles), never by heap size, which is what makes the domain a
   domain and not a heap dump.

   On top of the summaries, each graph keeps the concrete *dead links*:
   pointer fields of precise-dead (but apparently-live) objects that
   lie on an access path ending in precise-live data.  These are the
   paper's section-4 uncleared links with their exact field
   coordinates — the path evidence that makes the R1/R2 lint rules
   path-sensitive, and the edit sites the fix generator clears. *)

module ISet = Liveness.ISet

type node = {
  sn_bytes : int;
  sn_pointer_free : bool;
  sn_dead : bool;  (** summarizes apparent-but-not-precise members *)
  sn_count : int;
}

type summary_edge = {
  se_src : node;
  se_dst : node;
  se_fields : int list;  (** distinct field labels, capped at {!max_field_labels} *)
  se_count : int;  (** concrete edges summarized *)
}

type link = {
  l_src : int;  (** precise-dead object id *)
  l_field : int;
  l_dst : int;
  l_dst_live : bool;  (** the link lands directly in precise-live data *)
}

type graph = {
  sh_ordinal : int;
  sh_at_instr : int;
  sh_nodes : node list;
  sh_edges : summary_edge list;
  sh_dead_links : link list;
  sh_barrier_stores : int;  (** write-barrier events before this point *)
}

type t = {
  graphs : graph list;
  max_dead_links : int;
}

let max_field_labels = 8

module KMap = Map.Make (struct
  type t = int * bool * bool

  let compare = compare
end)

let build (p : Ir.program) (r : Apparent.result) =
  let obj id = Hashtbl.find_opt r.Apparent.objects id in
  (* running count of barrier events, indexed by instruction *)
  let barrier_counts =
    let c = ref 0 in
    Array.map
      (fun i ->
        (match i with Ir.Write_barrier _ -> incr c | _ -> ());
        !c)
      p.Ir.code
  in
  let build_graph (s : Apparent.gc_snapshot) =
    let dead = ISet.diff s.Apparent.apparent s.Apparent.precise in
    let key id =
      match obj id with
      | Some o -> Some (o.Apparent.o_bytes, o.Apparent.o_pointer_free, ISet.mem id dead)
      | None -> None
    in
    (* nodes: one summary per (size, atomicity, role) *)
    let counts = ref KMap.empty in
    ISet.iter
      (fun id ->
        match key id with
        | Some k -> counts := KMap.update k (fun c -> Some (Option.value c ~default:0 + 1)) !counts
        | None -> ())
      s.Apparent.apparent;
    let node_of (bytes, pf, d) =
      {
        sn_bytes = bytes;
        sn_pointer_free = pf;
        sn_dead = d;
        sn_count = Option.value (KMap.find_opt (bytes, pf, d) !counts) ~default:0;
      }
    in
    let nodes = List.map (fun (k, _) -> node_of k) (KMap.bindings !counts) in
    (* summary edges: concrete semantic edges grouped by endpoint keys *)
    let edge_acc : ((int * bool * bool) * (int * bool * bool), int list * int) Hashtbl.t =
      Hashtbl.create 16
    in
    List.iter
      (fun (src, field, dst) ->
        if ISet.mem dst s.Apparent.apparent then
          match (key src, key dst) with
          | Some ks, Some kd ->
              let fields, count =
                Option.value (Hashtbl.find_opt edge_acc (ks, kd)) ~default:([], 0)
              in
              let fields =
                if List.mem field fields || List.length fields >= max_field_labels then fields
                else field :: fields
              in
              Hashtbl.replace edge_acc (ks, kd) (fields, count + 1)
          | _ -> ())
      s.Apparent.edges;
    let edges =
      Hashtbl.fold
        (fun (ks, kd) (fields, count) acc ->
          {
            se_src = node_of ks;
            se_dst = node_of kd;
            se_fields = List.sort compare fields;
            se_count = count;
          }
          :: acc)
        edge_acc []
    in
    (* dead links: the outgoing fields of the snapshot's dead-feeding
       set that reach the precise set or stay inside the feeding set *)
    let feeding = s.Apparent.dead_feeding in
    let dead_links =
      List.filter_map
        (fun (src, field, dst) ->
          if
            ISet.mem src feeding
            && (ISet.mem dst s.Apparent.precise || ISet.mem dst feeding)
          then
            Some { l_src = src; l_field = field; l_dst = dst; l_dst_live = ISet.mem dst s.Apparent.precise }
          else None)
        s.Apparent.edges
    in
    {
      sh_ordinal = s.Apparent.ordinal;
      sh_at_instr = s.Apparent.at_instr;
      sh_nodes = nodes;
      sh_edges = edges;
      sh_dead_links = dead_links;
      sh_barrier_stores =
        (if s.Apparent.at_instr < Array.length barrier_counts then
           barrier_counts.(s.Apparent.at_instr)
         else 0);
    }
  in
  let graphs = List.map build_graph r.Apparent.snapshots in
  {
    graphs;
    max_dead_links =
      List.fold_left (fun acc g -> max acc (List.length g.sh_dead_links)) 0 graphs;
  }

let worst t =
  List.fold_left
    (fun acc g ->
      match acc with
      | Some best when List.length best.sh_dead_links >= List.length g.sh_dead_links -> acc
      | _ -> Some g)
    None t.graphs

(* Groups that link to themselves through fields somewhere in the run:
   the path-sensitive evidence behind R1 (self-referential structure
   with embedded links, not just a statistically correlated group). *)
let self_linked t =
  let acc : (int * bool, int list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun g ->
      List.iter
        (fun e ->
          if
            e.se_src.sn_bytes = e.se_dst.sn_bytes
            && e.se_src.sn_pointer_free = e.se_dst.sn_pointer_free
          then begin
            let k = (e.se_src.sn_bytes, e.se_src.sn_pointer_free) in
            let old = Option.value (Hashtbl.find_opt acc k) ~default:[] in
            let fields =
              List.fold_left
                (fun fs f ->
                  if List.mem f fs || List.length fs >= max_field_labels then fs else f :: fs)
                old e.se_fields
            in
            Hashtbl.replace acc k fields
          end)
        g.sh_edges)
    t.graphs;
  Hashtbl.fold (fun k fields l -> (k, List.sort compare fields) :: l) acc []
