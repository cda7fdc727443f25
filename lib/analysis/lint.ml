(* Lint rules over the analyzer's snapshots, each keyed to the
   observation in Boehm, "Space Efficient Conservative Garbage
   Collection" (PLDI 1993) that motivates it.  A finding is advice to
   the mutator programmer: restructure the data, clear the link, use an
   atomic allocation — the same advice the paper gives. *)

module ISet = Liveness.ISet

type severity = Warning | Advice

type finding = {
  rule : string;
  severity : severity;
  title : string;
  paper_ref : string;
  detail : string;
  example_obj : int option;
      (** an object witnessing the finding, for provenance chains *)
}

(* R1: embedded-link structures.  Figures 3-4 of the paper show that a
   structure carrying its links inside the nodes (one misidentified
   pointer retains a whole row/region transitively) loses badly to the
   same structure built from separate cons cells (one false pointer
   retains one cell).  The trace signature: a large same-shape object
   group whose members point into the group (intra-degree >= ~1) and
   where a single member's reachable blast radius is a sizeable
   fraction of the heap.  Path sensitivity: the statistical signature
   must be confirmed by the access graphs — the group has to link to
   itself through actual fields, not merely correlate. *)
let r1_embedded_links (snaps : Apparent.gc_snapshot list) (shape : Shape.t) =
  let self = Shape.self_linked shape in
  let worst = ref None in
  List.iter
    (fun (s : Apparent.gc_snapshot) ->
      List.iter
        (fun (g : Apparent.structure_stats) ->
          if
            (not g.g_pointer_free)
            && g.g_count >= 32
            && g.g_mean_intra_degree >= 1.2
            && g.g_mean_blast >= 0.15
            && List.mem_assoc (g.g_bytes, g.g_pointer_free) self
          then
            match !worst with
            | Some ((w : Apparent.structure_stats), _) when w.g_mean_blast >= g.g_mean_blast ->
                ()
            | _ -> worst := Some (g, List.assoc (g.g_bytes, g.g_pointer_free) self))
        s.structures)
    snaps;
  match !worst with
  | None -> []
  | Some (g, link_fields) ->
      [
        {
          rule = "R1";
          severity = Warning;
          title = "embedded links amplify misidentified pointers";
          paper_ref = "Boehm'93 s.2, figs 3-4";
          detail =
            Printf.sprintf
              "%d objects of %d bytes form an embedded-link structure (%.2f \
               intra-group links/object through field%s %s); a single false \
               reference into one of them retains %.0f%% of the apparent \
               heap.  Consider linking through separately allocated cells so \
               one misidentified pointer costs one cell, not the structure."
              g.g_count g.g_bytes g.g_mean_intra_degree
              (if List.length link_fields = 1 then "" else "s")
              (String.concat "," (List.map string_of_int link_fields))
              (100. *. g.g_mean_blast);
          example_obj = None;
        };
      ]

(* R2: dead objects still feeding live data — the lazy-dequeue
   signature.  Section 4's advice: explicitly clear links in
   dequeue-style operations, since a stale head pointer anywhere keeps
   the entire chain of removed entries reachable through their
   uncleared next links. *)
let r2_uncleared_links (snaps : Apparent.gc_snapshot list) (shape : Shape.t) =
  let worst = ref 0 and example = ref None and where = ref 0 in
  List.iter
    (fun (s : Apparent.gc_snapshot) ->
      let feeding = Apparent.ISet.cardinal s.dead_feeding in
      if feeding > !worst then begin
        worst := feeding;
        example := s.dead_feeding_example;
        where := s.ordinal
      end)
    snaps;
  (* path sensitivity: the access graph must exhibit the actual dead
     links, and they name the field to clear *)
  let sample_link =
    match Shape.worst shape with
    | Some g -> (
        match
          List.find_opt (fun (l : Shape.link) -> l.Shape.l_dst_live) g.Shape.sh_dead_links
        with
        | Some l -> Some l
        | None -> (
            match g.Shape.sh_dead_links with l :: _ -> Some l | [] -> None))
    | None -> None
  in
  match sample_link with
  | Some l when !worst >= 8 ->
      [
        {
          rule = "R2";
          severity = Warning;
          title = "dequeued objects retain live data through uncleared links";
          paper_ref = "Boehm'93 s.4 (clear links in dequeue operations)";
          detail =
            Printf.sprintf
              "at GC #%d, %d objects the mutator will never touch again still \
               reach live data through their pointer fields (e.g. dead #%d \
               field %d -> %s#%d); any spurious reference to one of them \
               drags the live structure along.  Clear the link field when \
               removing an entry."
              !where !worst l.Shape.l_src l.Shape.l_field
              (if l.Shape.l_dst_live then "live " else "dead ")
              l.Shape.l_dst;
          example_obj = (match !example with Some e -> Some e | None -> Some l.Shape.l_src);
        };
      ]
  | _ -> []

(* R3: pointer-free data allocated scanned.  The paper's collector
   provides atomic allocation exactly so character/number data is never
   scanned for pointers; a group of same-size scanned objects that
   never held a pointer over the whole trace should have been atomic. *)
let r3_should_be_atomic (objects : (int, Apparent.obj_state) Hashtbl.t) =
  let groups = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (o : Apparent.obj_state) ->
      if not o.o_pointer_free then
        let count, bytes, held, ex =
          Option.value (Hashtbl.find_opt groups o.o_bytes) ~default:(0, 0, false, None)
        in
        Hashtbl.replace groups o.o_bytes
          ( count + 1,
            bytes + o.o_bytes,
            held || o.o_ever_held_ptr,
            (if ex = None then Some o.o_id else ex) ))
    objects;
  Hashtbl.fold
    (fun size (count, total, held, example) acc ->
      if (not held) && count >= 8 && total >= 4096 then
        {
          rule = "R3";
          severity = Advice;
          title = "pointer-free data allocated as scanned";
          paper_ref = "Boehm'93 s.3 (atomic allocation)";
          detail =
            Printf.sprintf
              "%d scanned objects of %d bytes (%d bytes total) never held a \
               pointer; allocate them atomic so their contents are neither \
               scanned nor a source of false references."
              count size total;
          example_obj = example;
        }
        :: acc
      else acc)
    groups []

(* R4: large objects under interior pointers.  Observation 7 in section
   3: large pointer-containing objects are both likely false-reference
   targets (any address in their extent pins them when interior
   pointers are honored) and, when scanned, large sources of false
   references.  The paper's mitigations: blacklisting and incremental
   allocation of large chunks. *)
let r4_large_scanned (p : Ir.program) =
  if not p.interior_pointers then []
  else
    let worst = ref None in
    Array.iter
      (fun instr ->
        match instr with
        | Ir.Alloc { obj; bytes; pointer_free; _ } when (not pointer_free) && bytes >= 65536
          -> (
            match !worst with
            | Some (_, b) when b >= bytes -> ()
            | _ -> worst := Some (obj, bytes))
        | _ -> ())
      p.code;
    match !worst with
    | None -> []
    | Some (id, bytes) ->
        [
          {
            rule = "R4";
            severity = Advice;
            title = "large scanned object with interior pointers honored";
            paper_ref = "Boehm'93 s.3, observation 7";
            detail =
              Printf.sprintf
                "a %d-byte scanned object is allocated while the collector \
                 honors interior pointers: any integer falling in its %d-page \
                 extent pins all of it, and scanning it may manufacture false \
                 references.  Allocate it atomic if pointer-free, or rely on \
                 blacklisting-style address filtering."
                bytes ((bytes + 4095) / 4096);
            example_obj = Some id;
          };
        ]

(* R5: frames never cleared before GC points.  Section 3.1: compilers
   and mutators that leave dead pointers in stack frames (uninitialized
   re-exposed slots, dead locals, padding) cause retention no collector
   improvement can undo; the measured fix is clearing frames or
   periodically zeroing the dead stack. *)
let r5_careless_stack (p : Ir.program) (snaps : Apparent.gc_snapshot list) =
  (* the rule is "frames are never cleared before a GC point": a
     program that clears frames on entry or periodically zeroes the
     dead stack is already applying the section 3.1 mitigation — its
     (reduced) residue is the paper's observed floor, not a lint *)
  let mitigated =
    Array.exists
      (function
        | Ir.Stack_clear _ | Ir.Frame_push { cleared = true; _ } -> true
        | _ -> false)
      p.code
  in
  if mitigated then []
  else begin
  let worst = ref None in
  List.iter
    (fun (s : Apparent.gc_snapshot) ->
      let n = ISet.cardinal s.apparent in
      if n > 0 then
        let frac = float_of_int s.stack_excess /. float_of_int n in
        if s.stack_excess >= 8 && frac >= 0.25 then
          match !worst with
          | Some (e, _, _) when e >= s.stack_excess -> ()
          | _ -> worst := Some (s.stack_excess, frac, s.ordinal))
    snaps;
  match !worst with
  | None -> []
  | Some (excess, frac, ord) ->
      [
        {
          rule = "R5";
          severity = Warning;
          title = "stack hygiene: dead frame contents retain objects";
          paper_ref = "Boehm'93 s.3.1 (clearing the stack)";
          detail =
            Printf.sprintf
              "at GC #%d, %d objects (%.0f%% of the apparent heap) are \
               retained only through stale stack slots, frame padding, spill \
               residue or dead registers.  Clear frames on entry or \
               periodically zero the dead portion of the stack."
              ord excess (100. *. frac);
          example_obj = None;
        };
      ]
  end

let run (p : Ir.program) (r : Apparent.result) (shape : Shape.t) =
  r1_embedded_links r.snapshots shape
  @ r2_uncleared_links r.snapshots shape
  @ r3_should_be_atomic r.objects
  @ r4_large_scanned p
  @ r5_careless_stack p r.snapshots

let pp_finding ppf (f : finding) =
  Fmt.pf ppf "@[<v2>[%s] %s: %s (%s)@,@[<hov>%a@]@]"
    f.rule
    (match f.severity with Warning -> "warning" | Advice -> "advice")
    f.title f.paper_ref Fmt.text f.detail
