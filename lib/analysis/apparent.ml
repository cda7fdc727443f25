(* Forward abstract interpretation of an IR program, modelling exactly
   what the conservative marker sees at each GC point.

   The pass mirrors the machine: register file, stack image (with the
   provenance of every word — who wrote it, under which frame
   activation), global words, and a heap of abstract objects with their
   current field values and concrete address ranges.  At each GC point
   it computes:

   - the APPARENT live set: the closure, over raw word values resolved
     against the current address map, of every scanned location —
     registers, the live stack [sp..top], all globals.  This is the
     paper's collector, replayed abstractly.
   - the PRECISE live set: the closure, over semantic pointer edges
     only, of the dataflow-live locations plus the objects the mutator
     demonstrably accesses later in the trace.  This is what an ideal
     liveness-aware precise collector would keep.
   - a classification of every spurious root (a scanned word that
     resolves to an object without being dataflow-live): stale
     re-exposed slots, dead locals, frame padding, allocator spill
     residue, dead registers, stale globals, parked stack — the
     paper's section 3/3.1 taxonomy.

   Objects the apparent closure misses are freed in the model, exactly
   when the real collector would sweep them, so the address map tracks
   address reuse faithfully. *)

module ISet = Liveness.ISet
module IMap = Map.Make (Int)

type root_class =
  | Intended
  | Dead_local  (** written under the current activation, never read again *)
  | Stale_slot  (** left by a previous activation, re-exposed uninitialized *)
  | Padding  (** never-written pad words of the covering frame *)
  | Spill_residue  (** allocator scratch the allocator did not clear *)
  | Dead_register
  | Stale_global
  | Parked  (** under a parked (blocked-thread) stack region *)

let class_name = function
  | Intended -> "intended"
  | Dead_local -> "dead local"
  | Stale_slot -> "stale slot"
  | Padding -> "frame padding"
  | Spill_residue -> "spill residue"
  | Dead_register -> "dead register"
  | Stale_global -> "stale global"
  | Parked -> "parked stack"

type spurious_root = {
  sr_class : root_class;
  sr_where : string;
  sr_raw : int;
  sr_target : int;  (** object id the raw value resolves to *)
}

type structure_stats = {
  g_bytes : int;
  g_pointer_free : bool;
  g_count : int;
  g_mean_intra_degree : float;
      (** mean semantic out-edges per member into the same group *)
  g_mean_blast : float;
      (** mean fraction of the apparent heap reachable from one member *)
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
      (** apparent objects retained only through stack garbage that
          clearing would remove — stale slots, frame padding, spill
          residue, dead registers (dead locals in live frames are
          excluded: no clearing scheme reclaims those) *)
  dead_feeding : ISet.t;
      (** precise-dead objects from which precise-live data is
          reachable — the uncleared-link signature of section 4 *)
  dead_feeding_example : int option;
  structures : structure_stats list;
  edges : (int * int * int) list;
      (** semantic pointer edges [(src, field, dst)] out of apparent
          objects at this point — the raw material of access graphs *)
  unresolved : ISet.t;
      (** nonzero raw words the marker scanned (or traversed into) that
          resolved to no object — exactly the false references the real
          collector would blacklist *)
}

type obj_state = {
  o_id : int;
  o_base : int;
  o_bytes : int;
  o_pointer_free : bool;
  o_fields : Ir.value array;
  mutable o_freed : bool;
  mutable o_freed_at : int option;  (** GC ordinal of the model sweep *)
  mutable o_ever_held_ptr : bool;
}

type result = {
  snapshots : gc_snapshot list;
  objects : (int, obj_state) Hashtbl.t;
  n_objects : int;
}

type prov =
  | P_zero
  | P_local of int  (** frame generation the write happened under *)
  | P_spill

type frame_info = {
  fr_lo : int;
  fr_slots : int;
  fr_padding : int;
  fr_gen : int;
}

let analyze (p : Ir.program) (lv : Liveness.t) =
  let regs = Array.make p.n_registers (Ir.vint 0) in
  let stack = Array.make p.stack_words (Ir.vint 0) in
  let prov = Array.make p.stack_words P_zero in
  let globals = Array.make p.globals_words (Ir.vint 0) in
  let objects : (int, obj_state) Hashtbl.t = Hashtbl.create 4096 in
  let addr_map = ref IMap.empty in
  let frames = ref ([] : frame_info list) in
  let gen = ref 0 in
  let snapshots = ref [] in
  let n_objects = ref 0 in

  let covering w =
    List.find_opt (fun f -> f.fr_lo <= w && w < f.fr_lo + f.fr_slots + f.fr_padding) !frames
  in
  let obj id = Hashtbl.find_opt objects id in
  let resolve raw =
    if raw = 0 then None
    else
      match IMap.find_last_opt (fun b -> b <= raw) !addr_map with
      | Some (b, (id, bytes)) when raw < b + bytes ->
          if raw = b || p.interior_pointers then Some id else None
      | _ -> None
  in
  (* closure over raw values resolved against the current address map:
     the conservative marker.  [misses], when given, accumulates the
     nonzero raws that resolve to nothing — the marker's false
     references, which the real collector blacklists. *)
  let numeric_closure ?misses seeds =
    let seen = ref ISet.empty in
    let queue = Queue.create () in
    let consider raw =
      match resolve raw with
      | Some id ->
          if not (ISet.mem id !seen) then begin
            seen := ISet.add id !seen;
            Queue.add id queue
          end
      | None -> (
          match misses with
          | Some m when raw <> 0 -> m := ISet.add raw !m
          | _ -> ())
    in
    List.iter consider seeds;
    while not (Queue.is_empty queue) do
      let id = Queue.take queue in
      match obj id with
      | Some o when not o.o_pointer_free ->
          Array.iter (fun (v : Ir.value) -> consider v.raw) o.o_fields
      | _ -> ()
    done;
    !seen
  in
  (* closure over semantic edges only, skipping freed objects: the
     ideal precise collector *)
  let semantic_closure seed_ids =
    let seen = ref ISet.empty in
    let queue = Queue.create () in
    let visit id =
      match obj id with
      | Some o when (not o.o_freed) && not (ISet.mem id !seen) ->
          seen := ISet.add id !seen;
          Queue.add id queue
      | _ -> ()
    in
    List.iter visit seed_ids;
    while not (Queue.is_empty queue) do
      let id = Queue.take queue in
      match obj id with
      | Some o when not o.o_pointer_free ->
          Array.iter
            (fun (v : Ir.value) -> match v.obj with Some t -> visit t | None -> ())
            o.o_fields
      | _ -> ()
    done;
    !seen
  in
  let bytes_of set =
    ISet.fold (fun id acc -> match obj id with Some o -> acc + o.o_bytes | None -> acc) set 0
  in

  let classify_stack_word (live : Liveness.at_gc) w =
    if ISet.mem w live.Liveness.live_stack then Intended
    else
      match covering w with
      | None -> Parked
      | Some f ->
          if w < f.fr_lo + f.fr_slots then begin
            match prov.(w) with
            | P_spill -> Spill_residue
            | P_local g when g = f.fr_gen -> Dead_local
            | P_local _ | P_zero -> Stale_slot
          end
          else Padding
  in

  let structure_stats apparent =
    (* group apparent objects by (rounded size, atomicity) — the trace
       analogue of "type" — and measure how tightly each group links to
       itself and how much one member drags along *)
    let groups = Hashtbl.create 8 in
    ISet.iter
      (fun id ->
        match obj id with
        | Some o ->
            let key = (o.o_bytes, o.o_pointer_free) in
            Hashtbl.replace groups key (id :: (Option.value (Hashtbl.find_opt groups key) ~default:[]))
        | None -> ())
      apparent;
    let total = float_of_int (max 1 (ISet.cardinal apparent)) in
    Hashtbl.fold
      (fun (g_bytes, g_pointer_free) members acc ->
        let n = List.length members in
        if n < 16 then acc
        else begin
          let member_set = List.fold_left (fun s id -> ISet.add id s) ISet.empty members in
          let intra =
            List.fold_left
              (fun acc id ->
                match obj id with
                | Some o when not o.o_pointer_free ->
                    acc
                    + Array.fold_left
                        (fun c (v : Ir.value) ->
                          match v.obj with
                          | Some t when ISet.mem t member_set -> c + 1
                          | _ -> c)
                        0 o.o_fields
                | _ -> acc)
              0 members
          in
          let sorted = List.sort compare members in
          let arr = Array.of_list sorted in
          let samples =
            List.sort_uniq compare
              (List.init 5 (fun j -> arr.(j * (Array.length arr - 1) / 4)))
          in
          let blast =
            List.fold_left
              (fun acc id ->
                acc +. (float_of_int (ISet.cardinal (semantic_closure [ id ])) /. total))
              0. samples
            /. float_of_int (List.length samples)
          in
          {
            g_bytes;
            g_pointer_free;
            g_count = n;
            g_mean_intra_degree = float_of_int intra /. float_of_int n;
            g_mean_blast = blast;
          }
          :: acc
        end)
      groups []
  in

  let n = Array.length p.code in
  let ordinal = ref 0 in
  for i = 0 to n - 1 do
    match p.code.(i) with
    | Ir.Alloc { obj = id; base; bytes; pointer_free } ->
        let o =
          {
            o_id = id;
            o_base = base;
            o_bytes = bytes;
            o_pointer_free = pointer_free;
            o_fields = Array.make (max 1 (bytes / Ir.word_bytes)) (Ir.vint 0);
            o_freed = false;
            o_freed_at = None;
            o_ever_held_ptr = false;
          }
        in
        Hashtbl.replace objects id o;
        incr n_objects;
        (* evict anything the model still holds in the reused range *)
        let rec purge () =
          match IMap.find_last_opt (fun b -> b < base + bytes) !addr_map with
          | Some (b, (old_id, old_bytes)) when b + old_bytes > base ->
              (match obj old_id with
              | Some old -> old.o_freed <- true
              | None -> ());
              addr_map := IMap.remove b !addr_map;
              purge ()
          | _ -> ()
        in
        purge ();
        addr_map := IMap.add base (id, bytes) !addr_map
    | Ir.Reg_write { reg; value } -> if reg < p.n_registers then regs.(reg) <- value
    | Ir.Clear_registers -> Array.fill regs 0 p.n_registers (Ir.vint 0)
    | Ir.Frame_push { slots; padding; cleared } ->
        incr gen;
        let lo = lv.Liveness.sp_before.(i) - slots - padding in
        frames := { fr_lo = lo; fr_slots = slots; fr_padding = padding; fr_gen = !gen } :: !frames;
        if cleared then
          for w = max 0 lo to lv.Liveness.sp_before.(i) - 1 do
            stack.(w) <- Ir.vint 0;
            prov.(w) <- P_zero
          done
    | Ir.Frame_pop { cleared; _ } -> (
        match !frames with
        | f :: rest ->
            frames := rest;
            if cleared then
              for w = f.fr_lo to f.fr_lo + f.fr_slots + f.fr_padding - 1 do
                stack.(w) <- Ir.vint 0;
                prov.(w) <- P_zero
              done
        | [] -> ())
    | Ir.Local_write { word; value } ->
        if word >= 0 && word < p.stack_words then begin
          stack.(word) <- value;
          prov.(word) <-
            (match covering word with Some f -> P_local f.fr_gen | None -> P_local !gen)
        end
    | Ir.Spill_write { word; value } ->
        if word >= 0 && word < p.stack_words then begin
          stack.(word) <- value;
          prov.(word) <- P_spill
        end
    | Ir.Stack_clear { lo_word; n_words } ->
        for w = max 0 lo_word to min (p.stack_words - 1) (lo_word + n_words - 1) do
          stack.(w) <- Ir.vint 0;
          prov.(w) <- P_zero
        done
    | Ir.Heap_write { obj = id; field; value } -> (
        match obj id with
        | Some o ->
            if field >= 0 && field < Array.length o.o_fields then o.o_fields.(field) <- value;
            if value.Ir.obj <> None then o.o_ever_held_ptr <- true
        | None -> ())
    | Ir.Root_write { word; value } -> if word < p.globals_words then globals.(word) <- value
    | Ir.Reg_read _ | Ir.Local_read _ | Ir.Heap_read _ | Ir.Root_read _ | Ir.Park _ | Ir.Unpark
    | Ir.Finalizer_attach _ | Ir.Write_barrier _ ->
        ()
    | Ir.Gc_point { measured } ->
        let k = !ordinal in
        incr ordinal;
        let live = Liveness.at_gc lv k in
        let sp = lv.Liveness.sp_before.(i) in
        (* 1. the conservative marker's view *)
        let seeds = ref [] in
        Array.iter (fun (v : Ir.value) -> seeds := v.raw :: !seeds) regs;
        for w = sp to p.stack_words - 1 do
          seeds := stack.(w).Ir.raw :: !seeds
        done;
        Array.iter (fun (v : Ir.value) -> seeds := v.raw :: !seeds) globals;
        let misses = ref ISet.empty in
        let apparent = numeric_closure ~misses !seeds in
        (* 2. the ideal precise collector's view *)
        let precise_seeds = ref [] in
        ISet.iter
          (fun r ->
            if r < p.n_registers then
              match regs.(r).Ir.obj with Some id -> precise_seeds := id :: !precise_seeds | None -> ())
          live.Liveness.live_regs;
        ISet.iter
          (fun w ->
            if w >= 0 && w < p.stack_words then
              match stack.(w).Ir.obj with
              | Some id -> precise_seeds := id :: !precise_seeds
              | None -> ())
          live.Liveness.live_stack;
        ISet.iter
          (fun w ->
            if w < p.globals_words then
              match globals.(w).Ir.obj with
              | Some id -> precise_seeds := id :: !precise_seeds
              | None -> ())
          live.Liveness.live_globals;
        ISet.iter (fun id -> precise_seeds := id :: !precise_seeds) live.Liveness.used_objects;
        let precise = semantic_closure !precise_seeds in
        (* 3. spurious-root classification *)
        let spurious = ref [] in
        let note cls where raw =
          match resolve raw with
          | Some target when cls <> Intended ->
              spurious := { sr_class = cls; sr_where = where; sr_raw = raw; sr_target = target } :: !spurious
          | _ -> ()
        in
        let intended_raws = ref [] in
        Array.iteri
          (fun r (v : Ir.value) ->
            let cls =
              if ISet.mem r live.Liveness.live_regs then Intended else Dead_register
            in
            if cls = Intended then intended_raws := v.raw :: !intended_raws
            else note cls (Printf.sprintf "r%d" r) v.raw)
          regs;
        for w = sp to p.stack_words - 1 do
          let cls = classify_stack_word live w in
          let raw = stack.(w).Ir.raw in
          if cls <> Intended then note cls (Printf.sprintf "stack[%d] (%s)" w (class_name cls)) raw;
          (* dead locals sit in live frames: the paper's stack clearing
             cannot reclaim them, so they count toward the hygiene
             baseline — the excess is what clearing could actually fix *)
          if cls = Intended || cls = Dead_local then intended_raws := raw :: !intended_raws
        done;
        Array.iteri
          (fun w (v : Ir.value) ->
            (* globals always count toward the hygiene baseline: stack
               clearing cannot help them *)
            intended_raws := v.raw :: !intended_raws;
            if not (ISet.mem w live.Liveness.live_globals) then
              note Stale_global (Printf.sprintf "global[%d]" w) v.raw)
          globals;
        let baseline = numeric_closure !intended_raws in
        let stack_excess = ISet.cardinal apparent - ISet.cardinal baseline in
        (* 4. semantic edges among apparent objects (the access-graph raw
           material), then dead objects feeding live data (uncleared
           links, §4) by reverse reachability over those edges *)
        let dead = ISet.diff apparent precise in
        let edges = ref [] in
        ISet.iter
          (fun id ->
            match obj id with
            | Some o when not o.o_pointer_free ->
                Array.iteri
                  (fun field (v : Ir.value) ->
                    match v.Ir.obj with
                    | Some tgt -> edges := (id, field, tgt) :: !edges
                    | _ -> ())
                  o.o_fields
            | _ -> ())
          apparent;
        let edges = List.rev !edges in
        let feeding = ref ISet.empty in
        let example = ref None in
        if not (ISet.is_empty dead) then begin
          let rev : (int, int list) Hashtbl.t = Hashtbl.create 64 in
          List.iter
            (fun (src, _, tgt) ->
              Hashtbl.replace rev tgt (src :: Option.value (Hashtbl.find_opt rev tgt) ~default:[]))
            edges;
          let queue = Queue.create () in
          ISet.iter (fun id -> Queue.add id queue) precise;
          let seen = ref precise in
          while not (Queue.is_empty queue) do
            let id = Queue.take queue in
            List.iter
              (fun src ->
                if ISet.mem src dead && not (ISet.mem src !seen) then begin
                  seen := ISet.add src !seen;
                  feeding := ISet.add src !feeding;
                  if !example = None then example := Some src;
                  Queue.add src queue
                end)
              (Option.value (Hashtbl.find_opt rev id) ~default:[])
          done
        end;
        let structures = structure_stats apparent in
        snapshots :=
          {
            ordinal = k;
            at_instr = i;
            sp_word = sp;
            measured;
            apparent;
            precise;
            apparent_bytes = bytes_of apparent;
            precise_bytes = bytes_of precise;
            spurious = List.rev !spurious;
            stack_excess;
            dead_feeding = !feeding;
            dead_feeding_example = !example;
            structures;
            edges;
            unresolved = !misses;
          }
          :: !snapshots;
        (* 5. the model sweep: whatever the marker missed is reclaimed *)
        addr_map :=
          IMap.filter
            (fun _ (id, _) ->
              if ISet.mem id apparent then true
              else begin
                (match obj id with
                | Some o ->
                    o.o_freed <- true;
                    o.o_freed_at <- Some k
                | None -> ());
                false
              end)
            !addr_map
  done;
  { snapshots = List.rev !snapshots; objects; n_objects = !n_objects }
