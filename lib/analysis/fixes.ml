(* Verified fix suggestions: the exact IR edits that close a lint
   finding's retention gap.

   Every suggestion is a list of mechanical edits against the recorded
   program — a link-field clear placed immediately after an object's
   last access, a [Stack_clear] placed immediately before a GC point,
   or an atomic re-allocation — chosen so the edit provably cannot
   change what the program computes:

   - a heap-link clear is only emitted for objects that are
     precise-dead at every later GC point and never accessed again, so
     no read observes the cleared field and the precise closure (which
     never traverses out of precise-dead objects) is untouched;
   - a stack clear only covers words that are neither dataflow-live at
     that GC point nor read again before being overwritten (computed by
     a dedicated backward pass that, unlike liveness, does *not* treat
     a frame push as a kill — re-reading a recycled slot through a
     fresh frame still observes the old value);
   - an atomic re-allocation is only emitted for objects that never
     held a pointer, so the semantic closure never traverses them
     anyway.

   [verify_static] then checks the claim wholesale by re-running the
   liveness + marker pipeline on the edited program: precise sets must
   be identical at every GC point, the apparent sets must not grow, and
   the full read stream must be unchanged.  The dynamic half of the
   verification — replaying both programs through the real collector
   and confirming measured retention drops — lives in {!Replay}. *)

module ISet = Liveness.ISet

type edit =
  | Insert of { at : int; instr : Ir.instr }  (** insert before original index [at] *)
  | Make_atomic of { obj : int }  (** flip the object's [Alloc] to pointer-free *)

type suggestion = {
  fx_rule : string;
  fx_title : string;
  fx_edits : edit list;
  fx_rationale : string;
}

type verdict = {
  sv_gc_points : int;
  sv_precise_preserved : bool;
  sv_apparent_not_worse : bool;
  sv_reads_preserved : bool;
  sv_no_premature_free : bool;
      (** no object becomes reclaimable before its last access because
          of the edit — the trace proves later accesses happened but
          not which root serviced them, so an edit that lets the marker
          drop a still-accessed object would make a real replay land on
          recycled memory *)
  sv_apparent_drop_bytes : int;
      (** total apparent-retention reduction over all GC points *)
}

let sound v =
  v.sv_precise_preserved && v.sv_apparent_not_worse && v.sv_reads_preserved
  && v.sv_no_premature_free

let apply (p : Ir.program) edits =
  let n = Array.length p.Ir.code in
  let inserts = Array.make (n + 1) [] in
  let atomics = Hashtbl.create 8 in
  List.iter
    (function
      | Insert { at; instr } ->
          let at = max 0 (min n at) in
          inserts.(at) <- instr :: inserts.(at)
      | Make_atomic { obj } -> Hashtbl.replace atomics obj ())
    edits;
  let out = ref [] in
  for i = 0 to n - 1 do
    List.iter (fun instr -> out := instr :: !out) (List.rev inserts.(i));
    let instr =
      match p.Ir.code.(i) with
      | Ir.Alloc a when Hashtbl.mem atomics a.obj -> Ir.Alloc { a with pointer_free = true }
      | other -> other
    in
    out := instr :: !out
  done;
  List.iter (fun instr -> out := instr :: !out) (List.rev inserts.(n));
  { p with Ir.code = Array.of_list (List.rev !out) }

(* ------------------------------------------------------------------ *)
(* Static verification                                                 *)

(* The observable surface of a program at the IR level: the sequence of
   values its reads return.  A forward mirror of the machine state —
   same update rules as the marker model, no closures. *)
let read_stream (p : Ir.program) =
  let regs = Array.make p.Ir.n_registers (Ir.vint 0) in
  let stack = Array.make p.Ir.stack_words (Ir.vint 0) in
  let globals = Array.make p.Ir.globals_words (Ir.vint 0) in
  let fields : (int, Ir.value array) Hashtbl.t = Hashtbl.create 1024 in
  let reads = ref [] in
  let note (v : Ir.value) = reads := (v.Ir.raw, v.Ir.obj) :: !reads in
  Array.iter
    (fun instr ->
      match instr with
      | Ir.Alloc { obj; bytes; _ } ->
          Hashtbl.replace fields obj (Array.make (max 1 (bytes / Ir.word_bytes)) (Ir.vint 0))
      | Ir.Reg_write { reg; value } -> if reg < p.Ir.n_registers then regs.(reg) <- value
      | Ir.Reg_read { reg } -> if reg < p.Ir.n_registers then note regs.(reg)
      | Ir.Clear_registers -> Array.fill regs 0 p.Ir.n_registers (Ir.vint 0)
      | Ir.Local_write { word; value } | Ir.Spill_write { word; value } ->
          if word >= 0 && word < p.Ir.stack_words then stack.(word) <- value
      | Ir.Local_read { word } ->
          if word >= 0 && word < p.Ir.stack_words then note stack.(word)
      | Ir.Stack_clear { lo_word; n_words } ->
          for w = max 0 lo_word to min (p.Ir.stack_words - 1) (lo_word + n_words - 1) do
            stack.(w) <- Ir.vint 0
          done
      | Ir.Heap_write { obj; field; value } -> (
          match Hashtbl.find_opt fields obj with
          | Some a when field >= 0 && field < Array.length a -> a.(field) <- value
          | _ -> ())
      | Ir.Heap_read { obj; field } -> (
          match Hashtbl.find_opt fields obj with
          | Some a when field >= 0 && field < Array.length a -> note a.(field)
          | _ -> note (Ir.vint 0))
      | Ir.Root_write { word; value } ->
          if word >= 0 && word < p.Ir.globals_words then globals.(word) <- value
      | Ir.Root_read { word } ->
          if word >= 0 && word < p.Ir.globals_words then note globals.(word)
      | Ir.Frame_push _ | Ir.Frame_pop _ | Ir.Gc_point _ | Ir.Park _ | Ir.Unpark
      | Ir.Finalizer_attach _ | Ir.Write_barrier _ ->
          ())
    p.Ir.code;
  List.rev !reads

let last_access_table (p : Ir.program) =
  let t : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Ir.Alloc { obj; _ }
      | Ir.Heap_read { obj; _ }
      | Ir.Heap_write { obj; _ }
      | Ir.Finalizer_attach { obj; _ }
      | Ir.Write_barrier { obj; _ } ->
          Hashtbl.replace t obj i
      | _ -> ())
    p.Ir.code;
  t

let verify_static (p : Ir.program) edits =
  let fixed = apply p edits in
  let analyze q =
    let lv = Liveness.analyze q in
    Apparent.analyze q lv
  in
  let before = analyze p and after = analyze fixed in
  let sb = before.Apparent.snapshots and sa = after.Apparent.snapshots in
  let sv_gc_points = List.length sb in
  let same_length = List.length sa = sv_gc_points in
  let precise_preserved =
    same_length
    && List.for_all2
         (fun (b : Apparent.gc_snapshot) (a : Apparent.gc_snapshot) ->
           ISet.equal b.Apparent.precise a.Apparent.precise)
         sb sa
  in
  let apparent_not_worse =
    same_length
    && List.for_all2
         (fun (b : Apparent.gc_snapshot) (a : Apparent.gc_snapshot) ->
           ISet.subset a.Apparent.apparent b.Apparent.apparent)
         sb sa
  in
  let drop =
    if not same_length then 0
    else
      List.fold_left2
        (fun acc (b : Apparent.gc_snapshot) (a : Apparent.gc_snapshot) ->
          acc + (b.Apparent.apparent_bytes - a.Apparent.apparent_bytes))
        0 sb sa
  in
  (* Ordinals align whenever precise sets are preserved (same GC
     structure), so premature frees are compared ordinal by ordinal:
     the edit must not let the model sweep reclaim an object strictly
     before its last recorded access unless the original model already
     reclaimed it at least as early. *)
  let no_premature_free =
    (not same_length)
    ||
    let last = last_access_table p in
    let at_instr = Array.of_list (List.map (fun s -> s.Apparent.at_instr) sb) in
    Hashtbl.fold
      (fun id (oa : Apparent.obj_state) ok ->
        ok
        &&
        match oa.Apparent.o_freed_at with
        | None -> true
        | Some ka -> (
            let accessed_later =
              match Hashtbl.find_opt last id with
              | Some l -> ka < Array.length at_instr && l > at_instr.(ka)
              | None -> false
            in
            (not accessed_later)
            ||
            match Hashtbl.find_opt before.Apparent.objects id with
            | Some ob -> ( match ob.Apparent.o_freed_at with Some kb -> kb <= ka | None -> false)
            | None -> false))
      after.Apparent.objects true
  in
  {
    sv_gc_points;
    sv_precise_preserved = precise_preserved;
    sv_apparent_not_worse = apparent_not_worse;
    sv_reads_preserved = read_stream p = read_stream fixed;
    sv_no_premature_free = no_premature_free;
    sv_apparent_drop_bytes = drop;
  }

(* ------------------------------------------------------------------ *)
(* Suggestion generation                                               *)

(* Last instruction index that mentions the object at all (allocation,
   field traffic, finalizer attachment, barrier).  Clears are inserted
   just after it, so nothing can observe them. *)
let last_access (p : Ir.program) id =
  let last = ref (-1) in
  Array.iteri
    (fun i instr ->
      match instr with
      | Ir.Alloc { obj; _ }
      | Ir.Heap_read { obj; _ }
      | Ir.Heap_write { obj; _ }
      | Ir.Finalizer_attach { obj; _ }
      | Ir.Write_barrier { obj; _ } ->
          if obj = id then last := i
      | _ -> ())
    p.Ir.code;
  !last

(* An object may have its links cleared after [i] only if no later GC
   point considers it precise-live: clearing a precise-live object's
   fields would change what an ideal collector retains. *)
let precise_dead_after (r : Apparent.result) id i =
  List.for_all
    (fun (s : Apparent.gc_snapshot) ->
      s.Apparent.at_instr <= i || not (ISet.mem id s.Apparent.precise))
    r.Apparent.snapshots

let clear_edits (p : Ir.program) (r : Apparent.result) id =
  match Hashtbl.find_opt r.Apparent.objects id with
  | None -> []
  | Some o ->
      if o.Apparent.o_pointer_free then []
      else
        let last = last_access p id in
        if last < 0 || not (precise_dead_after r id last) then []
        else
          Array.to_list o.Apparent.o_fields
          |> List.mapi (fun f (v : Ir.value) -> (f, v))
          |> List.filter_map (fun (f, (v : Ir.value)) ->
                 if v.Ir.raw = 0 then None
                 else
                   Some
                     (Insert
                        {
                          at = last + 1;
                          instr = Ir.Heap_write { obj = id; field = f; value = Ir.vint 0 };
                        }))

(* Stack-clear targets: for each GC point, the scanned words that are
   neither dataflow-live there nor read again before being overwritten.
   The latter set deliberately ignores frame-push kills — a fresh
   frame's slot read before its first write still observes the old
   value, so clearing it would change that read. *)
let readable_per_gc (p : Ir.program) =
  let n = Array.length p.Ir.code in
  let n_gc = Ir.count_gc_points p in
  let out = Array.make (max n_gc 1) ISet.empty in
  let s = ref ISet.empty in
  let k = ref (n_gc - 1) in
  for i = n - 1 downto 0 do
    match p.Ir.code.(i) with
    | Ir.Gc_point _ ->
        out.(!k) <- !s;
        decr k
    | Ir.Local_read { word } -> s := ISet.add word !s
    | Ir.Local_write { word; _ } | Ir.Spill_write { word; _ } -> s := ISet.remove word !s
    | Ir.Stack_clear { lo_word; n_words } ->
        for w = lo_word to lo_word + n_words - 1 do
          s := ISet.remove w !s
        done
    | _ -> ()
  done;
  out

(* The same read-before-overwrite pass for registers. *)
let reg_readable_per_gc (p : Ir.program) =
  let n = Array.length p.Ir.code in
  let n_gc = Ir.count_gc_points p in
  let out = Array.make (max n_gc 1) ISet.empty in
  let s = ref ISet.empty in
  let k = ref (n_gc - 1) in
  for i = n - 1 downto 0 do
    match p.Ir.code.(i) with
    | Ir.Gc_point _ ->
        out.(!k) <- !s;
        decr k
    | Ir.Reg_read { reg } -> s := ISet.add reg !s
    | Ir.Reg_write { reg; _ } -> s := ISet.remove reg !s
    | Ir.Clear_registers -> s := ISet.empty
    | _ -> ()
  done;
  out

module IMap = Map.Make (Int)

(* Hygiene edits: before each GC point, zero the scanned stack words
   and registers that are dead, never read again, and — crucially — do
   not conservatively retain anything the program still accesses.  The
   trace only proves an access *happened*; it does not say which root
   kept the object alive for it.  If the stale word we are about to
   clear was that root, the real collector would free the object and a
   later access would land on recycled memory.  So each candidate's
   value is chased through the current heap image, and clearing is
   vetoed when anything reachable from it is accessed after this GC
   point. *)
let hygiene_edits (p : Ir.program) (lv : Liveness.t) (r : Apparent.result) =
  let readable = readable_per_gc p in
  let reg_readable = reg_readable_per_gc p in
  let last = last_access_table p in
  let regs = Array.make (max 1 p.Ir.n_registers) (Ir.vint 0) in
  let stack = Array.make (max 1 p.Ir.stack_words) (Ir.vint 0) in
  let fields : (int, Ir.value array) Hashtbl.t = Hashtbl.create 1024 in
  let by_base = ref IMap.empty in
  let resolve raw =
    if raw = 0 then None
    else
      match IMap.find_last_opt (fun b -> b <= raw) !by_base with
      | Some (b, (id, bytes)) when raw < b + bytes -> Some id
      | _ -> None
  in
  let hazard at_instr (v : Ir.value) =
    let seen = Hashtbl.create 16 in
    let rec go id =
      (not (Hashtbl.mem seen id))
      && begin
           Hashtbl.add seen id ();
           (match Hashtbl.find_opt last id with Some l -> l > at_instr | None -> false)
           || (match Hashtbl.find_opt fields id with
              | Some a -> Array.exists vhaz a
              | None -> false)
         end
    and vhaz (v : Ir.value) =
      (match v.Ir.obj with Some id -> go id | None -> false)
      || (match resolve v.Ir.raw with Some id -> go id | None -> false)
    in
    vhaz v
  in
  let snaps = Array.of_list r.Apparent.snapshots in
  let edits = ref [] in
  let ordinal = ref 0 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Ir.Alloc { obj; bytes; _ } ->
          Hashtbl.replace fields obj (Array.make (max 1 (bytes / Ir.word_bytes)) (Ir.vint 0));
          (match Hashtbl.find_opt r.Apparent.objects obj with
          | Some o -> by_base := IMap.add o.Apparent.o_base (obj, o.Apparent.o_bytes) !by_base
          | None -> ())
      | Ir.Reg_write { reg; value } -> if reg < Array.length regs then regs.(reg) <- value
      | Ir.Clear_registers -> Array.fill regs 0 (Array.length regs) (Ir.vint 0)
      | Ir.Local_write { word; value } | Ir.Spill_write { word; value } ->
          if word >= 0 && word < p.Ir.stack_words then stack.(word) <- value
      | Ir.Stack_clear { lo_word; n_words } ->
          for w = max 0 lo_word to min (p.Ir.stack_words - 1) (lo_word + n_words - 1) do
            stack.(w) <- Ir.vint 0
          done
      | Ir.Frame_push { slots; padding; cleared } ->
          if cleared then begin
            let sp = lv.Liveness.sp_before.(i) in
            for w = max 0 (sp - slots - padding) to min (p.Ir.stack_words - 1) (sp - 1) do
              stack.(w) <- Ir.vint 0
            done
          end
      | Ir.Heap_write { obj; field; value } -> (
          match Hashtbl.find_opt fields obj with
          | Some a when field >= 0 && field < Array.length a -> a.(field) <- value
          | _ -> ())
      | Ir.Gc_point _ when !ordinal < Array.length snaps ->
          let k = !ordinal in
          incr ordinal;
          let s = snaps.(k) in
          let live = Liveness.at_gc lv k in
          let unsafe = if k < Array.length readable then readable.(k) else ISet.empty in
          let clearable w =
            w >= s.Apparent.sp_word
            && w < p.Ir.stack_words
            && (not (ISet.mem w live.Liveness.live_stack))
            && (not (ISet.mem w unsafe))
            && (stack.(w).Ir.raw = 0 || not (hazard s.Apparent.at_instr stack.(w)))
          in
          (* contiguous runs of clearable scanned words *)
          let run_start = ref None in
          let flush upto =
            match !run_start with
            | Some lo ->
                run_start := None;
                edits :=
                  Insert
                    {
                      at = s.Apparent.at_instr;
                      instr = Ir.Stack_clear { lo_word = lo; n_words = upto - lo };
                    }
                  :: !edits
            | None -> ()
          in
          for w = s.Apparent.sp_word to p.Ir.stack_words - 1 do
            if clearable w then (if !run_start = None then run_start := Some w) else flush w
          done;
          flush p.Ir.stack_words;
          let reg_unsafe =
            if k < Array.length reg_readable then reg_readable.(k) else ISet.empty
          in
          for reg = 0 to p.Ir.n_registers - 1 do
            if
              (not (ISet.mem reg live.Liveness.live_regs))
              && (not (ISet.mem reg reg_unsafe))
              && regs.(reg).Ir.raw <> 0
              && not (hazard s.Apparent.at_instr regs.(reg))
            then
              edits :=
                Insert
                  {
                    at = s.Apparent.at_instr;
                    instr = Ir.Reg_write { reg; value = Ir.vint 0 };
                  }
                :: !edits
          done
      | _ -> ())
    p.Ir.code;
  List.rev !edits

(* Objects that are precise-dead somewhere and participate in the
   finding's structure: the clear-target set for R1/R2. *)
let dead_members (r : Apparent.result) keep =
  let dead = ref ISet.empty in
  List.iter
    (fun (s : Apparent.gc_snapshot) ->
      ISet.iter
        (fun id -> if (not (ISet.mem id s.Apparent.precise)) && keep id then dead := ISet.add id !dead)
        s.Apparent.apparent)
    r.Apparent.snapshots;
  !dead

let suggest (p : Ir.program) (lv : Liveness.t) (r : Apparent.result) (shape : Shape.t)
    (f : Lint.finding) =
  let obj id = Hashtbl.find_opt r.Apparent.objects id in
  match f.Lint.rule with
  | "R1" ->
      (* clear the embedded links of every precise-dead member of a
         self-linked group, severing the intra-group blast paths *)
      let self = Shape.self_linked shape in
      let in_self_group id =
        match obj id with
        | Some o ->
            List.mem_assoc (o.Apparent.o_bytes, o.Apparent.o_pointer_free) self
            && not o.Apparent.o_pointer_free
        | None -> false
      in
      let targets = dead_members r in_self_group in
      let edits = List.concat_map (clear_edits p r) (ISet.elements targets) in
      if edits = [] then None
      else
        Some
          {
            fx_rule = "R1";
            fx_title = "clear embedded links of dead structure members";
            fx_edits = edits;
            fx_rationale =
              Printf.sprintf
                "%d dead members of the self-linked group never get their \
                 embedded links cleared; zeroing each field right after the \
                 member's last access cuts the blast radius a false reference \
                 can drag along."
                (ISet.cardinal targets);
          }
  | "R2" ->
      (* clear the dead links the access graphs exhibit: every outgoing
         field of a dead-feeding object *)
      let srcs =
        List.fold_left
          (fun acc (g : Shape.graph) ->
            List.fold_left
              (fun acc (l : Shape.link) -> ISet.add l.Shape.l_src acc)
              acc g.Shape.sh_dead_links)
          ISet.empty shape.Shape.graphs
      in
      let edits = List.concat_map (clear_edits p r) (ISet.elements srcs) in
      if edits = [] then None
      else
        Some
          {
            fx_rule = "R2";
            fx_title = "clear links when dequeuing";
            fx_edits = edits;
            fx_rationale =
              Printf.sprintf
                "%d dequeued objects still point into the structure; zeroing \
                 each link right after the object's last access is exactly \
                 the paper's clear-on-dequeue advice, applied post hoc."
                (ISet.cardinal srcs);
          }
  | "R5" ->
      let edits = hygiene_edits p lv r in
      if edits = [] then None
      else
        Some
          {
            fx_rule = "R5";
            fx_title = "clear dead stack words and registers before collections";
            fx_edits = edits;
            fx_rationale =
              "before each GC point, zero the scanned stack words and \
               registers that are neither dataflow-live nor read again and \
               that retain nothing the program still touches — the section \
               3.1 stack-clearing mitigation placed at exactly the points \
               where the marker looks.";
          }
  | "R3" | "R4" ->
      (* atomic re-allocation for objects that never held a pointer *)
      let group_bytes =
        match f.Lint.example_obj with
        | Some id -> ( match obj id with Some o -> Some o.Apparent.o_bytes | None -> None)
        | None -> None
      in
      let edits =
        Hashtbl.fold
          (fun id (o : Apparent.obj_state) acc ->
            let in_group =
              match group_bytes with Some b -> o.Apparent.o_bytes = b | None -> true
            in
            if in_group && (not o.Apparent.o_pointer_free) && not o.Apparent.o_ever_held_ptr
            then Make_atomic { obj = id } :: acc
            else acc)
          r.Apparent.objects []
      in
      if edits = [] then None
      else
        Some
          {
            fx_rule = f.Lint.rule;
            fx_title = "allocate pointer-free data atomically";
            fx_edits = edits;
            fx_rationale =
              Printf.sprintf
                "%d objects never held a pointer over the whole trace; \
                 allocating them atomic removes their contents from the scan \
                 and from the false-reference pool."
                (List.length edits);
          }
  | _ -> None

let pp_suggestion ppf s =
  Format.fprintf ppf "@[<v2>fix [%s] %s (%d edit%s)@,@[<hov>%a@]@]" s.fx_rule s.fx_title
    (List.length s.fx_edits)
    (if List.length s.fx_edits = 1 then "" else "s")
    Fmt.text s.fx_rationale

let pp_verdict ppf v =
  Format.fprintf ppf
    "static: precise %s, apparent %s, reads %s, frees %s, -%dB apparent over %d GC point%s"
    (if v.sv_precise_preserved then "preserved" else "CHANGED")
    (if v.sv_apparent_not_worse then "not worse" else "GREW")
    (if v.sv_reads_preserved then "preserved" else "CHANGED")
    (if v.sv_no_premature_free then "safe" else "PREMATURE")
    v.sv_apparent_drop_bytes v.sv_gc_points
    (if v.sv_gc_points = 1 then "" else "s")
