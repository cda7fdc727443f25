(* Dynamic fix verification: replay a recorded program through a
   fresh, real collector and measure what it actually retains.

   The replay rebuilds the recorded world from scratch — new memory,
   new heap, new object addresses — and re-enacts the trace: every
   allocation goes through the collector, every stack/global/heap write
   lands in real scanned memory, every [Gc_point] runs a real
   collection.  Written values are translated through the id map the
   recorder left in the trace: a value tagged with object [i] is
   rebased onto [i]'s replay address (interior offsets preserved), an
   untagged raw travels verbatim — so false references stay false and
   semantic edges stay semantic, just at new addresses.

   Because addresses differ between replays, reads are compared as
   normalized tokens: a loaded word is reverse-mapped through
   [Gc.find_object] to (object id, offset) when it lands in a live
   trace object, and kept raw otherwise.  Two replays are
   observationally equal when their token streams match.

   Two backends share the re-enactment loop: the conservative collector
   (every [Gc_point] a full collection) and the generational wrapper
   (every [Gc_point] a minor collection; the recorded [Write_barrier]
   events are re-applied as [Generational.set_field] stores, so the
   dirty bits evolve exactly as the original mutator drove them, while
   plain [Heap_write]s go through the unbarriered [Gc.set_field] the
   recorded machine used).

   This is the measured half of fix verification: {!Fixes.verify_static}
   proves an edit cannot change the program; this module shows the real
   collector retains less afterwards — and, generationally, promotes
   less garbage past the reach of minor collections (section 3.1's
   ceiling). *)

module Segment = Cgc_vm.Segment
module Mem = Cgc_vm.Mem
module Addr = Cgc_vm.Addr
module Gc = Cgc.Gc
module Config = Cgc.Config
module Heap = Cgc.Heap
module Generational = Cgc.Generational

type token =
  | T_obj of int * int  (** live trace object id, interior offset *)
  | T_raw of int

type run = {
  rp_gc_points : int;
  rp_retained : int list;  (** trace-object bytes live after each collection *)
  rp_total_retained : int;
  rp_reads : token list;
  rp_allocated : int;  (** objects successfully allocated *)
  rp_skipped : int;  (** heap accesses to objects the collector had freed *)
}

type comparison = {
  cmp_before : run;
  cmp_after : run;
  cmp_retention_drop : int;  (** summed over GC points; positive = fix helps *)
  cmp_reads_equal : bool;
}

let globals_base = 0x10000
let stack_base = 0xEFF00000
let heap_base = 0x400000
let heap_max_bytes = 48 * 1024 * 1024

let round_page n = (n + 0xFFF) land lnot 0xFFF

(* One collector backend seen by the re-enactment loop.  [bk_barrier]
   is [None] for backends without a write barrier: a recorded
   [Write_barrier] event is then a pure no-op, exactly as before. *)
type backend = {
  bk_allocate : pointer_free:bool -> int -> Addr.t;
  bk_set_field : Addr.t -> int -> int -> unit;
  bk_get_field : Addr.t -> int -> int;
  bk_barrier : (Addr.t -> int -> unit) option;
  bk_collect : unit -> unit;
}

(* Rebuild the recorded world and re-enact the trace through [make gc].
   Returns the observational record plus the id -> (recorded base,
   replay base, bytes) table as it stands at trace end, so callers can
   ask where the trace objects ended up. *)
let enact (make : Gc.t -> backend) (p : Ir.program) =
  let mem = Mem.create ~endian:Cgc_vm.Endian.Little () in
  let _ =
    Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int globals_base)
      ~size:(round_page (max 1 p.Ir.globals_words * Ir.word_bytes))
  in
  let stack_size = round_page (max 1 p.Ir.stack_words * Ir.word_bytes) in
  let _ =
    Mem.map mem ~name:"stack" ~kind:Segment.Stack ~base:(Addr.of_int stack_base) ~size:stack_size
  in
  let config = { Config.default with Config.interior_pointers = p.Ir.interior_pointers } in
  let gc = Gc.create ~config mem ~base:(Addr.of_int heap_base) ~max_bytes:heap_max_bytes () in
  Gc.set_auto_collect gc false;
  let b = make gc in
  let regs = Array.make (max 1 p.Ir.n_registers) 0 in
  (* id -> (recorded base, replay base, bytes); replay base -> id *)
  let fwd : (int, int * int * int) Hashtbl.t = Hashtbl.create 1024 in
  let rev : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  Gc.add_static_root gc ~lo:(Addr.of_int globals_base)
    ~hi:(Addr.of_int (globals_base + (p.Ir.globals_words * Ir.word_bytes)))
    ~label:"replay globals";
  Gc.add_register_roots gc ~label:"replay registers" (fun () -> regs);
  (* the scanned stack portion tracks sp exactly as the recorded
     machine moved it: frames and parks *)
  let sp_word = ref p.Ir.stack_words in
  let sp_saves = ref [] in
  Gc.add_dynamic_roots gc ~label:"replay stack" (fun () ->
      [
        {
          Cgc.Roots.lo = Addr.of_int (stack_base + (!sp_word * Ir.word_bytes));
          hi = Addr.of_int (stack_base + (p.Ir.stack_words * Ir.word_bytes));
          label = "replay stack";
        };
      ]);
  let translate (v : Ir.value) =
    match v.Ir.obj with
    | Some id -> (
        match Hashtbl.find_opt fwd id with
        | Some (orig, now, _) -> now + (v.Ir.raw - orig)
        | None -> v.Ir.raw)
    | None -> v.Ir.raw
  in
  let reads = ref [] in
  let note raw =
    let t =
      match Gc.find_object gc (Addr.of_int (raw land 0xFFFFFFFF)) with
      | Some base -> (
          match Hashtbl.find_opt rev (Addr.to_int base) with
          | Some id -> T_obj (id, raw - Addr.to_int base)
          | None -> T_raw raw)
      | None -> T_raw raw
    in
    reads := t :: !reads
  in
  let retained = ref [] in
  let allocated = ref 0 in
  let skipped = ref 0 in
  let stack_addr w = Addr.of_int (stack_base + (w * Ir.word_bytes)) in
  let global_addr w = Addr.of_int (globals_base + (w * Ir.word_bytes)) in
  let with_obj id f =
    match Hashtbl.find_opt fwd id with
    | Some (_, now, _) when Gc.is_allocated gc (Addr.of_int now) -> f (Addr.of_int now)
    | _ -> incr skipped
  in
  Array.iter
    (fun instr ->
      match instr with
      | Ir.Alloc { obj; base; bytes; pointer_free } ->
          let addr = b.bk_allocate ~pointer_free bytes in
          (* address reuse after a sweep: the old id no longer owns it *)
          (match Hashtbl.find_opt rev (Addr.to_int addr) with
          | Some old -> Hashtbl.remove fwd old
          | None -> ());
          Hashtbl.replace fwd obj (base, Addr.to_int addr, bytes);
          Hashtbl.replace rev (Addr.to_int addr) obj;
          incr allocated
      | Ir.Reg_write { reg; value } ->
          if reg < Array.length regs then regs.(reg) <- translate value
      | Ir.Reg_read { reg } -> if reg < Array.length regs then note regs.(reg)
      | Ir.Clear_registers -> Array.fill regs 0 (Array.length regs) 0
      | Ir.Local_write { word; value } | Ir.Spill_write { word; value } ->
          if word >= 0 && word < p.Ir.stack_words then
            Mem.write_word mem (stack_addr word) (translate value)
      | Ir.Local_read { word } ->
          if word >= 0 && word < p.Ir.stack_words then note (Mem.read_word mem (stack_addr word))
      | Ir.Stack_clear { lo_word; n_words } ->
          for w = max 0 lo_word to min (p.Ir.stack_words - 1) (lo_word + n_words - 1) do
            Mem.write_word mem (stack_addr w) 0
          done
      | Ir.Root_write { word; value } ->
          if word >= 0 && word < p.Ir.globals_words then
            Mem.write_word mem (global_addr word) (translate value)
      | Ir.Root_read { word } ->
          if word >= 0 && word < p.Ir.globals_words then note (Mem.read_word mem (global_addr word))
      | Ir.Heap_write { obj; field; value } ->
          with_obj obj (fun addr -> b.bk_set_field addr field (translate value))
      | Ir.Heap_read { obj; field } -> with_obj obj (fun addr -> note (b.bk_get_field addr field))
      | Ir.Frame_push { slots; padding; cleared } ->
          let n = slots + padding in
          let lo = !sp_word - n in
          if cleared then
            for w = max 0 lo to min (p.Ir.stack_words - 1) (!sp_word - 1) do
              Mem.write_word mem (stack_addr w) 0
            done;
          sp_word := lo
      | Ir.Frame_pop { slots; padding; _ } -> sp_word := !sp_word + slots + padding
      | Ir.Park { words } ->
          sp_saves := !sp_word :: !sp_saves;
          sp_word := !sp_word - words
      | Ir.Unpark -> (
          match !sp_saves with
          | sp :: rest ->
              sp_word := sp;
              sp_saves := rest
          | [] -> ())
      | Ir.Finalizer_attach { obj; token } ->
          with_obj obj (fun addr -> Gc.add_finalizer gc addr ~token:(string_of_int token))
      | Ir.Write_barrier { obj; field } -> (
          match b.bk_barrier with
          | None -> ()
          | Some barrier -> with_obj obj (fun addr -> barrier addr field))
      | Ir.Gc_point _ ->
          b.bk_collect ();
          let live =
            Hashtbl.fold
              (fun _ (_, now, bytes) acc ->
                if Gc.is_allocated gc (Addr.of_int now) then acc + bytes else acc)
              fwd 0
          in
          retained := live :: !retained)
    p.Ir.code;
  let retained = List.rev !retained in
  ( {
      rp_gc_points = List.length retained;
      rp_retained = retained;
      rp_total_retained = List.fold_left ( + ) 0 retained;
      rp_reads = List.rev !reads;
      rp_allocated = !allocated;
      rp_skipped = !skipped;
    },
    (gc, fwd) )

let run (p : Ir.program) =
  let r, _ =
    enact
      (fun gc ->
        {
          bk_allocate = (fun ~pointer_free bytes -> Gc.allocate ~pointer_free gc bytes);
          bk_set_field = Gc.set_field gc;
          bk_get_field = Gc.get_field gc;
          bk_barrier = None;
          bk_collect =
            (fun () ->
              Gc.collect gc;
              ignore (Gc.drain_finalized gc));
        })
      p
  in
  r

let compare_fix (p : Ir.program) edits =
  let before = run p in
  let after = run (Fixes.apply p edits) in
  {
    cmp_before = before;
    cmp_after = after;
    cmp_retention_drop = before.rp_total_retained - after.rp_total_retained;
    cmp_reads_equal = before.rp_reads = after.rp_reads;
  }

(* --- the generational backend --- *)

type gen_audit = {
  ga_dirty : int list;
  ga_carried : int list;
  ga_barriered : int list;
}

type gen_run = {
  gr_run : run;
  gr_stats : Generational.stats;
  gr_old : (int * int) list;
  gr_old_bytes : int;
  gr_major_reclaimed : int;
  gr_audits : gen_audit list;
}

let run_generational ?(promote_after = 2) ?(around_minor = fun _ minor -> minor ())
    (p : Ir.program) =
  let gen_ref = ref None in
  let audits = ref [] in
  let barriered = ref [] in
  let r, (gc, fwd) =
    enact
      (fun gc ->
        let gen = Generational.create ~promote_after gc in
        gen_ref := Some gen;
        {
          bk_allocate = (fun ~pointer_free bytes -> Generational.allocate ~pointer_free gen bytes);
          (* plain stores, exactly like the recorded machine's
             [write_field]: the barrier is replayed separately, from the
             recorded [Write_barrier] events *)
          bk_set_field = Gc.set_field gc;
          bk_get_field = Gc.get_field gc;
          bk_barrier =
            Some
              (fun addr field ->
                if Generational.is_old gen addr then
                  barriered := Heap.page_index (Gc.heap gc) addr :: !barriered;
                (* re-apply the store through the barrier; the value is
                   already in place, so this only drives the dirty bit *)
                Generational.set_field gen addr field (Gc.get_field gc addr field));
          bk_collect =
            (fun () ->
              audits :=
                {
                  ga_dirty = Generational.dirty_pages gen;
                  ga_carried = Generational.carried_pages gen;
                  ga_barriered = List.sort_uniq compare !barriered;
                }
                :: !audits;
              barriered := [];
              around_minor gc (fun () -> Generational.minor gen);
              ignore (Gc.drain_finalized gc));
        })
      p
  in
  let gen = Option.get !gen_ref in
  let stats = Generational.stats gen in
  (* trace objects sitting on promoted pages at trace end: the §3.1
     population — whatever among them is garbage, no minor collection
     will ever reclaim it *)
  let old_triples =
    Hashtbl.fold
      (fun id (_, now, bytes) acc ->
        let a = Addr.of_int now in
        if Gc.is_allocated gc a && Generational.is_old gen a then (id, now, bytes) :: acc else acc)
      fwd []
  in
  let old_bytes = List.fold_left (fun acc (_, _, b) -> acc + b) 0 old_triples in
  (* a closing major: how much of the promoted population a full
     collection can still take back (the rest is pinned by live roots) *)
  Generational.major gen;
  let reclaimed =
    List.fold_left
      (fun acc (_, now, bytes) -> if Gc.is_allocated gc (Addr.of_int now) then acc else acc + bytes)
      0 old_triples
  in
  {
    gr_run = r;
    gr_stats = stats;
    gr_old = List.map (fun (id, _, bytes) -> (id, bytes)) old_triples;
    gr_old_bytes = old_bytes;
    gr_major_reclaimed = reclaimed;
    gr_audits = List.rev !audits;
  }

(* Promoted garbage: the trace objects that ended on old pages even
   though the mutator was precisely done with them — measured placement
   crossed with the analyzer's ground-truth liveness at the last GC
   point.  (A closing major alone undercounts: garbage still pinned by
   a stray root survives even a full collection.) *)
let promoted_garbage (p : Ir.program) (g : gen_run) =
  let liveness = Liveness.analyze p in
  let ap = Apparent.analyze p liveness in
  let precise_end =
    match List.rev ap.Apparent.snapshots with
    | last :: _ -> last.Apparent.precise
    | [] -> Liveness.ISet.empty
  in
  List.fold_left
    (fun acc (id, bytes) -> if Liveness.ISet.mem id precise_end then acc else acc + bytes)
    0 g.gr_old

(* Between two minor collections (absent an emergency major inside an
   OOM retry), the dirty set entering a minor has exactly two sources:
   bits carried by the previous rescan and barrier stores into old
   pages since.  The replay harness records both independently, so the
   lifecycle is checkable bit-for-bit. *)
let audit_exact (a : gen_audit) =
  let module IS = Set.Make (Int) in
  IS.equal (IS.of_list a.ga_dirty)
    (IS.union (IS.of_list a.ga_carried) (IS.of_list a.ga_barriered))

type gen_comparison = {
  gcmp_before : gen_run;
  gcmp_after : gen_run;
  gcmp_retention_drop : int;
  gcmp_garbage_before : int;
  gcmp_garbage_after : int;
  gcmp_garbage_drop : int;
  gcmp_reads_equal : bool;
}

let compare_fix_generational ?promote_after (p : Ir.program) edits =
  let p' = Fixes.apply p edits in
  let before = run_generational ?promote_after p in
  let after = run_generational ?promote_after p' in
  let gb = promoted_garbage p before in
  let ga = promoted_garbage p' after in
  {
    gcmp_before = before;
    gcmp_after = after;
    gcmp_retention_drop = before.gr_run.rp_total_retained - after.gr_run.rp_total_retained;
    gcmp_garbage_before = gb;
    gcmp_garbage_after = ga;
    gcmp_garbage_drop = gb - ga;
    gcmp_reads_equal = before.gr_run.rp_reads = after.gr_run.rp_reads;
  }

let pp_run ppf r =
  Format.fprintf ppf "replay: %d alloc(s), %d GC point(s), retained %s (total %dB)%s" r.rp_allocated
    r.rp_gc_points
    (String.concat "/" (List.map (fun b -> string_of_int b ^ "B") r.rp_retained))
    r.rp_total_retained
    (if r.rp_skipped > 0 then Printf.sprintf ", %d dead-object access(es) skipped" r.rp_skipped
     else "")

let pp_comparison ppf c =
  Format.fprintf ppf "@[<v>before: %a@,after:  %a@,drop: %dB, reads %s@]" pp_run c.cmp_before pp_run
    c.cmp_after c.cmp_retention_drop
    (if c.cmp_reads_equal then "preserved" else "CHANGED")
