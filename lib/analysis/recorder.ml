open Cgc_vm
module Machine = Cgc_mutator.Machine

type t = {
  machine : Machine.t;
  gc : Cgc.Gc.t;
  globals : Segment.t;
  stack_lo : int;
  stack_words : int;
  globals_lo : int;
  globals_words : int;
  ids : (int, int) Hashtbl.t;  (** current base address -> object id *)
  bases : (int, int) Hashtbl.t;  (** object id -> base address at allocation *)
  mutable next_id : int;
  mutable rev_code : Ir.instr list;
}

let push t i = t.rev_code <- i :: t.rev_code

let stack_word t addr = (Addr.to_int addr - t.stack_lo) / Ir.word_bytes
let global_word t addr = (Addr.to_int addr - t.globals_lo) / Ir.word_bytes

(* Tag a written word with the object it refers to right now, if any.
   [Cgc.Gc.find_object] is the exact query (always interior-aware), so
   the tag is the ground truth of the moment of the write — which is
   what a type-accurate collector would know. *)
let tag t raw =
  if raw = 0 then Ir.vint 0
  else
    match Cgc.Gc.find_object t.gc (Addr.of_int raw) with
    | None -> Ir.vint raw
    | Some base -> (
        match Hashtbl.find_opt t.ids (Addr.to_int base) with
        | Some id -> { Ir.raw; obj = Some id }
        | None -> Ir.vint raw)

let obj_id t base =
  match Hashtbl.find_opt t.ids (Addr.to_int base) with
  | Some id -> Some id
  | None -> (
      (* interior handle: resolve to the containing object's base *)
      match Cgc.Gc.find_object t.gc base with
      | None -> None
      | Some b -> Hashtbl.find_opt t.ids (Addr.to_int b))

(* Events naming no recorded object (heap access to an address the
   recorder never saw allocated) or a word outside the globals are
   skipped. *)
let handle t (ev : Machine.event) =
  match ev with
  | Machine.E_alloc { base; bytes; pointer_free } ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.ids (Addr.to_int base) id;
      Hashtbl.replace t.bases id (Addr.to_int base);
      push t (Ir.Alloc { obj = id; base = Addr.to_int base; bytes; pointer_free })
  | Machine.E_reg_write { reg; value } -> push t (Ir.Reg_write { reg; value = tag t value })
  | Machine.E_reg_read { reg } -> push t (Ir.Reg_read { reg })
  | Machine.E_frame_push { slots; padding; cleared } ->
      push t (Ir.Frame_push { slots; padding; cleared })
  | Machine.E_frame_pop { slots; padding; cleared } ->
      push t (Ir.Frame_pop { slots; padding; cleared })
  | Machine.E_local_write { addr; value } ->
      push t (Ir.Local_write { word = stack_word t addr; value = tag t value })
  | Machine.E_local_read { addr } -> push t (Ir.Local_read { word = stack_word t addr })
  | Machine.E_spill_write { addr; value } ->
      push t (Ir.Spill_write { word = stack_word t addr; value = tag t value })
  | Machine.E_stack_clear { lo; hi } ->
      let lo_word = stack_word t lo in
      push t (Ir.Stack_clear { lo_word; n_words = stack_word t hi - lo_word })
  | Machine.E_heap_write { obj; field; value } -> (
      match obj_id t obj with
      | Some id -> push t (Ir.Heap_write { obj = id; field; value = tag t value })
      | None -> ())
  | Machine.E_heap_read { obj; field } -> (
      match obj_id t obj with
      | Some id -> push t (Ir.Heap_read { obj = id; field })
      | None -> ())
  | Machine.E_root_write { addr; value } ->
      let w = global_word t addr in
      if w >= 0 && w < t.globals_words then
        push t (Ir.Root_write { word = w; value = tag t value })
      else ()
  | Machine.E_root_read { addr } ->
      let w = global_word t addr in
      if w >= 0 && w < t.globals_words then push t (Ir.Root_read { word = w })
      else ()
  | Machine.E_gc { collections; live_objects; live_bytes } ->
      push t
        (Ir.Gc_point
           {
             measured =
               Some
                 {
                   Ir.m_collections = collections;
                   m_live_objects = live_objects;
                   m_live_bytes = live_bytes;
                 };
           })
  | Machine.E_park { words } -> push t (Ir.Park { words })
  | Machine.E_unpark -> push t Ir.Unpark
  | Machine.E_clear_registers -> push t Ir.Clear_registers
  | Machine.E_finalizer { obj; token } -> (
      match obj_id t obj with
      | Some id -> push t (Ir.Finalizer_attach { obj = id; token })
      | None -> ())
  | Machine.E_write_barrier { obj; field } -> (
      match obj_id t obj with
      | Some id -> push t (Ir.Write_barrier { obj = id; field })
      | None -> ())

let attach machine ~globals =
  let stack_lo, stack_hi = Machine.stack_limits machine in
  let t =
    {
      machine;
      gc = Machine.gc machine;
      globals;
      stack_lo = Addr.to_int stack_lo;
      stack_words = Addr.diff stack_hi stack_lo / Ir.word_bytes;
      globals_lo = Addr.to_int (Segment.base globals);
      globals_words = Segment.size globals / Ir.word_bytes;
      ids = Hashtbl.create 4096;
      bases = Hashtbl.create 4096;
      next_id = 0;
      rev_code = [];
    }
  in
  Machine.set_tracer machine (Some (handle t));
  t

let finish t =
  (* a final Gc.collect followed by no machine activity would otherwise
     leave its collection cycle unrecorded *)
  Machine.poll_gc t.machine;
  Machine.set_tracer t.machine None;
  {
    Ir.n_registers = Machine.n_registers t.machine;
    stack_words = t.stack_words;
    globals_words = t.globals_words;
    interior_pointers = (Cgc.Gc.config t.gc).Cgc.Config.interior_pointers;
    code = Array.of_list (List.rev t.rev_code);
  }

(* Detach without producing a program.  Scenario runners call this from
   an exception path: a recorder left attached to a shared machine
   would keep translating the *next* scenario's events into this
   (abandoned) session's id space, poisoning its IR. *)
let abort t =
  Machine.set_tracer t.machine None;
  t.rev_code <- [];
  Hashtbl.reset t.ids;
  Hashtbl.reset t.bases

let base_of_obj t id = Option.map Addr.of_int (Hashtbl.find_opt t.bases id)
