open Cgc_vm

exception Stack_overflow of { sp : Addr.t; requested_words : int; limit : Addr.t }
exception Already_parked of { sp : Addr.t }

type config = {
  n_registers : int;
  register_residue : float;
  syscall_noise : float;
  frame_padding : int;
  clear_frames_on_entry : bool;
  clear_frames_on_exit : bool;
  allocator_self_cleanup : bool;
  stack_clearing : bool;
  stack_clear_period : int;
  stack_clear_words : int;
}

let default_config =
  {
    n_registers = 32;
    register_residue = 0.;
    syscall_noise = 0.;
    frame_padding = 2;
    clear_frames_on_entry = false;
    clear_frames_on_exit = false;
    allocator_self_cleanup = true;
    stack_clearing = false;
    stack_clear_period = 64;
    stack_clear_words = 256;
  }

let careless_config =
  {
    default_config with
    frame_padding = 8;
    allocator_self_cleanup = false;
    stack_clearing = false;
  }

let hygienic_config =
  { default_config with allocator_self_cleanup = true; stack_clearing = true }

type event =
  | E_alloc of { base : Addr.t; bytes : int; pointer_free : bool }
  | E_reg_write of { reg : int; value : int }
  | E_reg_read of { reg : int }
  | E_frame_push of { slots : int; padding : int; cleared : bool }
  | E_frame_pop of { slots : int; padding : int; cleared : bool }
  | E_local_write of { addr : Addr.t; value : int }
  | E_local_read of { addr : Addr.t }
  | E_spill_write of { addr : Addr.t; value : int }
  | E_stack_clear of { lo : Addr.t; hi : Addr.t }
  | E_heap_write of { obj : Addr.t; field : int; value : int }
  | E_heap_read of { obj : Addr.t; field : int }
  | E_root_write of { addr : Addr.t; value : int }
  | E_root_read of { addr : Addr.t }
  | E_gc of { collections : int; live_objects : int; live_bytes : int }
  | E_park of { words : int }
  | E_unpark
  | E_clear_registers
  | E_finalizer of { obj : Addr.t; token : int }
  | E_write_barrier of { obj : Addr.t; field : int }

type t = {
  mem : Mem.t;
  gc : Cgc.Gc.t;
  rng : Rng.t;
  config : config;
  stack : Segment.t;
  stack_base : Addr.t; (* == Segment.limit stack *)
  mutable sp : Addr.t;
  mutable low_water : Addr.t;
  registers : int array;
  mutable alloc_count : int;
  mutable park_restore : Addr.t option;
  mutable tracer : (event -> unit) option;
  mutable traced_collections : int;
  mutable frames : frame array; (* frames.(d): the record of the frame at depth d *)
  mutable depth : int; (* frames live *)
}

(* A frame record is reused by every call at its depth, so a call
   allocates none; it is valid while its body runs. *)
and frame = {
  machine : t;
  mutable f_base : Addr.t; (* lowest address of the frame's locals *)
  mutable f_slots : int;
  mutable f_live : bool; (* its call has not returned *)
}

let word = 4

let create ?(config = default_config) ?(seed = 42) mem ~stack ~gc =
  if config.n_registers < 4 then invalid_arg "Machine.create: need at least 4 registers";
  let stack_base = Segment.limit stack in
  let t =
    {
      mem;
      gc;
      rng = Rng.create seed;
      config;
      stack;
      stack_base;
      sp = stack_base;
      low_water = stack_base;
      registers = Array.make config.n_registers 0;
      alloc_count = 0;
      park_restore = None;
      tracer = None;
      traced_collections = 0;
      frames = [||];
      depth = 0;
    }
  in
  Cgc.Gc.add_register_roots gc ~label:"machine registers" (fun () -> t.registers);
  Cgc.Gc.add_dynamic_roots gc ~label:"machine stack" (fun () ->
      [ { Cgc.Roots.lo = t.sp; hi = t.stack_base; label = "live stack" } ]);
  t

let gc t = t.gc
let config t = t.config
let stack_pointer t = t.sp
let stack_base t = t.stack_base
let stack_limits t = (Segment.base t.stack, t.stack_base)
let low_water t = t.low_water
let n_registers t = t.config.n_registers

(* Tracing: every state change the conservative marker could observe is
   mirrored to the attached tracer.  Collections triggered inside
   [Cgc.Gc.allocate] (or by the workload calling [Cgc.Gc.collect]
   directly) leave no call-path through the machine, so each emission
   first polls the collector's cycle counter and synthesizes an [E_gc]
   event carrying the measured post-sweep statistics. *)
let poll_gc t =
  match t.tracer with
  | None -> ()
  | Some f ->
      let st = Cgc.Gc.stats t.gc in
      if st.Cgc.Stats.collections > t.traced_collections then begin
        t.traced_collections <- st.Cgc.Stats.collections;
        f
          (E_gc
             {
               collections = st.Cgc.Stats.collections;
               live_objects = st.Cgc.Stats.live_objects;
               live_bytes = st.Cgc.Stats.live_bytes;
             })
      end

let emit t ev =
  match t.tracer with
  | None -> ()
  | Some f ->
      poll_gc t;
      f ev

(* Every emission site tests this first, so an event is built only for
   a listening tracer and the untraced machine allocates nothing. *)
let[@inline] tracing t = match t.tracer with None -> false | Some _ -> true

let set_tracer t tr =
  t.tracer <- tr;
  match tr with
  | Some _ -> t.traced_collections <- (Cgc.Gc.stats t.gc).Cgc.Stats.collections
  | None -> ()

let get_register t i =
  if tracing t then emit t (E_reg_read { reg = i });
  t.registers.(i)

let set_register t i v =
  let v = v land 0xFFFFFFFF in
  if tracing t then emit t (E_reg_write { reg = i; value = v });
  t.registers.(i) <- v

let clear_registers t =
  if tracing t then emit t E_clear_registers;
  Array.fill t.registers 0 (Array.length t.registers) 0

(* The dead region, from the stack segment's base up to [t.sp], holds
   values below the live stack: stale unless someone clears them. *)
let clear_dead_from t lo =
  let hi = t.sp in
  let len = Addr.diff hi lo in
  if len > 0 then begin
    if tracing t then emit t (E_stack_clear { lo; hi });
    Segment.zero_range t.stack lo ~len
  end

let clear_dead_stack t = clear_dead_from t (Segment.base t.stack)

(* Registers 0-7 model values the compiled code actively keeps live;
   residue and kernel noise only ever lands in the caller-saved upper
   registers, which the conservative scan nonetheless sees.  A kernel
   call or context switch sprinkles random words into them. *)
let context_switch_noise t =
  for _ = 1 to 8 do
    if Rng.chance t.rng t.config.syscall_noise then begin
      let reg = 8 + Rng.int t.rng (t.config.n_registers - 8) in
      let v = Rng.word t.rng in
      if tracing t then emit t (E_reg_write { reg; value = v });
      t.registers.(reg) <- v
    end
  done

let residue_noise t =
  if t.config.register_residue > 0. && Rng.chance t.rng t.config.register_residue then begin
    (* A register window rotates in, exposing a stale stack value. *)
    let lo = Segment.base t.stack in
    let dead_words = Addr.diff t.sp lo / word in
    if dead_words > 0 then begin
      let a = Addr.add lo (word * Rng.int t.rng dead_words) in
      let reg = 8 + Rng.int t.rng (t.config.n_registers - 8) in
      let v = Segment.read_word t.stack a in
      if tracing t then emit t (E_reg_write { reg; value = v });
      t.registers.(reg) <- v
    end
  end

let push_frame t ~slots =
  let total_words = slots + t.config.frame_padding in
  let new_sp = Addr.add t.sp (-(total_words * word)) in
  if Addr.to_int new_sp < Addr.to_int (Segment.base t.stack) then
    raise
      (Stack_overflow { sp = t.sp; requested_words = total_words; limit = Segment.base t.stack });
  t.sp <- new_sp;
  if Addr.to_int new_sp < Addr.to_int t.low_water then t.low_water <- new_sp;
  if t.config.clear_frames_on_entry then
    Segment.zero_range t.stack new_sp ~len:(total_words * word);
  if tracing t then
    emit t
      (E_frame_push
         {
           slots;
           padding = t.config.frame_padding;
           cleared = t.config.clear_frames_on_entry;
         });
  let d = t.depth in
  if d = Array.length t.frames then
    t.frames <-
      Array.init
        (max 8 (2 * d))
        (fun i ->
          if i < d then t.frames.(i)
          else { machine = t; f_base = 0; f_slots = 0; f_live = false });
  let frame = t.frames.(d) in
  frame.f_base <- new_sp;
  frame.f_slots <- slots;
  frame.f_live <- true;
  t.depth <- d + 1;
  frame

let pop_frame t frame =
  if t.config.clear_frames_on_exit then begin
    let total_words = frame.f_slots + t.config.frame_padding in
    Segment.zero_range t.stack frame.f_base ~len:(total_words * word)
  end;
  t.sp <- Addr.add frame.f_base ((frame.f_slots + t.config.frame_padding) * word);
  t.depth <- t.depth - 1;
  frame.f_live <- false;
  if tracing t then
    emit t
      (E_frame_pop
         {
           slots = frame.f_slots;
           padding = t.config.frame_padding;
           cleared = t.config.clear_frames_on_exit;
         })

let call t ~slots f =
  residue_noise t;
  let frame = push_frame t ~slots in
  match f frame with
  | v ->
      pop_frame t frame;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      pop_frame t frame;
      Printexc.raise_with_backtrace e bt

let local_addr frame i =
  if not frame.f_live then invalid_arg "Machine.local_addr: frame used after its call returned";
  if i < 0 || i >= frame.f_slots then invalid_arg "Machine.local_addr: slot out of range";
  Addr.add frame.f_base (i * word)

let get_local frame i =
  let addr = local_addr frame i in
  if tracing frame.machine then emit frame.machine (E_local_read { addr });
  Segment.read_word frame.machine.stack addr

let set_local frame i v =
  let addr = local_addr frame i in
  if tracing frame.machine then
    emit frame.machine (E_local_write { addr; value = v land 0xFFFFFFFF });
  Segment.write_word frame.machine.stack addr v

let park t ~words =
  if t.park_restore <> None then raise (Already_parked { sp = t.sp });
  let new_sp = Addr.add t.sp (-(words * word)) in
  if Addr.to_int new_sp < Addr.to_int (Segment.base t.stack) then
    raise (Stack_overflow { sp = t.sp; requested_words = words; limit = Segment.base t.stack });
  t.park_restore <- Some t.sp;
  t.sp <- new_sp;
  if Addr.to_int new_sp < Addr.to_int t.low_water then t.low_water <- new_sp;
  if tracing t then emit t (E_park { words })

let unpark t =
  match t.park_restore with
  | None -> ()
  | Some sp ->
      t.park_restore <- None;
      t.sp <- sp;
      emit t E_unpark

let parked t = t.park_restore <> None

(* The cheap stack-clearing algorithm of section 3.1: every
   [stack_clear_period] allocations, clear a bounded chunk of the dead
   region just below the stack pointer; clear more eagerly when the
   stack is far above its deepest point. *)
let periodic_stack_clear t =
  if t.config.stack_clearing && t.alloc_count mod t.config.stack_clear_period = 0 then begin
    let gap_words = Addr.diff t.sp t.low_water / word in
    let words = min (max t.config.stack_clear_words (gap_words / 4)) gap_words in
    if words > 0 then
      clear_dead_from t
        (Addr.of_int (max (Addr.to_int (Segment.base t.stack)) (Addr.to_int t.sp - (words * word))))
  end

let allocate ?pointer_free ?finalizer t bytes =
  t.alloc_count <- t.alloc_count + 1;
  periodic_stack_clear t;
  context_switch_noise t;
  let base = Cgc.Gc.allocate ?pointer_free ?finalizer t.gc bytes in
  if tracing t then begin
    let rounded = Option.value (Cgc.Gc.object_size t.gc base) ~default:bytes in
    let pointer_free = Option.value pointer_free ~default:false in
    emit t (E_alloc { base; bytes = rounded; pointer_free })
  end;
  (match finalizer with
  | Some label when tracing t ->
      emit t (E_finalizer { obj = base; token = Hashtbl.hash label land 0xFFFF })
  | _ -> ());
  (* Out-of-line allocator scratch: the fresh pointer is spilled just
     below the caller's stack.  GC-aware allocators clear it on exit. *)
  let scratch = Addr.add t.sp (-word) in
  if Addr.to_int scratch >= Addr.to_int (Segment.base t.stack) then begin
    if tracing t then emit t (E_spill_write { addr = scratch; value = Addr.to_int base });
    Segment.write_word t.stack scratch (Addr.to_int base);
    if t.config.allocator_self_cleanup then begin
      if tracing t then emit t (E_spill_write { addr = scratch; value = 0 });
      Segment.write_word t.stack scratch 0
    end
  end;
  if tracing t then emit t (E_reg_write { reg = 0; value = Addr.to_int base });
  t.registers.(0) <- Addr.to_int base;
  base

(* Heap access as the compiled mutator would perform it; routing loads
   and stores through the machine is what lets an attached tracer see
   the program's data-flow, not just its allocations. *)
let read_field t obj i =
  if tracing t then emit t (E_heap_read { obj; field = i });
  Cgc.Gc.get_field t.gc obj i

let write_field t obj i v =
  if tracing t then emit t (E_heap_write { obj; field = i; value = v land 0xFFFFFFFF });
  (* Generational write barrier: pointer stores card-mark the written
     object.  Only modelled when a tracer is listening — the
     conservative collector itself needs no barrier. *)
  (match t.tracer with
  | Some _ when Cgc.Gc.find_object t.gc (Addr.of_int (v land 0xFFFFFFFF)) <> None ->
      emit t (E_write_barrier { obj; field = i })
  | _ -> ());
  Cgc.Gc.set_field t.gc obj i v

(* Global (static-data) root slots, e.g. a workload's scoreboard of
   list heads.  The segment is whichever static region the harness
   registered as a root. *)
let read_root_word t seg addr =
  if tracing t then emit t (E_root_read { addr });
  Segment.read_word seg addr

let write_root_word t seg addr v =
  if tracing t then emit t (E_root_write { addr; value = v land 0xFFFFFFFF });
  Segment.write_word seg addr v

let pp ppf t =
  Format.fprintf ppf "machine: sp=%a low=%a base=%a allocs=%d" Addr.pp t.sp Addr.pp t.low_water
    Addr.pp t.stack_base t.alloc_count
