(* Backward liveness dataflow over the IR's locations.

   Locations are machine registers, stack words and global words.  A
   read generates liveness, a write kills it, and — crucially for the
   conservative-retention story — pushing a frame kills every word the
   frame covers: whatever the words held belonged to a previous,
   completed activation, so a value can only be live *into* a frame
   push if nothing reads it before the next write (nothing can, the
   old frame is gone).

   Heap objects get the same treatment at the trace level: an object is
   "used" at a program point if some later instruction reads or writes
   one of its fields.  Walking backward, accesses add the object and
   its allocation removes it (nothing can use an object before it
   exists).  The used-set at a GC point seeds the precise-liveness
   closure: it is exactly the set of objects whose identity the mutator
   still has a handle on, however it stores it. *)

module ISet = Set.Make (Int)

type at_gc = {
  live_regs : ISet.t;
  live_stack : ISet.t;  (** word indices into the stack segment *)
  live_globals : ISet.t;
  used_objects : ISet.t;  (** object ids accessed after this point *)
}

type t = {
  per_gc : at_gc array;  (** indexed by GC-point ordinal, program order *)
  sp_before : int array;
      (** stack-pointer word index before each instruction (index
          [n] = final sp); the live stack is [sp_before.(i) ..
          stack_words - 1] *)
}

let analyze (p : Ir.program) =
  let n = Array.length p.code in
  (* forward pre-pass: the stack pointer before every instruction *)
  let sp_before = Array.make (n + 1) p.stack_words in
  let sp = ref p.stack_words in
  let park_sps = ref [] in
  for i = 0 to n - 1 do
    sp_before.(i) <- !sp;
    (match p.code.(i) with
    | Ir.Frame_push { slots; padding; _ } -> sp := !sp - slots - padding
    | Ir.Frame_pop { slots; padding; _ } -> sp := !sp + slots + padding
    | Ir.Park { words } ->
        park_sps := !sp :: !park_sps;
        sp := !sp - words
    | Ir.Unpark -> (
        match !park_sps with
        | saved :: rest ->
            sp := saved;
            park_sps := rest
        | [] -> ())
    | _ -> ())
  done;
  sp_before.(n) <- !sp;
  (* backward pass *)
  let n_gc = Ir.count_gc_points p in
  let empty =
    {
      live_regs = ISet.empty;
      live_stack = ISet.empty;
      live_globals = ISet.empty;
      used_objects = ISet.empty;
    }
  in
  let per_gc = Array.make (max n_gc 1) empty in
  let regs = ref ISet.empty in
  let stack = ref ISet.empty in
  let globals = ref ISet.empty in
  let used = ref ISet.empty in
  let k = ref (n_gc - 1) in
  let remove_range set lo count =
    let s = ref set in
    for w = lo to lo + count - 1 do
      s := ISet.remove w !s
    done;
    !s
  in
  for i = n - 1 downto 0 do
    match p.code.(i) with
    | Ir.Gc_point _ ->
        per_gc.(!k) <-
          { live_regs = !regs; live_stack = !stack; live_globals = !globals; used_objects = !used };
        decr k
    | Ir.Reg_read { reg } -> regs := ISet.add reg !regs
    | Ir.Reg_write { reg; _ } -> regs := ISet.remove reg !regs
    | Ir.Clear_registers -> regs := ISet.empty
    | Ir.Local_read { word } -> stack := ISet.add word !stack
    | Ir.Local_write { word; _ } | Ir.Spill_write { word; _ } -> stack := ISet.remove word !stack
    | Ir.Stack_clear { lo_word; n_words } -> stack := remove_range !stack lo_word n_words
    | Ir.Frame_push { slots; padding; _ } ->
        (* the frame's words begin a fresh lifetime here *)
        stack := remove_range !stack (sp_before.(i) - slots - padding) (slots + padding)
    | Ir.Frame_pop _ -> ()
    | Ir.Root_read { word } -> globals := ISet.add word !globals
    | Ir.Root_write { word; _ } -> globals := ISet.remove word !globals
    | Ir.Heap_read { obj; _ } | Ir.Heap_write { obj; _ } -> used := ISet.add obj !used
    | Ir.Alloc { obj; _ } -> used := ISet.remove obj !used
    | Ir.Park _ | Ir.Unpark -> ()
    (* deliberately not uses: the collector reclaims finalizable
       garbage, and a barrier is bookkeeping about a store already seen *)
    | Ir.Finalizer_attach _ | Ir.Write_barrier _ -> ()
  done;
  if n_gc = 0 then { per_gc = [||]; sp_before } else { per_gc; sp_before }

let at_gc t k = t.per_gc.(k)
let n_gc_points t = Array.length t.per_gc
