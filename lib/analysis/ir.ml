(* The mutator-program IR.

   A recorded trace of everything the mutator did that a conservative
   marker could observe: allocations, register and stack traffic, frame
   lifetimes, heap data-flow, global-root updates, and the collection
   points themselves.  Addresses are abstracted: stack and global words
   become segment-relative word indices, heap objects become dense ids
   (so address reuse after a sweep cannot conflate two objects), and
   every written value carries both its raw 32-bit image and, when the
   value was an object address at write time, the id it referred to. *)

type value = {
  raw : int;  (** the 32-bit word as written *)
  obj : int option;
      (** the object id the raw value pointed (possibly interior) to at
          write time, if any — the semantic edge *)
}

let vint raw = { raw; obj = None }

type measurement = {
  m_collections : int;
  m_live_objects : int;
  m_live_bytes : int;
}

type instr =
  | Alloc of { obj : int; base : int; bytes : int; pointer_free : bool }
      (** [bytes] is the size-class-rounded extent the marker scans;
          [base] the concrete address (reused bases get fresh ids) *)
  | Reg_write of { reg : int; value : value }
  | Reg_read of { reg : int }
  | Frame_push of { slots : int; padding : int; cleared : bool }
  | Frame_pop of { slots : int; padding : int; cleared : bool }
  | Local_write of { word : int; value : value }
  | Local_read of { word : int }
  | Spill_write of { word : int; value : value }
  | Stack_clear of { lo_word : int; n_words : int }
  | Heap_write of { obj : int; field : int; value : value }
  | Heap_read of { obj : int; field : int }
  | Root_write of { word : int; value : value }
  | Root_read of { word : int }
  | Gc_point of { measured : measurement option }
  | Park of { words : int }
  | Unpark
  | Clear_registers
  | Finalizer_attach of { obj : int; token : int }
      (** a finalizer was registered for [obj]; deliberately {e not} a
          use — the collector still reclaims finalizable garbage, it
          just runs the finalizer first *)
  | Write_barrier of { obj : int; field : int }
      (** generational write-barrier event: a pointer store into [obj]
          was card-marked.  Inert for liveness; consumed by shape and
          reported for the generational backend. *)

type program = {
  n_registers : int;
  stack_words : int;  (** stack segment size; word 0 is the lowest address *)
  globals_words : int;
  interior_pointers : bool;
  code : instr array;
}

let word_bytes = 4

let count_gc_points p =
  Array.fold_left
    (fun acc i -> match i with Gc_point _ -> acc + 1 | _ -> acc)
    0 p.code

let count_allocs p =
  Array.fold_left (fun acc i -> match i with Alloc _ -> acc + 1 | _ -> acc) 0 p.code

let pp_value ppf v =
  match v.obj with
  | None -> Format.fprintf ppf "%#x" v.raw
  | Some id -> Format.fprintf ppf "%#x(->#%d)" v.raw id

let pp_instr ppf = function
  | Alloc { obj; base; bytes; pointer_free } ->
      Format.fprintf ppf "alloc #%d @@%#x %dB%s" obj base bytes
        (if pointer_free then " atomic" else "")
  | Reg_write { reg; value } -> Format.fprintf ppf "r%d := %a" reg pp_value value
  | Reg_read { reg } -> Format.fprintf ppf "read r%d" reg
  | Frame_push { slots; padding; cleared } ->
      Format.fprintf ppf "push frame %d+%d%s" slots padding (if cleared then " cleared" else "")
  | Frame_pop { slots; padding; cleared } ->
      Format.fprintf ppf "pop frame %d+%d%s" slots padding (if cleared then " cleared" else "")
  | Local_write { word; value } -> Format.fprintf ppf "stack[%d] := %a" word pp_value value
  | Local_read { word } -> Format.fprintf ppf "read stack[%d]" word
  | Spill_write { word; value } -> Format.fprintf ppf "spill[%d] := %a" word pp_value value
  | Stack_clear { lo_word; n_words } ->
      Format.fprintf ppf "clear stack[%d..%d]" lo_word (lo_word + n_words - 1)
  | Heap_write { obj; field; value } ->
      Format.fprintf ppf "#%d[%d] := %a" obj field pp_value value
  | Heap_read { obj; field } -> Format.fprintf ppf "read #%d[%d]" obj field
  | Root_write { word; value } -> Format.fprintf ppf "global[%d] := %a" word pp_value value
  | Root_read { word } -> Format.fprintf ppf "read global[%d]" word
  | Gc_point { measured = Some m } ->
      Format.fprintf ppf "gc #%d (measured %d objs / %d B)" m.m_collections m.m_live_objects
        m.m_live_bytes
  | Gc_point { measured = None } -> Format.fprintf ppf "gc"
  | Park { words } -> Format.fprintf ppf "park %d words" words
  | Unpark -> Format.fprintf ppf "unpark"
  | Clear_registers -> Format.fprintf ppf "clear registers"
  | Finalizer_attach { obj; token } -> Format.fprintf ppf "finalizer #%d (token %d)" obj token
  | Write_barrier { obj; field } -> Format.fprintf ppf "barrier #%d[%d]" obj field

let pp ppf p =
  Format.fprintf ppf "program: %d instrs, %d allocs, %d gc points, %d regs, %d stack words"
    (Array.length p.code) (count_allocs p) (count_gc_points p) p.n_registers p.stack_words
