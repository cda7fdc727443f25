(** First-class IR for recorded mutator programs.

    A program is a linear trace of the mutator's observable actions.
    Addresses are abstracted: stack and global words are
    segment-relative word indices (stack word 0 = lowest address of the
    stack segment), heap objects are dense ids assigned at allocation
    (so address reuse after a sweep cannot conflate two objects), and
    each written value carries both its raw 32-bit image (what the
    conservative marker sees) and the id of the object it pointed to at
    write time, if any (the semantic edge a precise collector would
    follow). *)

type value = {
  raw : int;
  obj : int option;
}

val vint : int -> value
(** A plain integer value (no semantic edge). *)

type measurement = {
  m_collections : int;
  m_live_objects : int;
  m_live_bytes : int;
}

type instr =
  | Alloc of { obj : int; base : int; bytes : int; pointer_free : bool }
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
      (** [measured]: post-sweep collector statistics when the program
          was recorded from a live run. *)
  | Park of { words : int }
  | Unpark
  | Clear_registers
  | Finalizer_attach of { obj : int; token : int }
      (** a finalizer was registered for [obj].  Not a use: the
          collector reclaims finalizable garbage (running the finalizer
          first), so treating attachment as a retention edge would break
          the precise-is-a-lower-bound invariant. *)
  | Write_barrier of { obj : int; field : int }
      (** a generational card-marking event for a pointer store into
          [obj]; liveness-inert, surfaced to shape analysis and reports *)

type program = {
  n_registers : int;
  stack_words : int;
  globals_words : int;
  interior_pointers : bool;
  code : instr array;
}

val word_bytes : int

val count_gc_points : program -> int
val count_allocs : program -> int

val pp_value : Format.formatter -> value -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp : Format.formatter -> program -> unit
