(** The mutator machine: registers and a C-like stack.

    Reproduces the root-pollution phenomena of the paper's sections 3
    and 3.1:

    - stack frames are {e not} cleared on entry, so "a pointer may be
      written to a stack location, the stack may be popped to well below
      that pointer's location, the stack may grow again, and the garbage
      collector may be invoked with the pointer again appearing live";
    - RISC-style calling conventions "encourage unnecessarily large
      stack frames, parts of which are never written" ([frame_padding]);
    - register windows and kernel calls leave non-deterministic residue
      in registers ([register_residue], [syscall_noise]) — the source of
      the paper's non-reproducible results;
    - the out-of-line allocator itself spills the fresh pointer to the
      stack, and may or may not "carefully clean up after itself"
      ([allocator_self_cleanup]);
    - the allocator can "occasionally try to clear areas in the stack
      beyond the most recently activated frame" ([stack_clearing]). *)

open Cgc_vm

exception Stack_overflow of { sp : Addr.t; requested_words : int; limit : Addr.t }
(** The simulated stack cannot grow by [requested_words] below [sp]
    without crossing [limit] (the low end of the stack segment).  A
    typed analog of the OS's SIGSEGV-on-guard-page. *)

exception Already_parked of { sp : Addr.t }
(** {!park} was called on a machine that is already parked at [sp].
    Typed like {!Stack_overflow} so harnesses can match on it; the
    machine is left untouched and remains usable. *)

type config = {
  n_registers : int;
  register_residue : float;
      (** probability per call that a stale pointer value leaks into a
          callee-visible register (register-window effect) *)
  syscall_noise : float;
      (** probability per allocation that a register picks up a random
          word ("register values left over from kernel calls and/or
          context switches") *)
  frame_padding : int;  (** extra never-written words per frame *)
  clear_frames_on_entry : bool;  (** defensive, GC-aware code style *)
  clear_frames_on_exit : bool;
  allocator_self_cleanup : bool;
      (** the allocator clears its own stack scratch before returning
          (paper section 3.1, first technique) *)
  stack_clearing : bool;  (** paper section 3.1, second technique *)
  stack_clear_period : int;  (** allocations between clearing attempts *)
  stack_clear_words : int;  (** words cleared below the stack pointer per attempt *)
}

val default_config : config
(** 32 registers, no noise, 2 padding words, no frame clearing,
    allocator cleans up, stack clearing off, period 64, 256 words. *)

val careless_config : config
(** Code "written in C for explicit deallocation": generous padding, no
    cleanup of any kind — the worst case of section 3.1. *)

val hygienic_config : config
(** Defensive, GC-aware style: allocator cleanup and stack clearing on. *)

type t

type frame

(** {1 Trace events}

    Every observable state change flows past an attached tracer (see
    {!set_tracer}), so a recorder can rebuild the whole mutator program
    — allocations, register and stack traffic, frame lifetimes, heap
    data-flow — as a first-class IR.  Collections have no call path
    through the machine (they fire inside [Cgc.Gc.allocate] or via
    direct [Cgc.Gc.collect] calls), so the machine polls the
    collector's cycle counter before every emission and synthesizes an
    [E_gc] event carrying the measured post-sweep statistics. *)
type event =
  | E_alloc of { base : Addr.t; bytes : int; pointer_free : bool }
      (** [bytes] is the size-class-rounded extent the marker scans. *)
  | E_reg_write of { reg : int; value : int }
  | E_reg_read of { reg : int }
  | E_frame_push of { slots : int; padding : int; cleared : bool }
  | E_frame_pop of { slots : int; padding : int; cleared : bool }
  | E_local_write of { addr : Addr.t; value : int }
  | E_local_read of { addr : Addr.t }
  | E_spill_write of { addr : Addr.t; value : int }
      (** Allocator scratch below the stack pointer. *)
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
      (** A finalizer was registered for the object at [obj]; [token]
          is a stable hash of the finalizer label. *)
  | E_write_barrier of { obj : Addr.t; field : int }
      (** Generational card-marking of a pointer store (synthesized for
          every store whose value is a live object address; only emitted
          while a tracer is attached). *)

val set_tracer : t -> (event -> unit) option -> unit
(** Attach (or detach) the single tracer.  Tracing is off by default
    and costs nothing when off: an event is built only while a tracer
    is attached, so with no tracer the machine's operations allocate no
    OCaml words of their own (an allocation that misses in the
    collector may still allocate there). *)

val poll_gc : t -> unit
(** Force the collection-counter poll now (normally implicit in every
    traced operation).  Recorders call this once more when finishing,
    so a final [Cgc.Gc.collect] that is followed by no further machine
    activity still yields its [E_gc] event. *)

val create : ?config:config -> ?seed:int -> Mem.t -> stack:Segment.t -> gc:Cgc.Gc.t -> t
(** Attach to an existing stack segment and collector.  Registers the
    machine's registers and live stack extent as GC roots. *)

val gc : t -> Cgc.Gc.t
val config : t -> config
val stack_pointer : t -> Addr.t
val stack_base : t -> Addr.t
(** High end of the stack (the stack grows down from here). *)

val stack_limits : t -> Addr.t * Addr.t
(** [(lowest, highest)] addresses of the whole stack segment. *)

val low_water : t -> Addr.t
(** Deepest stack pointer observed so far. *)

(** {1 Registers} *)

val n_registers : t -> int
val get_register : t -> int -> int
val set_register : t -> int -> int -> unit
val clear_registers : t -> unit

(** {1 Frames} *)

val call : t -> slots:int -> (frame -> 'a) -> 'a
(** Push a frame of [slots] locals (plus configured padding), run the
    body, pop.  Frame memory is recycled stack memory: unless the
    configuration clears frames, locals start out holding whatever the
    previous occupant left there.  If the body raises, the frame is
    popped and the exception re-raised with the body's backtrace.  The
    frame is valid only while its body runs: the machine reuses its
    record for the next call at the same depth, so a call allocates
    nothing.  A frame used after its call returns raises
    [Invalid_argument] until that next call, which it then aliases.
    @raise Stack_overflow when the frame would not fit. *)

val local_addr : frame -> int -> Addr.t
(** Address of local slot [i] — itself a root while the frame is live. *)

val get_local : frame -> int -> int
val set_local : frame -> int -> int -> unit

val park : t -> words:int -> unit
(** Model a thread blocking deep in a wait call: the stack pointer moves
    down by [words] and stays there (the region is {e not} initialized,
    so whatever the thread did earlier remains visible to the
    conservative scan).  Appendix B's idle Cedar threads sit exactly in
    this state.
    @raise Stack_overflow when the parked region would not fit.
    @raise Already_parked if the machine is already parked. *)

val unpark : t -> unit
(** Return from the blocking call; the parked region becomes dead stack.
    No-op if not parked. *)

val parked : t -> bool

(** {1 Allocation} *)

val allocate : ?pointer_free:bool -> ?finalizer:string -> t -> int -> Addr.t
(** Allocate through the collector, modelling the out-of-line allocation
    call: the result is spilled to allocator scratch space below the
    stack pointer (cleared afterwards only with
    [allocator_self_cleanup]), register 0 receives the result, noise
    hooks fire, and the configured stack clearing runs. *)

(** {1 Heap and global access}

    Loads and stores as the compiled mutator would issue them.  These
    delegate to [Cgc.Gc.get_field]/[set_field] (resp. raw segment
    access) but flow past the tracer, so recorded programs carry the
    mutator's data-flow and not just its allocations. *)

val read_field : t -> Addr.t -> int -> int
val write_field : t -> Addr.t -> int -> int -> unit

val read_root_word : t -> Segment.t -> Addr.t -> int
(** Read a global root slot (a word in a registered static segment). *)

val write_root_word : t -> Segment.t -> Addr.t -> int -> unit

val clear_dead_stack : t -> unit
(** Explicitly clear the whole dead region below the stack pointer. *)

val pp : Format.formatter -> t -> unit
