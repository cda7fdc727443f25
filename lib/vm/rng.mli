(** Deterministic pseudo-random numbers (SplitMix64).

    The paper's measurements were explicitly {e not} reproducible
    ("the scanned part of the address space is polluted with UNIX
    environment variables, and in some cases apparently register values
    left over from kernel calls").  Our simulation replaces those
    uncontrolled sources with a seeded SplitMix64 stream so every
    experiment is exactly repeatable, while [split] lets independent
    subsystems (static-data generator, register noise, workload) draw
    from decorrelated streams.

    The 64-bit state lives unboxed in 8 bytes, and each step is inlined
    into its draw, so {!word}, {!int}, {!bool} and {!chance} allocate
    nothing on the OCaml heap and {!float} allocates only its result's
    box.  The simulated mutator draws several times per allocation; a
    boxed [int64] state cost 6 OCaml words per draw.  The stream is the
    one that state produced, draw for draw: the experiments' figures
    depend on it, and [test_vm] pins it for two seeds. *)

type t

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** A new generator whose stream is decorrelated from the parent's
    subsequent output. *)

val word : t -> int
(** A uniformly distributed 32-bit word (as a non-negative [int]). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p].  It always draws, also
    when [p] is 0 or 1, so the stream does not depend on [p]. *)
