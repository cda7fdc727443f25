(** Deterministic pseudo-random numbers (SplitMix64).

    The paper's measurements were explicitly {e not} reproducible
    ("the scanned part of the address space is polluted with UNIX
    environment variables, and in some cases apparently register values
    left over from kernel calls").  Our simulation replaces those
    uncontrolled sources with a seeded SplitMix64 stream so every
    experiment is exactly repeatable, while [split] lets independent
    subsystems (static-data generator, register noise, workload) draw
    from decorrelated streams. *)

type t

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** A new generator whose stream is decorrelated from the parent's
    subsequent output. *)

val next_int64 : t -> int64
(** The raw 64-bit SplitMix64 output. *)

val word : t -> int
(** A uniformly distributed 32-bit word (as a non-negative [int]). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)
