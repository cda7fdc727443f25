(** Records a live mutator run into an {!Ir.program}.

    Attach to a machine before the workload runs; the recorder
    translates the machine's trace events into IR instructions,
    assigning dense object ids at allocation time and tagging every
    written value with the object it referred to at the moment of the
    write.  Collections are captured as [Gc_point] instructions
    carrying the collector's measured post-sweep statistics, which is
    what the analyzer cross-validates its predictions against. *)

open Cgc_vm

type t

val attach : Cgc_mutator.Machine.t -> globals:Segment.t -> t
(** Start recording.  [globals] is the static segment whose words the
    workload uses as global roots (the harness data segment / the
    platform static-data segment). *)

val finish : t -> Ir.program
(** Detach the tracer and return the recorded program.  Polls the
    collector once more first, so a trailing [Cgc.Gc.collect] with no
    subsequent machine activity still contributes its GC point. *)

val abort : t -> unit
(** Detach the tracer and drop all recorded state without building a
    program.  Use on failure paths: a recorder left attached would keep
    consuming the machine's events into a dead session, poisoning the
    next recording's IR. *)

val base_of_obj : t -> int -> Addr.t option
(** Concrete base address an object id was allocated at (addresses may
    have been reused since if the object died). *)
