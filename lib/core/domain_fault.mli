(** Marker-domain failure plans — the tracer-side sibling of
    {!Cgc_vm.Mem.Fault}.

    Where a [Mem.Fault] plan makes the simulated {e memory} unreliable,
    a [Domain_fault] plan makes one {e marker domain} of the parallel
    tracer unreliable: it freezes, dies, spins uselessly or merely
    crawls.  Plans are consulted at the tracer's instrumented
    checkpoints (deque push/pop/steal and chunk-claim sites inside
    [Mark.Parallel]); the trigger counters make every trip
    deterministic, so the QCheck differentials can pin the mark state
    after a failure bit-identical to the serial scanner.

    Failure taxonomy (DESIGN.md §9).  Every tripped failure except a
    tolerated straggler abandons the parallel attempt, and the serial
    scanner reruns the trace, so no failed domain's partial state is
    ever read:
    - {!Stall}: the domain freezes at its [after_claims]-th work-claim
      attempt, an item boundary.  It stops bumping its heartbeat, and
      the leader's watchdog abandons the trace.
    - {!Crash}: the domain dies abruptly at its [at_step]-th checkpoint
      of any kind, abandoning the trace on its way out.
    - {!Livelock}: the domain claims its [on_claim]-th item and then
      "processes" it forever without completing; like a stall, only
      the watchdog can see it.
    - {!Straggler}: the domain stays correct but spins [spin] relax
      loops at every checkpoint.  Its heartbeats keep advancing, so a
      generous [watchdog_budget] ({!Mark.Parallel.run}) tolerates it; a tight
      budget treats it as failed and abandons the trace, which costs a
      serial rerun but never correctness. *)

type mode =
  | Stall of { after_claims : int }
      (** freeze just before the [after_claims+1]-th successful work
          claim (0 = freeze before doing anything) *)
  | Crash of { at_step : int }
      (** die at the [at_step]-th checkpoint, counting every
          push/pop/steal/claim site passed *)
  | Livelock of { on_claim : int }
      (** claim the [on_claim]-th item, then spin on it forever *)
  | Straggler of { spin : int }  (** [spin] cpu-relax loops per checkpoint *)

type plan
(** One failure bound to one victim domain. *)

val plan : domain:int -> mode -> plan
(** @raise Invalid_argument when [domain < 1] (the leader, domain 0,
    hosts the watchdog and never fails) or the mode's trigger is out of
    range. *)

val victim : plan -> int
val mode : plan -> mode
val mode_name : mode -> string
val name : plan -> string
val pp : Format.formatter -> plan -> unit
