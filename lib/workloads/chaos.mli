(** Chaos driver: a randomized mutator under injected memory faults,
    runnable against several memory-management backends.

    Each scenario runs the soak-style random mutator (allocations small
    and large, links, field reads, dropped roots, planted false
    references, explicit collections, drains, trims) against a backend
    whose simulated memory is failing according to a deterministic
    {!Cgc_vm.Mem.Fault} plan — refused commits, ECC-style read faults,
    refused writes, or permanent decay of whole regions.  After every
    injected fault the driver audits crash coherence
    ({!Cgc.Verify.check_after_fault}, or the heap-level
    {!Cgc.Verify.check_heap} for the explicit baseline) and proves the
    backend is still usable by allocating once with the plan lifted;
    when the run ends and faults stop for good, it must recover
    outright.

    Shared by [test/test_chaos.ml], the [cgc_lab chaos] subcommand and
    the bench resilience section. *)

type collector =
  | Conservative  (** the paper's collector, {!Cgc.Gc} *)
  | Generational  (** the page-grained two-generation wrapper *)
  | Explicit  (** the malloc/free baseline — no scanning, typed OOM *)
  | Precise
      (** the type-accurate control, {!Cgc.Precise}, driven by the typed
          differential mutator ({!Typed_mutator}) instead of the untyped
          soak: every cell replays a typed trace against the exact view
          under faults {e and} a pristine conservative twin, checking
          that precise retention never exceeds conservative retention *)

val collector_name : collector -> string
val all_collectors : collector list

type plan_spec =
  | Countdown of { every : int }  (** every [every]-th commit fails (re-arming) *)
  | Chance of { probability : float; seed : int }  (** seeded per-commit failure chance *)
  | Quota of { bytes : int }  (** byte budget standing in for an OS memory limit *)
  | Read_chance of { probability : float; seed : int }
      (** seeded per-read ECC corruption chance (memory stays intact) *)
  | Read_decay of { every : int; region : int }
      (** every [every]-th read permanently decays the aligned [region]
          bytes around it (poison pattern, all later access faults) *)
  | Write_chance of { probability : float; seed : int }
      (** seeded per-write refusal chance (transient; the store is lost) *)
  | Write_decay of { every : int; region : int }
      (** every [every]-th write decays its region — exercises the
          collector's quarantine-and-retry escalation *)

val plan_name : plan_spec -> string

val is_access_plan : plan_spec -> bool
(** Whether the plan faults loads or stores (as opposed to commits):
    under such a plan a [mark_jobs > 1] run must take the tracer's typed
    serial fallback. *)

val instantiate : plan_spec -> Cgc_vm.Mem.Fault.plan

(** The marker-domain failure axis, orthogonal to the memory-fault
    plans: each armed cell injects one {!Cgc.Domain_fault} plan against
    domain 1 of every parallel mark phase (under a tightened watchdog
    budget), and additionally audits the fail-stop discipline — armed
    cells that really marked in parallel must have tripped the fault,
    a tripped stall, crash or livelock must have abandoned the trace
    for the serial rerun, and access-plan cells must never reach a
    fault site. *)
type domain_fault_spec =
  | No_domain_fault
  | Stall_fault  (** victim freezes at an item boundary; the watchdog abandons *)
  | Crash_fault  (** victim dies at a checkpoint and abandons on its way out *)
  | Livelock_fault  (** victim freezes holding a claimed item; the watchdog abandons *)
  | Straggler_fault
      (** victim is merely slow; the watchdog may abandon the trace or
          tolerate it, and the marks are exact either way *)

val all_domain_faults : domain_fault_spec list
val domain_fault_name : domain_fault_spec -> string

val domain_fault_plans : domain_fault_spec -> Cgc.Domain_fault.plan list
(** The concrete plans an armed cell passes to {!Cgc.Gc.set_domain_faults}. *)

type outcome = {
  collector : string;
  scenario : string;
  plan : string;
  domain_fault : string;  (** the armed {!domain_fault_spec}'s name *)
  steps : int;
  mark_jobs : int;  (** marker domains requested of the conservative tracer *)
  last_fallback : string option;
      (** how the run's final mark phase ran ("parallel" or the typed
          fallback cause); [None] when no parallel phase was requested *)
  faults_injected : int;
  ooms_caught : int;  (** [Out_of_memory] surfacing to the mutator — expected under pressure *)
  mutator_read_faults : int;
      (** typed [Mem.Read_fault] surfacing from mutator field reads — expected *)
  mutator_write_faults : int;
      (** typed [Mem.Write_fault] surfacing from mutator field writes — expected *)
  escaped : string list;  (** any other exception escaping a public entry point: a bug *)
  verify_issues : string list;  (** post-fault invariant violations, step-tagged: bugs *)
  post_fault_alloc_failures : int;
      (** injected faults after which a fault-free allocation failed *)
  recovered : bool;  (** allocation succeeded once faults stopped for good *)
  final_issues : string list;  (** final coherence audit at the end of the run *)
  stats : Cgc.Stats.t;
      (** snapshot, including ladder-rung and access-fault counters
          (all-zero for the explicit baseline, which keeps no [Stats.t]) *)
  overrides : int;  (** blacklist overrides by relaxation rungs *)
  retention : (int * int) option;
      (** precise cells: (exact live, conservative-twin live) at the
          last completed exact collect; [None] for other collectors or
          when no exact collect completed *)
}

val clean : outcome -> bool
(** No escapes, no invariant violations, every post-fault allocation
    succeeded, and the run recovered.  Mutator-level typed faults and
    OOMs do {e not} make a run dirty — they are the expected surface of
    an unreliable memory. *)

val run_scenario :
  ?steps:int ->
  ?collector:collector ->
  ?mark_jobs:int ->
  ?domain_fault:domain_fault_spec ->
  seed:int ->
  scenario:string ->
  config:Cgc.Config.t ->
  plan:plan_spec ->
  unit ->
  outcome
(** Default collector: {!Conservative} (backward compatible).
    [mark_jobs] (default 1) overrides [Config.mark_jobs] so the same
    matrix can run under the parallel tracer; with [mark_jobs > 1] the
    run additionally asserts the marking discipline — access plans must
    show the typed serial fallback, commit plans must really have marked
    in parallel — and any violation lands in [final_issues], so {!clean}
    catches it.  [domain_fault] (default {!No_domain_fault}) arms the
    marker-domain failure axis on the conservative collector (ignored
    for other backends and for [mark_jobs <= 1]), including its
    recovery-discipline audit. *)

val base_config : Cgc.Config.t
(** {!Cgc.Config.default} on a small committed footprint (8 initial
    pages) so fault plans bite quickly. *)

val default_scenarios : (string * Cgc.Config.t) list
(** eager, lazy, bounded mark stack, hashed blacklist, and
    relax-blacklist variants of {!base_config}. *)

val default_plans : seed:int -> plan_spec list
(** A re-arming countdown, a seeded probability, and a commit quota —
    the commit-fault plans. *)

val access_plans : seed:int -> plan_spec list
(** The read/write fault plans: ECC read chance, read decay, write
    refusal chance, write decay. *)

val run_matrix :
  ?steps:int ->
  ?collectors:collector list ->
  ?mark_jobs:int ->
  ?domain_fault:domain_fault_spec ->
  seed:int ->
  unit ->
  outcome list
(** Every scenario crossed with every commit {e and} access plan, for
    each requested collector (default: all four).  The conservative
    collector runs all {!default_scenarios}; the generational and
    explicit backends run the eager base configuration; the precise
    backend runs the eager and bounded-mark-stack configurations (the
    exact marker's two interesting axes).  [mark_jobs] (default 1) and
    [domain_fault] (default {!No_domain_fault}) are forwarded to every
    cell. *)

val pp_outcome : Format.formatter -> outcome -> unit
