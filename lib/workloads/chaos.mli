(** Chaos driver: a randomized mutator under injected memory faults,
    runnable against several memory-management backends.

    Each scenario runs the soak-style random mutator (allocations small
    and large, links, field reads, dropped roots, planted false
    references, explicit collections, generational major collections,
    trims) against a backend
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

type outcome = {
  collector : string;
  scenario : string;
  plan : string;
  steps : int;
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
  seed:int ->
  scenario:string ->
  config:Cgc.Config.t ->
  plan:plan_spec ->
  unit ->
  outcome
(** Default collector: {!Conservative}. *)

val base_config : Cgc.Config.t
(** {!Cgc.Config.default} on a small committed footprint (8 initial
    pages) so fault plans bite quickly. *)

val default_scenarios : (string * Cgc.Config.t) list
(** eager, bounded mark stack, hashed blacklist, and
    relax-blacklist variants of {!base_config}. *)

val default_plans : seed:int -> plan_spec list
(** A re-arming countdown, a seeded probability, and a commit quota —
    the commit-fault plans. *)

val run_matrix :
  ?steps:int ->
  ?collectors:collector list ->
  seed:int ->
  unit ->
  outcome list
(** Every scenario crossed with every commit {e and} access plan, for
    each requested collector (default: all four).  The conservative
    collector runs all {!default_scenarios}; the generational and
    explicit backends run the eager base configuration; the precise
    backend runs the eager and bounded-mark-stack configurations (the
    exact marker's two interesting axes). *)

val pp_outcome : Format.formatter -> outcome -> unit
