(* Chaos soak: the randomized mutator of test_soak run under seeded
   fault-injection plans.  Every injected fault must leave the heap
   Verify-clean, the first fault-free allocation afterwards must
   succeed, and once faults stop for good the collector must behave
   exactly like a healthy one — including landing the Table-1 retention
   experiment in its usual bands. *)

module Chaos = Cgc_workloads.Chaos
module W_platform = Cgc_workloads.Platform
module W_program_t = Cgc_workloads.Program_t
module Mem = Cgc_vm.Mem

let check = Alcotest.check
let bool = Alcotest.bool

let outcome_clean o =
  if not (Chaos.clean o) then
    Alcotest.failf "%s x %s: %s" o.Chaos.scenario o.Chaos.plan
      (Format.asprintf "%a" Chaos.pp_outcome o)

(* One scenario x plan cell, asserted clean.  Countdown and chance plans
   must actually fire to be worth anything; quota plans fire only once
   the mutator outgrows the budget, which every config here does. *)
let cell ~steps ~seed ~scenario ~config ~plan ~expect_faults () =
  let o = Chaos.run_scenario ~steps ~seed ~scenario ~config ~plan () in
  outcome_clean o;
  if expect_faults then
    check bool
      (Printf.sprintf "%s x %s: plan fired" o.Chaos.scenario o.Chaos.plan)
      true
      (o.Chaos.faults_injected > 0)

let test_matrix () =
  (* >= 4 configs x >= 3 seeded plans, each asserted clean *)
  let total_faults = ref 0 in
  List.iter
    (fun (scenario, config) ->
      List.iter
        (fun plan ->
          let o = Chaos.run_scenario ~steps:1200 ~seed:2026 ~scenario ~config ~plan () in
          outcome_clean o;
          total_faults := !total_faults + o.Chaos.faults_injected)
        (Chaos.default_plans ~seed:2026))
    Chaos.default_scenarios;
  check bool "faults were injected across the matrix" true (!total_faults > 0)

let test_countdown_fires_everywhere () =
  List.iter
    (fun (scenario, config) ->
      cell ~steps:800 ~seed:7 ~scenario ~config
        ~plan:(Chaos.Countdown { every = 5 })
        ~expect_faults:true ())
    Chaos.default_scenarios

let test_chance_fires () =
  cell ~steps:1000 ~seed:11 ~scenario:"eager" ~config:Chaos.base_config
    ~plan:(Chaos.Chance { probability = 0.15; seed = 99 })
    ~expect_faults:true ()

let test_quota_fires () =
  cell ~steps:1500 ~seed:13 ~scenario:"eager" ~config:Chaos.base_config
    ~plan:(Chaos.Quota { bytes = 16 * 4096 })
    ~expect_faults:true ()

let test_determinism () =
  let run () =
    Chaos.run_scenario ~steps:600 ~seed:42 ~scenario:"eager"
      ~config:(List.assoc "eager" Chaos.default_scenarios)
      ~plan:(Chaos.Chance { probability = 0.1; seed = 5 })
      ()
  in
  let a = run () and b = run () in
  Alcotest.(check int)
    "same seed, same faults" a.Chaos.faults_injected b.Chaos.faults_injected;
  Alcotest.(check int) "same seed, same ooms" a.Chaos.ooms_caught b.Chaos.ooms_caught

(* Ladder-rung counters must be observable through Stats. *)
let test_ladder_counters_visible () =
  let o =
    Chaos.run_scenario ~steps:1500 ~seed:3 ~scenario:"eager" ~config:Chaos.base_config
      ~plan:(Chaos.Quota { bytes = 12 * 4096 })
      ()
  in
  outcome_clean o;
  let s = o.Chaos.stats in
  check bool "commit faults counted" true (s.Cgc.Stats.commit_faults > 0);
  check bool "ladder climbed" true
    (s.Cgc.Stats.ladder_collects > 0 || s.Cgc.Stats.ladder_trims > 0
   || s.Cgc.Stats.ladder_expansions > 0)

(* --- cross-collector chaos ------------------------------------------ *)

(* The full collector x scenario x plan matrix (commit, read, write and
   decay plans against the conservative, generational and explicit
   backends), every cell asserted clean. *)
let test_cross_collector_matrix () =
  let outcomes = Chaos.run_matrix ~steps:500 ~seed:1993 () in
  List.iter outcome_clean outcomes;
  let collectors = List.sort_uniq compare (List.map (fun o -> o.Chaos.collector) outcomes) in
  Alcotest.(check (list string))
    "all four backends ran"
    [ "conservative"; "explicit"; "generational"; "precise" ]
    collectors;
  check bool "faults were injected across the matrix" true
    (List.exists (fun o -> o.Chaos.faults_injected > 0) outcomes)

let access_cell ?(collector = Chaos.Conservative) ~plan ~expect_faults () =
  let o =
    Chaos.run_scenario ~steps:900 ~collector ~seed:404 ~scenario:"eager"
      ~config:Chaos.base_config ~plan ()
  in
  outcome_clean o;
  if expect_faults then
    check bool
      (Printf.sprintf "%s x %s: plan fired" o.Chaos.collector o.Chaos.plan)
      true (o.Chaos.faults_injected > 0);
  o

let test_read_chance_fires () =
  let o =
    access_cell ~plan:(Chaos.Read_chance { probability = 0.001; seed = 5 }) ~expect_faults:true ()
  in
  check bool "downgrades counted" true (o.Chaos.stats.Cgc.Stats.mark_downgrades > 0)

let test_read_decay_survived () =
  let o =
    access_cell ~plan:(Chaos.Read_decay { every = 1500; region = 256 }) ~expect_faults:true ()
  in
  check bool "reads faulted" true (o.Chaos.stats.Cgc.Stats.read_faults > 0)

let test_write_decay_quarantines () =
  let o =
    access_cell ~plan:(Chaos.Write_decay { every = 30; region = 512 }) ~expect_faults:true ()
  in
  check bool "pages quarantined" true (o.Chaos.stats.Cgc.Stats.pages_decayed > 0);
  check bool "allocation retried past the decay" true
    (o.Chaos.stats.Cgc.Stats.decay_retries > 0)

let test_generational_survives_decay () =
  ignore
    (access_cell ~collector:Chaos.Generational
       ~plan:(Chaos.Read_decay { every = 1500; region = 256 })
       ~expect_faults:true ()
      : Chaos.outcome)

(* One precise cell in isolation: write refusals fault mutator stores
   on the typed trace, yet every completed exact collect must satisfy
   the differential invariant against the conservative twin. *)
let test_precise_write_chance_differential () =
  let o =
    access_cell ~collector:Chaos.Precise
      ~plan:(Chaos.Write_chance { probability = 0.01; seed = 7 })
      ~expect_faults:true ()
  in
  check bool "exact collects completed" true
    (o.Chaos.stats.Cgc.Stats.precise_collections > 0);
  match o.Chaos.retention with
  | Some (p, c) ->
      check bool
        (Printf.sprintf "precise retention %d <= conservative %d" p c)
        true (p <= c)
  | None -> Alcotest.fail "no retention comparison recorded"

let test_explicit_typed_oom_under_commit_faults () =
  let o =
    access_cell ~collector:Chaos.Explicit
      ~plan:(Chaos.Countdown { every = 5 })
      ~expect_faults:true ()
  in
  (* the explicit baseline has no escalation ladder: every refused commit
     surfaces as its typed Out_of_memory, never as Mem.Commit_failed *)
  check bool "refusals surfaced as typed OOM" true (o.Chaos.ooms_caught > 0)

(* Table 1 under early faults: a one-shot countdown plan fails a commit
   early in program T, then disarms.  The ladder absorbs the fault and
   the experiment must land in the same bands as test_workloads pins
   for the fault-free run (sparc-static, 40 lists x 1500 nodes:
   blacklisting keeps leaks <= 4, no blacklisting leaks > 10). *)
let test_retention_bands_after_faults () =
  let p = W_platform.sparc_static ~optimized:false in
  let prepare env =
    Mem.set_fault_plan env.W_platform.mem (Some (Mem.Fault.plan ~countdown:3 ()))
  in
  let with_bl = W_program_t.run ~blacklisting:true ~prepare ~lists:40 ~nodes:1500 p in
  let without_bl = W_program_t.run ~blacklisting:false ~prepare ~lists:40 ~nodes:1500 p in
  check bool "fault absorbed (with blacklist)" true
    (with_bl.W_program_t.collections > 0);
  check bool "blacklisting band: few lists leak" true (with_bl.W_program_t.retained <= 4);
  check bool "no-blacklisting band: most lists leak" true (without_bl.W_program_t.retained > 10)

(* Same bands under ECC read faults: a one-shot Reads plan downgrades a
   word early in program T, then disarms; memory is intact, so the
   experiment still lands in the pinned retention bands. *)
let test_retention_bands_after_read_faults () =
  let p = W_platform.sparc_static ~optimized:false in
  let prepare env =
    Mem.set_fault_plan env.W_platform.mem
      (Some (Mem.Fault.plan ~countdown:200 ~target:Mem.Fault.Reads ()))
  in
  let with_bl = W_program_t.run ~blacklisting:true ~prepare ~lists:40 ~nodes:1500 p in
  let without_bl = W_program_t.run ~blacklisting:false ~prepare ~lists:40 ~nodes:1500 p in
  check bool "fault-era collections happened" true (with_bl.W_program_t.collections > 0);
  check bool "blacklisting band holds" true (with_bl.W_program_t.retained <= 4);
  check bool "no-blacklisting band holds" true (without_bl.W_program_t.retained > 10)

let () =
  Alcotest.run "chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "matrix: all configs x all plans clean" `Slow test_matrix;
          Alcotest.test_case "countdown fires in every config" `Slow test_countdown_fires_everywhere;
          Alcotest.test_case "chance plan fires" `Quick test_chance_fires;
          Alcotest.test_case "quota plan fires" `Quick test_quota_fires;
          Alcotest.test_case "deterministic under a fixed seed" `Quick test_determinism;
          Alcotest.test_case "ladder counters visible" `Quick test_ladder_counters_visible;
          Alcotest.test_case "table-1 bands survive early faults" `Slow
            test_retention_bands_after_faults;
        ] );
      ( "cross-collector",
        [
          Alcotest.test_case "full collector x plan matrix clean" `Slow
            test_cross_collector_matrix;
          Alcotest.test_case "read-chance plan downgrades, survives" `Quick test_read_chance_fires;
          Alcotest.test_case "read-decay plan survives" `Quick test_read_decay_survived;
          Alcotest.test_case "write-decay quarantines pages" `Quick test_write_decay_quarantines;
          Alcotest.test_case "generational survives read decay" `Quick
            test_generational_survives_decay;
          Alcotest.test_case "precise: write-chance differential" `Quick
            test_precise_write_chance_differential;
          Alcotest.test_case "explicit: commit faults surface typed" `Quick
            test_explicit_typed_oom_under_commit_faults;
          Alcotest.test_case "table-1 bands survive read faults" `Slow
            test_retention_bands_after_read_faults;
        ] );
    ]
