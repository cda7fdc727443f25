(* Marker-domain failure plans: the tracer-side sibling of [Mem.Fault].

   A plan describes one deterministic way a marker domain of the
   parallel tracer misbehaves.  Plans are pure data; [Mark.Parallel]
   consults them at its instrumented checkpoints (deque push/pop/steal
   and chunk claim) and turns a tripped plan into the corresponding
   failure, which abandons the parallel attempt — directly for a crash,
   through the leader's watchdog for a silent freeze.  Determinism comes
   from the trigger counters: the same plan on the same trace trips at
   the same checkpoint every run.

   The leader (domain 0) hosts the watchdog and is immune by
   construction — [plan] rejects it — so a freeze is always detected. *)

type mode =
  | Stall of { after_claims : int }
  | Crash of { at_step : int }
  | Livelock of { on_claim : int }
  | Straggler of { spin : int }

type plan = { victim : int; mode : mode }

let plan ~domain mode =
  if domain < 1 then
    invalid_arg "Domain_fault.plan: the leader (domain 0) hosts the watchdog and cannot fail";
  (match mode with
  | Stall { after_claims } ->
      if after_claims < 0 then invalid_arg "Domain_fault.plan: after_claims must be >= 0"
  | Crash { at_step } ->
      if at_step < 1 then invalid_arg "Domain_fault.plan: at_step must be >= 1"
  | Livelock { on_claim } ->
      if on_claim < 1 then invalid_arg "Domain_fault.plan: on_claim must be >= 1"
  | Straggler { spin } ->
      if spin < 1 then invalid_arg "Domain_fault.plan: spin must be >= 1");
  { victim = domain; mode }

let victim p = p.victim
let mode p = p.mode

let mode_name = function
  | Stall _ -> "stall"
  | Crash _ -> "crash"
  | Livelock _ -> "livelock"
  | Straggler _ -> "straggler"

let name p =
  match p.mode with
  | Stall { after_claims } -> Printf.sprintf "stall-d%d-after-%d-claims" p.victim after_claims
  | Crash { at_step } -> Printf.sprintf "crash-d%d-at-step-%d" p.victim at_step
  | Livelock { on_claim } -> Printf.sprintf "livelock-d%d-on-claim-%d" p.victim on_claim
  | Straggler { spin } -> Printf.sprintf "straggler-d%d-spin-%d" p.victim spin

let pp ppf p = Format.pp_print_string ppf (name p)
