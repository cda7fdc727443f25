(* Clock, sample buffers, spans and the per-run report shared by the
   workloads.  Every time here is read from the monotonic wall clock;
   the only CPU-time figures come from [Cgc.Stats] and carry a [cpu]
   label wherever they are reported. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* Growable buffer of samples; quantiles interpolate linearly between
   the closest ranks (numpy's default), [nan] when empty. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len

  let sum t =
    let s = ref 0. in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let quantile t q =
    if t.len = 0 then nan
    else begin
      let s = Array.sub t.data 0 t.len in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (t.len - 1) in
      let i = int_of_float pos in
      if i >= t.len - 1 then s.(t.len - 1) else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
    end

  let median t = quantile t 0.5
end

(* In-memory spans, written out as JSON lines when the run ends.  A span
   names its parent (0 for the workload run) and the iteration it
   belongs to; [clock] is "wall" or, for phase splits read from
   [Stats] deltas, "cpu". *)
module Spans = struct
  type span = {
    id : int;
    parent : int;
    iter : int;
    name : string;
    clock : string;
    start_ns : int;
    stop_ns : int;
  }

  type t = { enabled : bool; mutable next_id : int; mutable spans : span list }

  let create enabled = { enabled; next_id = 0; spans = [] }

  let fresh t =
    t.next_id <- t.next_id + 1;
    t.next_id

  let record t ?(clock = "wall") ~id ~parent ~iter name start_ns stop_ns =
    if t.enabled then t.spans <- { id; parent; iter; name; clock; start_ns; stop_ns } :: t.spans

  (* Record a span that has no children. *)
  let leaf t ?clock ~parent ~iter name start_ns stop_ns =
    if t.enabled then record t ?clock ~id:(fresh t) ~parent ~iter name start_ns stop_ns

  let write t path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"iter\":%d,\"name\":%S,\"clock\":%S,\"start_ns\":%d,\"dur_ns\":%d}\n"
          s.id s.parent s.iter s.name s.clock s.start_ns (s.stop_ns - s.start_ns))
      (List.rev t.spans);
    close_out oc
end

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  spans : Spans.t;
}

(* What a workload hands back: its metrics (name, value, unit), the
   request counts behind [failed_frac], and any failed correctness
   check. *)
type report = {
  mutable metrics : (string * float * string) list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable pause_samples : int;
}

let report () = { metrics = []; attempted = 0; failed = 0; errors = []; pause_samples = 0 }
let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics

let check r ok msg =
  if not ok then r.errors <- msg :: r.errors

(* Run [round] repeatedly for about [seconds]: at least [min_rounds],
   and no new round once the previous one says it would overrun.
   [after] runs untimed after each round.  Returns the wall time of each
   round. *)
let rounds ?(after = ignore) ~seconds ~min_rounds round =
  let times = Samples.create () in
  let start = now_ns () in
  let rec go i =
    let t0 = now_ns () in
    round i;
    let t1 = now_ns () in
    Samples.add times (s_of_ns (t1 - t0));
    after i;
    if i + 1 < min_rounds || s_of_ns (now_ns () - start + (t1 - t0)) <= seconds then go (i + 1)
  in
  go 0;
  times

(* The host is shared.  Another tenant slows memory-bound code on every
   processor of it by up to half for stretches of seconds, and on a
   busy host for most of a run, so every timing is taken over the
   quietest stretches: the lowest [quiet_share] of its samples. *)
let quiet_share = 0.125

(* The median of the lowest [quiet_share] of [s]. *)
let quiet_median s =
  let cut = Samples.quantile s quiet_share in
  let kept = Samples.create () in
  for i = 0 to Samples.length s - 1 do
    if s.Samples.data.(i) <= cut then Samples.add kept s.Samples.data.(i)
  done;
  Samples.median kept

(* The end-to-end timing summary of a measured phase.  Each timing is
   a per-round figure (the round's wall time, its median pause, its p90
   pause) and the summary is that figure's quiet median over the rounds,
   so neither a busy stretch nor one round's spikes move it.  [gc_share]
   is summed pause time over summed round time in the quiet rounds by
   wall time.  [round_pauses] holds each round's pauses (ms), in round
   order; [pauses] counts them all. *)
type summary = { wall_s : float; pause_p50 : float; pause_p90 : float; pauses : int; gc_share : float }

let summarize times round_pauses =
  let per_round f =
    let s = Samples.create () in
    List.iter (fun rp -> if Samples.length rp > 0 then Samples.add s (f rp)) round_pauses;
    s
  in
  let cut = Samples.quantile times quiet_share in
  let kept_s = ref 0. and kept_pause_ms = ref 0. in
  List.iteri
    (fun i rp ->
      let t = times.Samples.data.(i) in
      if t <= cut then begin
        kept_s := !kept_s +. t;
        kept_pause_ms := !kept_pause_ms +. Samples.sum rp
      end)
    round_pauses;
  {
    wall_s = quiet_median times;
    pause_p50 = quiet_median (per_round Samples.median);
    pause_p90 = quiet_median (per_round (fun rp -> Samples.quantile rp 0.9));
    pauses = List.fold_left (fun n rp -> n + Samples.length rp) 0 round_pauses;
    gc_share = !kept_pause_ms /. 1e3 /. !kept_s;
  }

(* Run [setup] once and add its wall time to [times]; returns its
   result. *)
let timed_setup times setup =
  let t0 = now_ns () in
  let v = setup () in
  Samples.add times (s_of_ns (now_ns () - t0));
  v

(* Set up once more, between rounds, only for the time: the result is
   dropped and the host heap collected, so that the next round does not
   pay for it. *)
let extra_setup times setup =
  ignore (timed_setup times setup);
  Stdlib.Gc.full_major ()
