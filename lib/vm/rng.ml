(* The SplitMix64 state lives unboxed in 8 bytes.  Every step below is
   inlined into its caller, so the 64-bit arithmetic stays in registers
   and a draw allocates nothing; only [float]'s result is boxed. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (get64u t 0) golden_gamma in
  set64u t 0 s;
  mix s

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set64u t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))
let split t = of_state (next_int64 t)
let word t = Int64.to_int (next_int64 t) land 0xFFFFFFFF

let int t bound =
  assert (bound > 0);
  (* 62 usable bits; modulo bias is negligible for simulation purposes
     (bounds here are at most 2^32). *)
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* The top 53 bits as a float in [0, 1); inlined, its result stays
   unboxed where it is only compared. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) *. 0x1p-53

let float t = unit_float t
let chance t p = unit_float t < p
