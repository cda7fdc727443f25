type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next_int64 t }
let word t = Int64.to_int (next_int64 t) land 0xFFFFFFFF

let int t bound =
  assert (bound > 0);
  (* 62 usable bits; modulo bias is negligible for simulation purposes
     (bounds here are at most 2^32). *)
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L
let float t = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) *. 0x1p-53
let chance t p = float t < p
