(* Chase-Lev work-stealing deque of untagged ints (heap addresses), in
   the C11 formulation of Lê, Pop, Cohen and Zappa Nardelli ("Correct
   and Efficient Work-Stealing for Weak Memory Models", PPoPP 2013).
   OCaml atomics are sequentially consistent, which is strictly stronger
   than the orderings that proof needs, so the algorithm carries over
   with the buffer held in an [Atomic.t] so thieves racing a grow keep
   reading a buffer that is still correct at their logical index:

   - the owner pushes and pops at [bottom];
   - thieves CAS [top] upward to claim the oldest element;
   - a stale (pre-grow) buffer still holds the correct value at every
     logical index in [top, old bottom), and any slot-reuse race is
     detected by the thief's CAS on [top] failing.

   Elements are plain [int]s (immediates), so the non-atomic buffer
   reads cannot tear. *)

type buffer = {
  mask : int; (* capacity - 1; capacity is a power of two *)
  slots : int array;
}

type t = {
  top : int Atomic.t; (* next logical index to steal *)
  bottom : int Atomic.t; (* next logical index to push *)
  buf : buffer Atomic.t;
}

let make_buffer capacity = { mask = capacity - 1; slots = Array.make capacity 0 }

let create ?(capacity = 256) () =
  let rec pow2 c = if c >= capacity then c else pow2 (c * 2) in
  let capacity = pow2 16 in
  { top = Atomic.make 0; bottom = Atomic.make 0; buf = Atomic.make (make_buffer capacity) }

(* Owner-side size estimate.  Thieves may concurrently raise [top], so
   the true size is never larger than this — good enough for the
   mark-stack-limit overflow check, which is conservative anyway. *)
let size t = max 0 (Atomic.get t.bottom - Atomic.get t.top)

let is_empty t = size t = 0

(* Owner only.  Copies the live window [top, bottom) into a buffer of
   twice the capacity.  Thieves still holding the old buffer read
   correct values: logical indices below [bottom] are unchanged there. *)
let grow t buffer bottom top =
  let capacity = buffer.mask + 1 in
  let bigger = make_buffer (capacity * 2) in
  for i = top to bottom - 1 do
    bigger.slots.(i land bigger.mask) <- buffer.slots.(i land buffer.mask)
  done;
  Atomic.set t.buf bigger;
  bigger

(* Owner only. *)
let push t v =
  let bottom = Atomic.get t.bottom in
  let top = Atomic.get t.top in
  let buffer = Atomic.get t.buf in
  let buffer =
    if bottom - top > buffer.mask then grow t buffer bottom top else buffer
  in
  buffer.slots.(bottom land buffer.mask) <- v;
  Atomic.set t.bottom (bottom + 1)

(* Owner only.  LIFO end: newest element, i.e. depth-first scanning
   order like the serial mark stack. *)
let pop t =
  let bottom = Atomic.get t.bottom - 1 in
  Atomic.set t.bottom bottom;
  let top = Atomic.get t.top in
  if bottom < top then begin
    (* empty: restore the canonical bottom = top state *)
    Atomic.set t.bottom top;
    None
  end
  else begin
    let buffer = Atomic.get t.buf in
    let v = buffer.slots.(bottom land buffer.mask) in
    if bottom > top then Some v
    else begin
      (* last element: race thieves for it via the top CAS *)
      let won = Atomic.compare_and_set t.top top (top + 1) in
      Atomic.set t.bottom (top + 1);
      if won then Some v else None
    end
  end

(* Thief side.  FIFO end: oldest element, which spreads the broadest
   subtrees across domains. *)
let steal t =
  let top = Atomic.get t.top in
  let bottom = Atomic.get t.bottom in
  if bottom - top <= 0 then None
  else begin
    let buffer = Atomic.get t.buf in
    let v = buffer.slots.(top land buffer.mask) in
    if Atomic.compare_and_set t.top top (top + 1) then Some v else None
  end
