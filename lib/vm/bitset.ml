type t = {
  n : int;
  words : int array; (* 62 usable bits per word to stay in the immediate range *)
}

let bits_per_word = 62
let nwords n = (n + bits_per_word - 1) / bits_per_word
let create n = { n; words = Array.make (max 1 (nwords n)) 0 }

let of_words ~n words =
  if Array.length words <> max 1 (nwords n) then invalid_arg "Bitset.of_words: length mismatch";
  { n; words }

let check t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.n)

let mem_words words i = words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add_words words i =
  let w = i / bits_per_word in
  words.(w) <- words.(w) lor (1 lsl (i mod bits_per_word))

let remove_words words i =
  let w = i / bits_per_word in
  words.(w) <- words.(w) land lnot (1 lsl (i mod bits_per_word))

let mem t i =
  check t i;
  mem_words t.words i

let add t i =
  check t i;
  add_words t.words i

let remove t i =
  check t i;
  remove_words t.words i

let set t i b = if b then add t i else remove t i
let clear_words words = Array.fill words 0 (Array.length words) 0
let clear t = clear_words t.words

(* SWAR population count of a word, constant work whatever its weight:
   pair sums, nibble sums, byte sums, then one multiply gathers the byte
   sums into the top byte.  The masks are the 64-bit ones cut to the 62
   bits a word uses, so every constant is an immediate; the total (at
   most 62) fits the 7 bits of the top byte that a 63-bit int keeps. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

let count_words words =
  let n = ref 0 in
  for w = 0 to Array.length words - 1 do
    n := !n + popcount (Array.unsafe_get words w)
  done;
  !n

let count t = count_words t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words
let copy t = { n = t.n; words = Array.copy t.words }

let union_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitset.union_into: universe mismatch";
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) lor w) src.words

(* Index of the lowest set bit of a non-zero word, by binary search —
   constant work instead of a walk over up to 62 bit positions. *)
let[@inline] ntz x =
  let n = ref 0 in
  let x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    x := !x lsr 32
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then n := !n + 1;
  !n

(* Visit members in ascending order: whole zero words are skipped with
   one comparison, and each set bit costs one trailing-zero extraction.
   After each visit the word is read again and cut to the bits above
   the one just visited, so a member [f] adds above it is visited too,
   and one it removes is not, wherever the word boundaries fall. *)
let iter_set_words words f =
  for w = 0 to Array.length words - 1 do
    let word = ref (Array.unsafe_get words w) in
    if !word <> 0 then begin
      let base = w * bits_per_word in
      while !word <> 0 do
        let b = ntz !word in
        f (base + b);
        word := Array.unsafe_get words w land (-2 lsl b)
      done
    end
  done

let iter_set t f = iter_set_words t.words f

(* Members above [n] cannot exist (add bounds-checks), so no filtering
   against [t.n] is needed here. *)
let iter f t = iter_set t f

type sweep_counts = {
  mutable kept : int;
  mutable dropped : int;
}

(* The sweep kernel, one bitmap word at a time: [keep = alloc land mark]
   is stored back into alloc and the mark word is zeroed, with two SWAR
   popcounts for the tallies and no per-object work.  Only a [dead]
   visitor costs per object, and only on words that lost a member. *)
let sweep_words ?dead ~alloc:a ~mark:m counts =
  let kept = ref 0 and dropped = ref 0 in
  for w = 0 to Array.length a - 1 do
    let word = Array.unsafe_get a w in
    if word <> 0 then begin
      let keep = word land Array.unsafe_get m w in
      let gone = word lxor keep in
      if gone <> 0 then begin
        (match dead with
        | None -> ()
        | Some f ->
            let base = w * bits_per_word in
            let g = ref gone in
            while !g <> 0 do
              f (base + ntz !g);
              g := !g land (!g - 1)
            done);
        Array.unsafe_set a w keep;
        dropped := !dropped + popcount gone
      end;
      kept := !kept + popcount keep
    end;
    Array.unsafe_set m w 0
  done;
  counts.kept <- counts.kept + !kept;
  counts.dropped <- counts.dropped + !dropped

let sweep ?dead ~alloc ~mark counts =
  if alloc.n <> mark.n then invalid_arg "Bitset.sweep: universe mismatch";
  sweep_words ?dead ~alloc:alloc.words ~mark:mark.words counts

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  iter
    (fun i ->
      if not !first then Format.fprintf ppf ",";
      first := false;
      Format.fprintf ppf "%d" i)
    t;
  Format.fprintf ppf "}"
