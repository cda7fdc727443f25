(* Unit tests for the address-space substrate (lib/vm). *)

open Cgc_vm

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- Addr --- *)

let test_addr_masking () =
  check int "of_int masks to 32 bits" 0x1234 (Addr.of_int 0x100001234);
  check int "add wraps" 0 (Addr.add (Addr.of_int 0xFFFFFFFF) 1);
  check int "add negative" 0xFFFFFFFF (Addr.add Addr.zero (-1))

let test_addr_alignment () =
  check bool "aligned" true (Addr.is_aligned (Addr.of_int 0x1000) 0x1000);
  check bool "unaligned" false (Addr.is_aligned (Addr.of_int 0x1004) 0x1000);
  check int "align_down" 0x2000 (Addr.align_down (Addr.of_int 0x2FFF) 0x1000);
  check int "align_up" 0x3000 (Addr.align_up (Addr.of_int 0x2001) 0x1000);
  check int "align_up already aligned" 0x2000 (Addr.align_up (Addr.of_int 0x2000) 0x1000)

let test_addr_trailing_zeros () =
  check int "0x00090000 has 16 trailing zeros" 16 (Addr.trailing_zeros (Addr.of_int 0x00090000));
  check int "odd address" 0 (Addr.trailing_zeros (Addr.of_int 0x1001));
  check int "zero" 32 (Addr.trailing_zeros Addr.zero)

let test_addr_range () =
  check bool "lo included" true (Addr.in_range (Addr.of_int 10) ~lo:(Addr.of_int 10) ~hi:(Addr.of_int 20));
  check bool "hi excluded" false (Addr.in_range (Addr.of_int 20) ~lo:(Addr.of_int 10) ~hi:(Addr.of_int 20))

let test_addr_pp () =
  check Alcotest.string "hex format" "0x00090000" (Addr.to_string (Addr.of_int 0x90000))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check int "same seed, same stream" (Rng.word a) (Rng.word b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.word a = Rng.word b then incr same
  done;
  check bool "different seeds diverge" true (!same < 4)

let test_rng_word_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let w = Rng.word r in
    check bool "word in 32-bit range" true (w >= 0 && w <= 0xFFFFFFFF)
  done

let test_rng_int_bound () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check bool "bounded" true (v >= 0 && v < 17)
  done

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_split () =
  let parent = Rng.create 6 in
  let child = Rng.split parent in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.word parent = Rng.word child then incr equal
  done;
  check bool "split streams decorrelated" true (!equal < 4)

(* The stream itself is pinned: the experiments' figures depend on every
   draw, so a change to the generator's arithmetic or state must fail
   here, not only in the Table-1 parity run.  Draws are taken in the
   order listed. *)
let test_rng_stream_pinned () =
  let draw n f = Array.to_list (Array.init n (fun _ -> f ())) in
  let ilist = Alcotest.list int and blist = Alcotest.list bool in
  List.iter
    (fun (seed, words, ints, bools, floats, chances, (child_word, child_int, parent_word)) ->
      let r = Rng.create seed in
      let what s = Printf.sprintf "seed %d: %s" seed s in
      check ilist (what "word") words (draw 3 (fun () -> Rng.word r));
      check ilist (what "int 1000, 7, 2^32") ints
        (List.map (fun bound -> Rng.int r bound) [ 1000; 7; 1 lsl 32 ]);
      check blist (what "bool") bools (draw 4 (fun () -> Rng.bool r));
      check (Alcotest.list (Alcotest.float 0.)) (what "float") floats (draw 2 (fun () -> Rng.float r));
      check blist (what "chance 0.5, 0, 1, 0.25, 0.75") chances
        (List.map (fun p -> Rng.chance r p) [ 0.5; 0.; 1.; 0.25; 0.75 ]);
      let child = Rng.split r in
      let cw = Rng.word child in
      let ci = Rng.int child 100 in
      check (Alcotest.triple int int int) (what "split: child word, child int 100, parent word")
        (child_word, child_int, parent_word) (cw, ci, Rng.word r))
    [
      ( 42,
        [ 168179817; 628154071; 973189845 ],
        [ 366; 4; 3573977795 ],
        [ true; false; true; true ],
        [ 0x1.87656a3f8c3d9p-1; 0x1.c5be13f199e4dp-1 ],
        [ false; false; true; false; true ],
        (458886966, 41, 2829589258) );
      ( 7,
        [ 1275772239; 2196435989; 213923664 ],
        [ 163; 2; 1523451128 ],
        [ false; false; false; false ],
        [ 0x1.d327c95c6cbp-1; 0x1.5c87d83edafc8p-3 ],
        [ false; false; true; false; true ],
        (2548181489, 71, 4018892366) );
    ]

(* Draws allocate nothing on the OCaml heap: the state lives in bytes
   and every step is unboxed; [float] allocates only its result's
   2-word box. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 11 in
  let per_draw f =
    let w0 = Stdlib.Gc.minor_words () in
    let w1 = Stdlib.Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    let w2 = Stdlib.Gc.minor_words () in
    (w2 -. w1 -. (w1 -. w0)) /. 1000.
  in
  List.iter
    (fun (what, expected, f) ->
      check (Alcotest.float 0.) ("minor words per " ^ what) expected (per_draw f))
    [
      ("word", 0., fun () -> ignore (Sys.opaque_identity (Rng.word r)));
      ("int", 0., fun () -> ignore (Sys.opaque_identity (Rng.int r 1000)));
      ("bool", 0., fun () -> ignore (Sys.opaque_identity (Rng.bool r)));
      ("chance", 0., fun () -> ignore (Sys.opaque_identity (Rng.chance r 0.3)));
      ("float", 2., fun () -> ignore (Sys.opaque_identity (Rng.float r)));
    ]

(* --- Bitset --- *)

let test_bitset_basics () =
  let s = Bitset.create 200 in
  check bool "fresh empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 199;
  check bool "mem 0" true (Bitset.mem s 0);
  check bool "mem 63" true (Bitset.mem s 63);
  check bool "mem 199" true (Bitset.mem s 199);
  check bool "not mem 100" false (Bitset.mem s 100);
  check int "count" 3 (Bitset.count s);
  Bitset.remove s 63;
  check bool "removed" false (Bitset.mem s 63);
  check int "count after remove" 2 (Bitset.count s)

let test_bitset_clear_and_copy () =
  let s = Bitset.create 100 in
  Bitset.add s 5;
  let c = Bitset.copy s in
  Bitset.clear s;
  check bool "cleared" true (Bitset.is_empty s);
  check bool "copy unaffected" true (Bitset.mem c 5)

(* The SWAR [count] against a bit-by-bit count, one 62-bit word at a
   time: the empty word, bit 61 alone, all 62 bits, alternating
   patterns and random words, each also as the partial last word of a
   wider set. *)
let test_bitset_swar_count () =
  let naive w =
    let n = ref 0 in
    for b = 0 to 61 do
      if w land (1 lsl b) <> 0 then incr n
    done;
    !n
  in
  let of_word ~offset ~n w =
    let s = Bitset.create n in
    for b = 0 to 61 do
      if w land (1 lsl b) <> 0 && offset + b < n then Bitset.add s (offset + b)
    done;
    s
  in
  let rng = Random.State.make [| 62 |] in
  let random_word () =
    let bits () = Random.State.bits rng in
    (bits () lor (bits () lsl 30) lor (bits () lsl 60)) land ((1 lsl 62) - 1)
  in
  let words =
    [ 0; 1; 1 lsl 61; (1 lsl 62) - 1; 0x1555_5555_5555_5555; 0x2AAA_AAAA_AAAA_AAAA; 1 lsl 56 ]
    @ List.init 500 (fun _ -> random_word ())
  in
  List.iter
    (fun w ->
      check int (Printf.sprintf "count %#x" w) (naive w) (Bitset.count (of_word ~offset:0 ~n:62 w));
      (* the same word as the last of three, cut to 40 members *)
      let cut = w land ((1 lsl 40) - 1) in
      check int
        (Printf.sprintf "count %#x in a partial last word" w)
        (naive cut)
        (Bitset.count (of_word ~offset:124 ~n:164 w)))
    words

(* [sweep] keeps exactly alloc ∩ mark, empties mark, tallies, and hands
   the dropped members to [dead] in increasing order — across bit 61 and
   a partial last word. *)
let test_bitset_sweep () =
  let n = 150 in
  let alloc = Bitset.create n and mark = Bitset.create n in
  List.iter (Bitset.add alloc) [ 0; 5; 61; 62; 100; 123; 124; 149 ];
  List.iter (Bitset.add mark) [ 5; 61; 99; 124 ];
  let counts = { Bitset.kept = 1; dropped = 2 } in
  let dead = ref [] in
  Bitset.sweep ~alloc ~mark counts ~dead:(fun i -> dead := i :: !dead);
  check (Alcotest.list int) "survivors" [ 5; 61; 124 ]
    (List.rev (Bitset.fold (fun acc i -> i :: acc) [] alloc));
  check bool "marks emptied" true (Bitset.is_empty mark);
  check (Alcotest.list int) "dead, ascending" [ 0; 62; 100; 123; 149 ] (List.rev !dead);
  check int "kept added" 4 counts.Bitset.kept;
  check int "dropped added" 7 counts.Bitset.dropped;
  Alcotest.check_raises "universe mismatch" (Invalid_argument "Bitset.sweep: universe mismatch")
    (fun () -> Bitset.sweep ~alloc ~mark:(Bitset.create 10) counts)

let test_bitset_iter_order () =
  let s = Bitset.create 300 in
  List.iter (Bitset.add s) [ 250; 3; 77; 150 ];
  let seen = Bitset.fold (fun acc i -> i :: acc) [] s in
  check (Alcotest.list int) "ascending order" [ 3; 77; 150; 250 ] (List.rev seen)

let test_bitset_union () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  Bitset.add a 1;
  Bitset.add b 2;
  Bitset.union_into ~dst:a b;
  check bool "1 in union" true (Bitset.mem a 1);
  check bool "2 in union" true (Bitset.mem a 2);
  check bool "b unchanged" false (Bitset.mem b 1)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index 10 out of [0,10)")
    (fun () -> Bitset.add s 10)

(* The storage word is 62 bits, so indexes 61/62 and 123/124 sit on
   word boundaries — where the word-wise iterators and kernels have
   their edge cases. *)
let test_bitset_word_boundaries () =
  let s = Bitset.create 125 in
  List.iter (Bitset.add s) [ 61; 62; 123; 124 ];
  check bool "61 member" true (Bitset.mem s 61);
  check bool "62 member" true (Bitset.mem s 62);
  check bool "60 not member" false (Bitset.mem s 60);
  check bool "63 not member" false (Bitset.mem s 63)

let test_bitset_word_iter () =
  let n = 130 in
  let s = Bitset.create n in
  let members = [ 0; 1; 61; 62; 63; 124; 129 ] in
  List.iter (Bitset.add s) members;
  let seen = ref [] in
  Bitset.iter_set s (fun i -> seen := i :: !seen);
  check (Alcotest.list int) "iter_set visits members ascending" members (List.rev !seen);
  (* a full word plus a partial word, all set: every index is visited *)
  let full = Bitset.create 63 in
  for i = 0 to 62 do
    Bitset.add full i
  done;
  let all = ref 0 in
  Bitset.iter_set full (fun _ -> incr all);
  check int "iter_set visits a full word and the partial one" 63 !all;
  (* a visitor that changes the set: what is a member when the walk
     reaches it is visited, in the same word as in a later one *)
  let grow = Bitset.create n in
  List.iter (Bitset.add grow) [ 3; 40; 70 ];
  let seen = ref [] in
  Bitset.iter_set grow (fun i ->
      seen := i :: !seen;
      if i = 3 then begin
        Bitset.add grow 10;
        Bitset.add grow 2;
        Bitset.remove grow 40;
        Bitset.add grow 100
      end);
  check (Alcotest.list int) "iter_set sees members added and removed by the visitor" [ 3; 10; 70; 100 ]
    (List.rev !seen)

(* [set] adds on [true] and removes on [false], idempotently, on both
   sides of the 62-bit word boundaries. *)
let test_bitset_set () =
  let s = Bitset.create 125 in
  List.iter (fun i -> Bitset.set s i true) [ 0; 61; 62; 124 ];
  Bitset.set s 61 true;
  check int "set true adds once" 4 (Bitset.count s);
  check bool "62 member" true (Bitset.mem s 62);
  Bitset.set s 62 false;
  Bitset.set s 62 false;
  Bitset.set s 100 false;
  check bool "set false removes" false (Bitset.mem s 62);
  check bool "61 untouched" true (Bitset.mem s 61);
  check (Alcotest.list int) "members" [ 0; 61; 124 ]
    (List.rev (Bitset.fold (fun acc i -> i :: acc) [] s))

(* --- Segment --- *)

let seg ?(endian = Endian.Little) ?(base = 0x1000) ?(size = 256) () =
  Segment.create ~name:"t" ~kind:Segment.Static_data ~endian ~base:(Addr.of_int base) ~size

let test_segment_byte_access () =
  let s = seg () in
  Segment.write_u8 s (Addr.of_int 0x1000) 0xAB;
  check int "read back" 0xAB (Segment.read_u8 s (Addr.of_int 0x1000));
  check int "rest zero" 0 (Segment.read_u8 s (Addr.of_int 0x1001))

let test_segment_word_little_endian () =
  let s = seg ~endian:Endian.Little () in
  Segment.write_word s (Addr.of_int 0x1000) 0x12345678;
  check int "LSB first" 0x78 (Segment.read_u8 s (Addr.of_int 0x1000));
  check int "MSB last" 0x12 (Segment.read_u8 s (Addr.of_int 0x1003));
  check int "round trip" 0x12345678 (Segment.read_word s (Addr.of_int 0x1000))

let test_segment_word_big_endian () =
  let s = seg ~endian:Endian.Big () in
  Segment.write_word s (Addr.of_int 0x1000) 0x12345678;
  check int "MSB first" 0x12 (Segment.read_u8 s (Addr.of_int 0x1000));
  check int "round trip" 0x12345678 (Segment.read_word s (Addr.of_int 0x1000))

let test_segment_unaligned_word () =
  let s = seg ~endian:Endian.Big () in
  (* The figure-1 phenomenon: two small integers 0x00000009, 0x0000000a
     adjacent in big-endian memory yield 0x00090000 when read at
     offset 2. *)
  Segment.write_word s (Addr.of_int 0x1000) 0x00000009;
  Segment.write_word s (Addr.of_int 0x1004) 0x0000000a;
  check int "halfword concatenation" 0x00090000 (Segment.read_word s (Addr.of_int 0x1002))

let test_segment_bounds () =
  let s = seg () in
  Alcotest.check_raises "word past end"
    (Invalid_argument "Segment t: 4-byte access at 0x000010fd crosses limit") (fun () ->
      ignore (Segment.read_word s (Addr.of_int 0x10FD)))

let test_segment_iter_words () =
  let s = seg () in
  Segment.write_word s (Addr.of_int 0x1000) 1;
  Segment.write_word s (Addr.of_int 0x1004) 2;
  let collected = ref [] in
  Segment.iter_words s ~lo:(Addr.of_int 0x1000) ~hi:(Addr.of_int 0x1008) (fun a v ->
      collected := (a, v) :: !collected);
  check
    (Alcotest.list (Alcotest.pair int int))
    "aligned words" [ (0x1000, 1); (0x1004, 2) ] (List.rev !collected)

let test_segment_iter_words_unaligned () =
  let s = seg () in
  let count alignment =
    let n = ref 0 in
    Segment.iter_words s ~alignment ~lo:(Segment.base s) ~hi:(Segment.limit s) (fun _ _ -> incr n);
    !n
  in
  check int "alignment 4" (256 / 4) (count 4);
  check int "alignment 2" ((256 - 2) / 2) (count 2);
  check int "alignment 1" (256 - 3) (count 1)

(* Clamping [lo] against a segment whose base is not on the alignment
   grid must re-align upward — the old code took [max lo base] and could
   hand the scan loop a misaligned start. *)
let test_segment_iter_words_unaligned_base () =
  let s = seg ~base:0x1001 ~size:64 () in
  let first alignment =
    let r = ref None in
    Segment.iter_words s ~alignment ~lo:(Addr.of_int 0x0FF0) ~hi:(Segment.limit s) (fun a _ ->
        if !r = None then r := Some a);
    !r
  in
  check (Alcotest.option int) "alignment 4 realigns past the base" (Some 0x1004) (first 4);
  check (Alcotest.option int) "alignment 2 realigns past the base" (Some 0x1002) (first 2);
  check (Alcotest.option int) "alignment 1 starts at the base" (Some 0x1001) (first 1);
  let on_grid = ref true in
  Segment.iter_words s ~alignment:4 ~lo:(Addr.of_int 0x0FF0) ~hi:(Segment.limit s) (fun a _ ->
      if a land 3 <> 0 then on_grid := false);
  check bool "every visited address on the absolute grid" true !on_grid;
  check
    (Alcotest.pair int int)
    "clamp_words clamps and realigns" (0x1004, 0x1041)
    (Segment.clamp_words s ~alignment:4 ~lo:(Addr.of_int 0x0FF0) ~hi:(Addr.of_int 0x2000))

(* [iter_words]'s unchecked word loads must agree with the checked
   [read_word] at every byte offset, in both byte orders.  Random bytes
   plus words with the top bit set pin the [Int32] sign extension and the
   mask back to an unsigned 32-bit value. *)
let test_segment_unsafe_word_loads () =
  let rng = Rng.create 0x5E6 in
  List.iter
    (fun endian ->
      let s = seg ~endian ~size:512 () in
      let base = Segment.base s in
      for off = 0 to Segment.size s - 1 do
        Segment.write_u8 s (Addr.add base off) (Rng.int rng 256)
      done;
      List.iteri
        (fun i w -> Segment.write_word s (Addr.add base (64 + (8 * i) + i)) w)
        [ 0x80000000; 0xFFFFFFFF; 0x7FFFFFFF; 0x80000001 ];
      let loaded = Array.make (Segment.size s - 3) (-1) in
      Segment.iter_words s ~alignment:1 ~lo:base ~hi:(Segment.limit s) (fun a v ->
          loaded.(Addr.to_int a - Addr.to_int base) <- v);
      Array.iteri
        (fun off got ->
          let expected = Segment.read_word s (Addr.add base off) in
          if got <> expected then
            Alcotest.failf "%s-endian load at offset %d: 0x%x, read_word 0x%x"
              (Endian.to_string endian) off got expected)
        loaded;
      check int "0x80000000 stays unsigned" 0x80000000 loaded.(64);
      check int "0xFFFFFFFF stays unsigned" 0xFFFFFFFF loaded.(73);
      check int "0x7FFFFFFF unchanged" 0x7FFFFFFF loaded.(82))
    [ Endian.Little; Endian.Big ]

(* At alignments 2 and 4, over random sub-ranges whose ends need not
   sit on the grid, [iter_words] visits exactly the grid addresses from
   [lo] rounded up to the last word ending by [hi], in ascending order,
   and each value is [read_word]'s, in both byte orders. *)
let test_segment_iter_words_subranges () =
  let rng = Rng.create 0x17E2 in
  List.iter
    (fun endian ->
      let s = seg ~endian ~size:256 () in
      let base = Addr.to_int (Segment.base s) in
      for off = 0 to Segment.size s - 1 do
        Segment.write_u8 s (Addr.of_int (base + off)) (Rng.int rng 256)
      done;
      List.iter
        (fun alignment ->
          for _ = 1 to 200 do
            let lo = base + Rng.int rng 256 in
            let hi = lo + Rng.int rng (base + 257 - lo) in
            let first = (lo + alignment - 1) / alignment * alignment in
            let expected =
              List.filter_map
                (fun k ->
                  let a = first + (k * alignment) in
                  if a + 4 <= hi then Some (a, Segment.read_word s (Addr.of_int a)) else None)
                (List.init (256 / alignment + 1) Fun.id)
            in
            let got = ref [] in
            Segment.iter_words s ~alignment ~lo:(Addr.of_int lo) ~hi:(Addr.of_int hi) (fun a v ->
                got := (Addr.to_int a, v) :: !got);
            if List.rev !got <> expected then
              Alcotest.failf "%s-endian, alignment %d, [0x%x, 0x%x): %d words, expected %d"
                (Endian.to_string endian) alignment lo hi (List.length !got)
                (List.length expected)
          done)
        [ 2; 4 ])
    [ Endian.Little; Endian.Big ]

let test_segment_strings () =
  let s = seg () in
  Segment.blit_string s (Addr.of_int 0x1010) "hello";
  check Alcotest.string "read back" "hello" (Segment.read_string s (Addr.of_int 0x1010) ~len:5)

let test_segment_fill () =
  let s = seg () in
  Segment.fill s (Addr.of_int 0x1000) ~len:8 '\xFF';
  check int "filled word" 0xFFFFFFFF (Segment.read_word s (Addr.of_int 0x1000));
  Segment.zero_range s (Addr.of_int 0x1000) ~len:4;
  check int "zeroed" 0 (Segment.read_word s (Addr.of_int 0x1000));
  check int "rest kept" 0xFFFFFFFF (Segment.read_word s (Addr.of_int 0x1004))

(* --- Mem --- *)

let test_mem_map_and_find () =
  let m = Mem.create () in
  let a = Mem.map m ~name:"a" ~kind:Segment.Static_data ~base:(Addr.of_int 0x1000) ~size:0x1000 in
  let b = Mem.map m ~name:"b" ~kind:Segment.Static_data ~base:(Addr.of_int 0x5000) ~size:0x1000 in
  let same seg = function
    | Some found -> found == seg
    | None -> false
  in
  check bool "finds a" true (same a (Mem.find m (Addr.of_int 0x1800)));
  check bool "finds b" true (same b (Mem.find m (Addr.of_int 0x5000)));
  check bool "gap unmapped" true (Mem.find m (Addr.of_int 0x3000) = None);
  check bool "is_mapped" true (Mem.is_mapped m (Addr.of_int 0x1FFF));
  check bool "limit excluded" false (Mem.is_mapped m (Addr.of_int 0x2000))

(* Boundary addresses of the segment map: first byte, limit-1, limit,
   the byte below the base, and the gap between two segments. *)
let test_mem_find_boundaries () =
  let m = Mem.create () in
  let a = Mem.map m ~name:"a" ~kind:Segment.Static_data ~base:(Addr.of_int 0x1000) ~size:0x1000 in
  let b = Mem.map m ~name:"b" ~kind:Segment.Static_data ~base:(Addr.of_int 0x3000) ~size:0x100 in
  let is seg = function
    | Some found -> found == seg
    | None -> false
  in
  check bool "first byte of a" true (is a (Mem.find m (Addr.of_int 0x1000)));
  check bool "last byte of a" true (is a (Mem.find m (Addr.of_int 0x1FFF)));
  check bool "limit of a excluded" true (Mem.find m (Addr.of_int 0x2000) = None);
  check bool "byte below a" true (Mem.find m (Addr.of_int 0x0FFF) = None);
  check bool "gap between a and b" true (Mem.find m (Addr.of_int 0x2800) = None);
  check bool "first byte of b" true (is b (Mem.find m (Addr.of_int 0x3000)));
  check bool "last byte of b" true (is b (Mem.find m (Addr.of_int 0x30FF)));
  check bool "limit of b excluded" true (Mem.find m (Addr.of_int 0x3100) = None)

let test_mem_overlap_rejected () =
  let m = Mem.create () in
  let _ = Mem.map m ~name:"a" ~kind:Segment.Static_data ~base:(Addr.of_int 0x1000) ~size:0x1000 in
  let overlaps () =
    ignore (Mem.map m ~name:"b" ~kind:Segment.Static_data ~base:(Addr.of_int 0x1800) ~size:0x1000)
  in
  check bool "overlap raises" true
    (try
       overlaps ();
       false
     with Invalid_argument _ -> true)

let test_mem_map_anywhere () =
  let m = Mem.create () in
  let _ = Mem.map m ~name:"a" ~kind:Segment.Static_data ~base:(Addr.of_int 0x1000) ~size:0x1000 in
  let b = Mem.map_anywhere m ~name:"b" ~kind:Segment.Static_data ~size:0x800 () in
  check bool "placed clear of a" true (Addr.to_int (Segment.base b) >= 0x2000);
  check bool "registered" true (Mem.is_mapped m (Segment.base b))

let test_mem_read_write () =
  let m = Mem.create ~endian:Endian.Big () in
  let _ = Mem.map m ~name:"a" ~kind:Segment.Static_data ~base:(Addr.of_int 0x1000) ~size:0x100 in
  Mem.write_word m (Addr.of_int 0x1010) 0xDEADBEEF;
  check int "word round trip" 0xDEADBEEF (Mem.read_word m (Addr.of_int 0x1010));
  check int "big endian byte" 0xDE (Mem.read_u8 m (Addr.of_int 0x1010))

let test_mem_unmap () =
  let m = Mem.create () in
  let a = Mem.map m ~name:"a" ~kind:Segment.Static_data ~base:(Addr.of_int 0x1000) ~size:0x100 in
  Mem.unmap m a;
  check bool "gone" false (Mem.is_mapped m (Addr.of_int 0x1000))

(* --- Layout --- *)

let test_layout_presets_valid () =
  Layout.validate (Layout.sbrk_style ());
  Layout.validate (Layout.high_heap ());
  Layout.validate (Layout.mid_heap ())

(* Each fault target arms exactly its own operations: under a plan that
   trips every charge it consults, a commit, a guarded read and a
   guarded write fail iff the target covers them, and the armed queries
   the scan loops consult agree. *)
let test_mem_fault_targets () =
  let outcome target =
    let m = Mem.create () in
    let plan = Mem.Fault.plan ~addr_pred:(fun _ -> true) ~target () in
    Mem.set_fault_plan m (Some plan);
    let a = Addr.of_int 0x10000 in
    let commit =
      try
        Mem.commit m ~addr:a ~bytes:4096;
        false
      with Mem.Commit_failed _ -> true
    in
    let read = Mem.probe_read m a <> None in
    let write = Mem.probe_write m a <> None in
    let tripped = List.length (List.filter Fun.id [ commit; read; write ]) in
    check int "every trip is counted" tripped (Mem.Fault.injected plan);
    (commit, read, write, Mem.read_faults_armed m, Mem.write_faults_armed m)
  in
  let flags = Alcotest.(pair bool (pair bool (pair bool (pair bool bool)))) in
  let nest (c, r, w, ra, wa) = (c, (r, (w, (ra, wa)))) in
  List.iter
    (fun (name, target, expected) -> check flags name (nest expected) (nest (outcome target)))
    [
      ("commits", Mem.Fault.Commits, (true, false, false, false, false));
      ("reads", Mem.Fault.Reads, (false, true, false, true, false));
      ("writes", Mem.Fault.Writes, (false, false, true, false, true));
      ("access", Mem.Fault.Access, (false, true, true, true, true));
    ]

let test_layout_sbrk_low_heap () =
  let l = Layout.sbrk_style () in
  check bool "heap right above data" true
    (Addr.to_int l.Layout.heap_base < 0x100000)

let test_layout_apply () =
  let mem = Mem.create () in
  let l = Layout.high_heap () in
  let text, data, stack = Layout.apply l mem in
  check bool "text kind" true (Segment.kind text = Segment.Text);
  check bool "data kind" true (Segment.kind data = Segment.Static_data);
  check bool "stack kind" true (Segment.kind stack = Segment.Stack);
  check int "stack ends at top" (Addr.to_int l.Layout.stack_top) (Addr.to_int (Segment.limit stack));
  (* heap region must still be free for the collector *)
  check bool "heap region unmapped" false (Mem.is_mapped mem l.Layout.heap_base)

let test_layout_overlap_detected () =
  let bad =
    {
      Layout.text_base = Addr.of_int 0x1000;
      text_size = 0x2000;
      data_base = Addr.of_int 0x2000;
      data_size = 0x1000;
      stack_top = Addr.of_int 0xF0000000;
      stack_size = 0x1000;
      heap_base = Addr.of_int 0x100000;
      heap_max = 0x1000;
    }
  in
  check bool "overlap raises" true
    (try
       Layout.validate bad;
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "vm"
    [
      ( "addr",
        [
          Alcotest.test_case "masking" `Quick test_addr_masking;
          Alcotest.test_case "alignment" `Quick test_addr_alignment;
          Alcotest.test_case "trailing zeros" `Quick test_addr_trailing_zeros;
          Alcotest.test_case "range" `Quick test_addr_range;
          Alcotest.test_case "pp" `Quick test_addr_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "word range" `Quick test_rng_word_range;
          Alcotest.test_case "int bound" `Quick test_rng_int_bound;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "clear and copy" `Quick test_bitset_clear_and_copy;
          Alcotest.test_case "SWAR count" `Quick test_bitset_swar_count;
          Alcotest.test_case "sweep" `Quick test_bitset_sweep;
          Alcotest.test_case "iter order" `Quick test_bitset_iter_order;
          Alcotest.test_case "union" `Quick test_bitset_union;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "word boundaries" `Quick test_bitset_word_boundaries;
          Alcotest.test_case "word-level iterators" `Quick test_bitset_word_iter;
          Alcotest.test_case "set" `Quick test_bitset_set;
        ] );
      ( "segment",
        [
          Alcotest.test_case "byte access" `Quick test_segment_byte_access;
          Alcotest.test_case "little-endian words" `Quick test_segment_word_little_endian;
          Alcotest.test_case "big-endian words" `Quick test_segment_word_big_endian;
          Alcotest.test_case "unaligned word (figure 1)" `Quick test_segment_unaligned_word;
          Alcotest.test_case "bounds" `Quick test_segment_bounds;
          Alcotest.test_case "iter words" `Quick test_segment_iter_words;
          Alcotest.test_case "iter words unaligned" `Quick test_segment_iter_words_unaligned;
          Alcotest.test_case "iter words unaligned base" `Quick test_segment_iter_words_unaligned_base;
          Alcotest.test_case "unsafe word loads match read_word" `Quick
            test_segment_unsafe_word_loads;
          Alcotest.test_case "iter words over sub-ranges" `Quick test_segment_iter_words_subranges;
          Alcotest.test_case "strings" `Quick test_segment_strings;
          Alcotest.test_case "fill" `Quick test_segment_fill;
        ] );
      ( "mem",
        [
          Alcotest.test_case "map and find" `Quick test_mem_map_and_find;
          Alcotest.test_case "find boundaries" `Quick test_mem_find_boundaries;
          Alcotest.test_case "overlap rejected" `Quick test_mem_overlap_rejected;
          Alcotest.test_case "map anywhere" `Quick test_mem_map_anywhere;
          Alcotest.test_case "read write" `Quick test_mem_read_write;
          Alcotest.test_case "unmap" `Quick test_mem_unmap;
          Alcotest.test_case "fault targets" `Quick test_mem_fault_targets;
        ] );
      ( "layout",
        [
          Alcotest.test_case "presets valid" `Quick test_layout_presets_valid;
          Alcotest.test_case "sbrk heap is low" `Quick test_layout_sbrk_low_heap;
          Alcotest.test_case "apply" `Quick test_layout_apply;
          Alcotest.test_case "overlap detected" `Quick test_layout_overlap_detected;
        ] );
    ]
