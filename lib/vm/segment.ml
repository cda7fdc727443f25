type kind =
  | Text
  | Static_data
  | Stack
  | Heap
  | Other of string

type t = {
  name : string;
  kind : kind;
  endian : Endian.t;
  base : Addr.t;
  bytes : Bytes.t;
}

let create ~name ~kind ~endian ~base ~size =
  if size <= 0 then invalid_arg "Segment.create: size must be positive";
  if Addr.to_int base + size > Addr.space_size then
    invalid_arg "Segment.create: segment exceeds the 32-bit address space";
  { name; kind; endian; base; bytes = Bytes.make size '\000' }

let name t = t.name
let kind t = t.kind
let endian t = t.endian
let base t = t.base
let size t = Bytes.length t.bytes
let limit t = Addr.add t.base (size t)
let contains t a = Addr.in_range a ~lo:t.base ~hi:(limit t)

let offset t a =
  let off = Addr.diff a t.base in
  if off < 0 || off >= size t then
    invalid_arg
      (Printf.sprintf "Segment %s: address %s out of [%s,%s)" t.name (Addr.to_string a)
         (Addr.to_string t.base)
         (Addr.to_string (limit t)));
  off

let read_u8 t a = Char.code (Bytes.get t.bytes (offset t a))
let write_u8 t a v = Bytes.set t.bytes (offset t a) (Char.chr (v land 0xFF))

let check_span t a n =
  let off = offset t a in
  if off + n > size t then
    invalid_arg (Printf.sprintf "Segment %s: %d-byte access at %s crosses limit" t.name n (Addr.to_string a));
  off

let read_word t a =
  let off = check_span t a 4 in
  let v =
    match t.endian with
    | Endian.Little -> Bytes.get_int32_le t.bytes off
    | Endian.Big -> Bytes.get_int32_be t.bytes off
  in
  Int32.to_int v land 0xFFFFFFFF

let write_word t a v =
  let off = check_span t a 4 in
  let v = Int32.of_int (v land 0xFFFFFFFF) in
  match t.endian with
  | Endian.Little -> Bytes.set_int32_le t.bytes off v
  | Endian.Big -> Bytes.set_int32_be t.bytes off v

let fill t a ~len c =
  let off = check_span t a len in
  Bytes.fill t.bytes off len c

let zero_range t a ~len = fill t a ~len '\000'

let blit_string t a s =
  let off = check_span t a (String.length s) in
  Bytes.blit_string s 0 t.bytes off (String.length s)

let read_string t a ~len =
  let off = check_span t a len in
  Bytes.sub_string t.bytes off len

(* --- conservative-scan fast path ---------------------------------- *)

(* Unchecked 32-bit reads: one unaligned 32-bit load per word, byte-
   swapped when the segment's byte order differs from the host's, then
   masked back to the unsigned word (the load sign-extends through
   [Int32]).  [iter_words] validates the whole [lo, hi) range once (see
   [clamp_words]) and then touches every word without per-access bounds
   checks; native code keeps the [int32] unboxed. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] unsafe_word_le bytes off =
  let v = get32u bytes off in
  let v = if Sys.big_endian then bswap32 v else v in
  Int32.to_int v land 0xFFFF_FFFF

let[@inline] unsafe_word_be bytes off =
  let v = get32u bytes off in
  let v = if Sys.big_endian then v else bswap32 v in
  Int32.to_int v land 0xFFFF_FFFF

let unsafe_bytes t = t.bytes

(* The single bounds check of a scan: clamp [lo, hi) to the segment and
   re-align [lo] upward afterwards, so that a clamp against an unaligned
   segment base can never yield word reads off the requested alignment
   grid (the grid is absolute: addresses congruent to 0 mod alignment). *)
let clamp_words t ~alignment ~lo ~hi =
  if alignment <> 1 && alignment <> 2 && alignment <> 4 then
    invalid_arg "Segment.clamp_words: alignment must be 1, 2 or 4";
  let lo = max (Addr.to_int lo) (Addr.to_int t.base) in
  let lo = Addr.to_int (Addr.align_up (Addr.of_int lo) alignment) in
  let hi = min (Addr.to_int hi) (Addr.to_int (limit t)) in
  (lo, hi)

let iter_words t ?(alignment = 4) ~lo ~hi f =
  let lo, hi = clamp_words t ~alignment ~lo ~hi in
  (* Hot path of conservative scanning: read straight out of the backing
     bytes without re-validating each address. *)
  let bytes = t.bytes in
  let base = Addr.to_int t.base in
  let is_little = Endian.equal t.endian Endian.Little in
  let a = ref lo in
  while !a + 4 <= hi do
    let off = !a - base in
    let v = if is_little then unsafe_word_le bytes off else unsafe_word_be bytes off in
    f !a v;
    a := !a + alignment
  done

let pp_kind ppf = function
  | Text -> Format.pp_print_string ppf "text"
  | Static_data -> Format.pp_print_string ppf "data"
  | Stack -> Format.pp_print_string ppf "stack"
  | Heap -> Format.pp_print_string ppf "heap"
  | Other s -> Format.pp_print_string ppf s

let pp ppf t =
  Format.fprintf ppf "%s[%a %s-endian %a..%a %d bytes]" t.name pp_kind t.kind
    (Endian.to_string t.endian) Addr.pp t.base Addr.pp (limit t) (size t)
