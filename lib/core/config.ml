let granule = 4

type large_validity =
  | Anywhere
  | First_page_only

type t = {
  page_size : int;
  interior_pointers : bool;
  valid_displacements : int list;
  large_validity : large_validity;
  alignment : int;
  blacklisting : bool;
  blacklist_buckets : int option;
  blacklist_refresh : bool;
  atomic_on_black_pages : bool;
  avoid_trailing_zeros : int option;
  initial_pages : int;
  max_expand_pages : int;
  space_divisor : int;
  mark_stack_limit : int option;
  relax_blacklist : bool;
}

let default =
  {
    page_size = 4096;
    interior_pointers = true;
    valid_displacements = [];
    large_validity = Anywhere;
    alignment = 4;
    blacklisting = true;
    blacklist_buckets = None;
    blacklist_refresh = true;
    atomic_on_black_pages = true;
    avoid_trailing_zeros = None;
    initial_pages = 64;
    max_expand_pages = 256;
    space_divisor = 3;
    mark_stack_limit = None;
    relax_blacklist = false;
  }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validate t =
  if not (is_power_of_two t.page_size) || t.page_size < 256 then
    invalid_arg "Config: page_size must be a power of two >= 256";
  if t.alignment <> 1 && t.alignment <> 2 && t.alignment <> 4 then
    invalid_arg "Config: alignment must be 1, 2 or 4";
  if t.initial_pages < 1 then invalid_arg "Config: initial_pages must be >= 1";
  if t.max_expand_pages < 1 then invalid_arg "Config: max_expand_pages must be >= 1";
  if t.space_divisor < 1 then invalid_arg "Config: space_divisor must be >= 1";
  List.iter
    (fun d ->
      if d < 0 then invalid_arg "Config: negative displacement";
      if d mod 4 <> 0 then invalid_arg "Config: displacements must be word-aligned")
    t.valid_displacements;
  (match t.avoid_trailing_zeros with
  | Some k when k < 3 || k > 31 ->
      invalid_arg "Config: avoid_trailing_zeros threshold must be in [3,31]"
  | Some _ | None -> ());
  (match t.blacklist_buckets with
  | Some n when n < 1 -> invalid_arg "Config: blacklist_buckets must be >= 1"
  | Some _ | None -> ());
  (match t.mark_stack_limit with
  | Some n when n < 16 -> invalid_arg "Config: mark_stack_limit must be >= 16"
  | Some _ | None -> ())

let max_small_bytes t = t.page_size / 2

(* Bitmask over word-aligned displacements, 62 bits per word: bit
   [d / granule] is set iff a pointer at byte displacement [d] into an
   object is recognized.  Bit 0 (the object base) is always set, mirroring
   "offset 0 is always valid". *)
let displacement_mask t =
  let max_d = List.fold_left max 0 t.valid_displacements in
  let n_bits = (max_d / granule) + 1 in
  let words = Array.make ((n_bits + 61) / 62) 0 in
  let set d =
    let i = d / granule in
    words.(i / 62) <- words.(i / 62) lor (1 lsl (i mod 62))
  in
  set 0;
  List.iter set t.valid_displacements;
  words

let[@inline] displacement_in_mask mask d =
  d mod granule = 0
  &&
  let i = d / granule in
  let w = i / 62 in
  w < Array.length mask && mask.(w) land (1 lsl (i mod 62)) <> 0

let pp ppf t =
  Format.fprintf ppf
    "@[<v>page_size=%d interior=%b displacements=[%s] large=%s align=%d@,\
     blacklist=%b refresh=%b atomic_on_black=%b avoid_tz=%s@,\
     initial_pages=%d max_expand=%d divisor=%d relax_blacklist=%b@]"
    t.page_size t.interior_pointers
    (String.concat ";" (List.map string_of_int t.valid_displacements))
    (match t.large_validity with
    | Anywhere -> "anywhere"
    | First_page_only -> "first-page")
    t.alignment t.blacklisting t.blacklist_refresh t.atomic_on_black_pages
    (match t.avoid_trailing_zeros with
    | None -> "off"
    | Some k -> string_of_int k)
    t.initial_pages t.max_expand_pages t.space_divisor t.relax_blacklist
