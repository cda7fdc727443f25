open Cgc_vm

type representation =
  | Exact
  | Hashed of int

type t = {
  refresh : bool;
  representation : representation;
  hash_buckets : int;  (* 0 = exact; avoids a variant match per [note] *)
  n_pages : int;
  mutable current : Bitset.t;
  mutable previous : Bitset.t;
  mutable ops : int;
  mutable overridden : int;
}

(* Fibonacci hashing spreads consecutive page numbers across buckets. *)
let[@inline] bucket_of t page =
  if t.hash_buckets = 0 then page else page * 2654435761 land 0x3FFFFFFF mod t.hash_buckets

(* Read-only geometry, so static analyses (the starvation predictor)
   can reproduce the page -> bucket mapping without a live blacklist. *)
type geometry = {
  g_representation : representation;
  g_n_pages : int;
  g_refresh : bool;
}

let geometry t =
  { g_representation = t.representation; g_n_pages = t.n_pages; g_refresh = t.refresh }

let bucket g page =
  match g.g_representation with
  | Exact -> page
  | Hashed buckets -> page * 2654435761 land 0x3FFFFFFF mod buckets

let create ?(representation = Exact) ~n_pages ~refresh () =
  let universe =
    match representation with
    | Exact -> n_pages
    | Hashed buckets ->
        if buckets < 1 then invalid_arg "Blacklist.create: need at least one bucket";
        buckets
  in
  {
    refresh;
    representation;
    hash_buckets = (match representation with Exact -> 0 | Hashed buckets -> buckets);
    n_pages;
    current = Bitset.create universe;
    previous = Bitset.create universe;
    ops = 0;
    overridden = 0;
  }

let representation t = t.representation

let note t page =
  t.ops <- t.ops + 1;
  Bitset.add t.current (bucket_of t page)

let is_black t page =
  let b = bucket_of t page in
  Bitset.mem t.current b || Bitset.mem t.previous b

let begin_cycle t =
  if t.refresh then begin
    t.ops <- t.ops + 1;
    let old = t.previous in
    t.previous <- t.current;
    Bitset.clear old;
    t.current <- old
  end

let count t =
  match t.representation with
  | Exact ->
      let union = Bitset.copy t.current in
      Bitset.union_into ~dst:union t.previous;
      Bitset.count union
  | Hashed _ ->
      let n = ref 0 in
      for page = 0 to t.n_pages - 1 do
        if is_black t page then incr n
      done;
      !n

let ops t = t.ops
let note_override t = t.overridden <- t.overridden + 1
let overridden t = t.overridden

let iter f t =
  match t.representation with
  | Exact ->
      let union = Bitset.copy t.current in
      Bitset.union_into ~dst:union t.previous;
      Bitset.iter f union
  | Hashed _ ->
      for page = 0 to t.n_pages - 1 do
        if is_black t page then f page
      done

let pp ppf t =
  Format.fprintf ppf "blacklist: %d pages (%d ops%s)" (count t) t.ops
    (if t.overridden > 0 then Format.sprintf ", %d overridden" t.overridden else "")
