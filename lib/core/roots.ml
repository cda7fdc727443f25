open Cgc_vm

type range = {
  lo : Addr.t;
  hi : Addr.t;
  label : string;
}

type source =
  | Static_range of range
  | Dynamic_ranges of string * (unit -> range list)
  | Register_file of string * (unit -> int array)

type t = {
  mutable sources : source list; (* reversed registration order *)
  mutable excluded : range list;
}

let create () = { sources = []; excluded = [] }
let add t s = t.sources <- s :: t.sources

let clear t =
  t.sources <- [];
  t.excluded <- []

let sources t = List.rev t.sources
let exclude t ~lo ~hi ~label = t.excluded <- { lo; hi; label } :: t.excluded

(* Subtract one excluded range from a root range (0, 1 or 2 pieces). *)
let subtract r ex =
  let open Addr in
  if to_int ex.hi <= to_int r.lo || to_int ex.lo >= to_int r.hi then [ r ]
  else begin
    let before =
      if to_int ex.lo > to_int r.lo then [ { r with hi = ex.lo } ] else []
    in
    let after = if to_int ex.hi < to_int r.hi then [ { r with lo = ex.hi } ] else [] in
    before @ after
  end

let apply_exclusions t r =
  List.fold_left (fun pieces ex -> List.concat_map (fun p -> subtract p ex) pieces) [ r ] t.excluded

let current_ranges t =
  List.concat_map
    (fun s ->
      let raw =
        match s with
        | Static_range r -> [ r ]
        | Dynamic_ranges (_, f) -> f ()
        | Register_file _ -> []
      in
      List.concat_map (apply_exclusions t) raw)
    (sources t)

let current_registers t =
  List.filter_map
    (fun s ->
      match s with
      | Register_file (label, f) -> Some (label, f ())
      | Static_range _ | Dynamic_ranges _ -> None)
    (sources t)

let pp ppf t =
  Format.fprintf ppf "@[<v>roots:@,";
  List.iter
    (fun s ->
      match s with
      | Static_range r -> Format.fprintf ppf "  static %s %a..%a@," r.label Addr.pp r.lo Addr.pp r.hi
      | Dynamic_ranges (label, _) -> Format.fprintf ppf "  dynamic %s@," label
      | Register_file (label, _) -> Format.fprintf ppf "  registers %s@," label)
    (sources t);
  Format.fprintf ppf "@]"
