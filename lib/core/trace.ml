open Cgc_vm

type step =
  | Root of { label : string; at : Addr.t option; value : int }
  | Heap_word of { obj : Addr.t; at : Addr.t; value : int }

type chain = step list

(* A provenance mark: like Mark.run but with its own visited table (the
   heap's mark bits are left alone) and a parent record per object.  It
   reads each object as the kernel does, by its page's layout. *)
let provenance gc =
  let heap = Gc.heap gc in
  let config = Gc.config gc in
  let mem = Gc.mem gc in
  let roots = Gc.Internal.roots gc in
  let visited : (Addr.t, step) Hashtbl.t = Hashtbl.create 256 in
  let stack = ref [] in
  let consider step value =
    match Mark.classify heap config value with
    | Mark.Valid { base; page = _ } ->
        if not (Hashtbl.mem visited base) then begin
          Hashtbl.add visited base (step value);
          stack := base :: !stack
        end
    | Mark.False_in_heap _ | Mark.Outside -> ()
  in
  let scan_object base =
    let word at value = consider (fun v -> Heap_word { obj = base; at; value = v }) value in
    match Heap.object_layout heap base with
    | size, Page.Conservative ->
        Segment.iter_words (Heap.segment heap) ~alignment:config.Config.alignment ~lo:base
          ~hi:(Addr.add base size) word
    | _, Page.Pointer_free -> ()
    | _, Page.Typed desc ->
        Array.iter
          (fun off ->
            let at = Addr.add base off in
            word at (Segment.read_word (Heap.segment heap) at))
          desc.Type_desc.pointer_offsets
  in
  let drain () =
    let rec go () =
      match !stack with
      | [] -> ()
      | base :: rest ->
          stack := rest;
          scan_object base;
          go ()
    in
    go ()
  in
  List.iter
    (fun (label, values) ->
      Array.iter (fun v -> consider (fun value -> Root { label; at = None; value }) v) values;
      drain ())
    (Roots.current_registers roots);
  List.iter
    (fun { Roots.lo; hi; label } ->
      (match Mem.find mem lo with
      | None -> ()
      | Some seg ->
          Segment.iter_words seg ~alignment:config.Config.alignment ~lo ~hi (fun at value ->
              consider (fun v -> Root { label; at = Some at; value = v }) value));
      drain ())
    (Roots.current_ranges roots);
  visited

let chain_of visited base =
  let rec go acc base guard =
    if guard = 0 then acc
    else
      match Hashtbl.find_opt visited base with
      | None -> acc
      | Some (Root _ as step) -> step :: acc
      | Some (Heap_word { obj; _ } as step) -> go (step :: acc) obj (guard - 1)
  in
  go [] base 10_000

let why_live gc addr =
  match Gc.find_object gc addr with
  | None -> None
  | Some base ->
      let visited = provenance gc in
      if Hashtbl.mem visited base then Some (chain_of visited base) else None

let retained_by gc addrs =
  let visited = provenance gc in
  List.filter_map
    (fun addr ->
      match Gc.find_object gc addr with
      | Some base when Hashtbl.mem visited base -> Some (addr, chain_of visited base)
      | Some _ | None -> None)
    addrs

let reached gc = Hashtbl.fold (fun base _ acc -> base :: acc) (provenance gc) []

let pp_step ppf = function
  | Root { label; at = Some at; value } ->
      Format.fprintf ppf "root %s at %a holds 0x%08x" label Addr.pp at value
  | Root { label; at = None; value } -> Format.fprintf ppf "register root %s holds 0x%08x" label value
  | Heap_word { obj; at; value } ->
      Format.fprintf ppf "object %a word at %a holds 0x%08x" Addr.pp obj Addr.pp at value

let pp_chain ppf chain =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i step -> Format.fprintf ppf "%s%a@," (String.make (2 * i) ' ') pp_step step)
    chain;
  Format.fprintf ppf "@]"
