open Cgc_vm
module Gc = Cgc.Gc
module Config = Cgc.Config
module Type_desc = Cgc.Type_desc
module Precise = Cgc.Precise

(* --- the typed object repertoire --- *)

type kind = Cons | Link_cell | Blob | Record | Large_atomic | Large_array

let record_desc =
  Type_desc.make ~name:"record" ~size_bytes:40 ~pointer_offsets:[ 8; 24 ]

let blob_desc = Type_desc.atomic ~name:"blob" ~size_bytes:24
let large_atomic_desc = Type_desc.atomic ~name:"large-blob" ~size_bytes:12288

let large_array_desc =
  Type_desc.make ~name:"large-array" ~size_bytes:9216 ~pointer_offsets:[ 0; 4; 8; 12 ]

let desc_of_kind = function
  | Cons -> Type_desc.cons
  | Link_cell -> Type_desc.link_cell
  | Blob -> blob_desc
  | Record -> record_desc
  | Large_atomic -> large_atomic_desc
  | Large_array -> large_array_desc

let n_pointer_fields k = Array.length (desc_of_kind k).Type_desc.pointer_offsets

(* --- the trace: a pure, seeded op sequence over model object ids --- *)

type op =
  | Alloc of { id : int; kind : kind; rooted : bool; attach : (int * int) option }
  | Link of { src : int; field : int; dst : int }
  | Unlink of { src : int; field : int }
  | Unroot of int
  | Reroot of int
  | Read of { src : int; word : int }
  | Write_scalar of { src : int; word : int; value : int }
  | Collect
  | Idle
  | Trim

let max_roots = 48

(* Heap-looking scalar values are drawn from the collectors' heap
   range: the misidentification seed a conservative scan retains and an
   exact pointer map ignores. *)
let heap_base = 0x400000
let heap_span = (8 * 1024 * 1024) - 8

let scalar_word rng kind =
  let d = desc_of_kind kind in
  let nwords = d.Type_desc.size_bytes / 4 in
  let is_ptr w = Array.exists (fun off -> off / 4 = w) d.Type_desc.pointer_offsets in
  let rec go tries =
    if tries = 0 then None
    else
      let w = Rng.int rng nwords in
      if is_ptr w then go (tries - 1) else Some w
  in
  go 8

let trace ~seed ~steps =
  let rng = Rng.create seed in
  let cap = steps + 1 in
  let kind_of = Array.make cap Cons in
  let fields = Array.make cap [||] in
  let rooted = Array.make cap false in
  let dead = Array.make cap false in
  let n = ref 0 in
  let live_set () =
    let live = Array.make (max 1 !n) false in
    let rec visit i =
      if i < !n && (not dead.(i)) && not live.(i) then begin
        live.(i) <- true;
        Array.iter (function Some j -> visit j | None -> ()) fields.(i)
      end
    in
    for i = 0 to !n - 1 do
      if rooted.(i) && not dead.(i) then visit i
    done;
    live
  in
  let pick pred =
    let live = live_set () in
    let acc = ref [] and len = ref 0 in
    for i = !n - 1 downto 0 do
      if live.(i) && pred i then begin
        acc := i :: !acc;
        incr len
      end
    done;
    if !len = 0 then None else Some (List.nth !acc (Rng.int rng !len))
  in
  let root_count () =
    let c = ref 0 in
    for i = 0 to !n - 1 do
      if rooted.(i) && not dead.(i) then incr c
    done;
    !c
  in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  for _ = 1 to steps do
    let r = Rng.int rng 100 in
    if r < 30 && !n < cap then begin
      (* allocate: attached to a live parent, rooted, or deliberately
         dropped on the floor as next-collect garbage *)
      let kind =
        match Rng.int rng 100 with
        | x when x < 30 -> Cons
        | x when x < 45 -> Link_cell
        | x when x < 65 -> Blob
        | x when x < 85 -> Record
        | x when x < 93 -> Large_atomic
        | _ -> Large_array
      in
      let id = !n in
      incr n;
      kind_of.(id) <- kind;
      fields.(id) <- Array.make (n_pointer_fields kind) None;
      let parent =
        if Rng.chance rng 0.6 then pick (fun i -> n_pointer_fields kind_of.(i) > 0) else None
      in
      match parent with
      | Some p ->
          let f = Rng.int rng (n_pointer_fields kind_of.(p)) in
          fields.(p).(f) <- Some id;
          emit (Alloc { id; kind; rooted = false; attach = Some (p, f) })
      | None ->
          let root = root_count () < max_roots && not (Rng.chance rng 0.1) in
          rooted.(id) <- root;
          emit (Alloc { id; kind; rooted = root; attach = None })
    end
    else if r < 45 then begin
      (* link / unlink between live objects *)
      match pick (fun i -> n_pointer_fields kind_of.(i) > 0) with
      | None -> ()
      | Some src ->
          let f = Rng.int rng (n_pointer_fields kind_of.(src)) in
          if Rng.chance rng 0.7 then begin
            match pick (fun _ -> true) with
            | None -> ()
            | Some dst ->
                fields.(src).(f) <- Some dst;
                emit (Link { src; field = f; dst })
          end
          else if fields.(src).(f) <> None then begin
            fields.(src).(f) <- None;
            emit (Unlink { src; field = f })
          end
    end
    else if r < 55 then begin
      (* root churn: drop a whole subgraph, or re-anchor a live object *)
      if Rng.chance rng 0.5 then begin
        match pick (fun i -> rooted.(i)) with
        | None -> ()
        | Some i ->
            rooted.(i) <- false;
            emit (Unroot i)
      end
      else
        match pick (fun i -> not rooted.(i)) with
        | None -> ()
        | Some i ->
            if root_count () < max_roots then begin
              rooted.(i) <- true;
              emit (Reroot i)
            end
    end
    else if r < 75 then begin
      match pick (fun _ -> true) with
      | None -> ()
      | Some src ->
          let nwords = (desc_of_kind kind_of.(src)).Type_desc.size_bytes / 4 in
          emit (Read { src; word = Rng.int rng nwords })
    end
    else if r < 85 then begin
      match pick (fun i -> scalar_word rng kind_of.(i) <> None) with
      | None -> ()
      | Some src -> (
          match scalar_word rng kind_of.(src) with
          | None -> ()
          | Some word ->
              let value =
                if Rng.chance rng 0.5 then heap_base + Rng.int rng heap_span
                else Rng.int rng 0x10000
              in
              emit (Write_scalar { src; word; value }))
    end
    else if r < 93 then begin
      (* the model's collect: everything unreachable is garbage from
         here on and is never referenced by a later op *)
      let live = live_set () in
      for i = 0 to !n - 1 do
        if not live.(i) then dead.(i) <- true
      done;
      emit Collect
    end
    else if r < 97 then emit Idle
    else emit Trim
  done;
  Array.of_list (List.rev !ops)

(* --- backends and the differential session --- *)

type backend = {
  label : string;
  alloc : Type_desc.t -> Addr.t;
  read : Addr.t -> int -> int;
  write : Addr.t -> int -> int -> unit;
  is_alloc : Addr.t -> bool;
  set_root : int -> Addr.t option -> unit;
  collect : unit -> [ `Completed | `Aborted ];
  trim : unit -> unit;
  live_objects : unit -> int;
}

type side = {
  backend : backend;
  addrs : Addr.t option array; (* object id -> current address; None = unmapped *)
}

type session = {
  precise : side;
  twin : side;
  kind_of : kind array;
  n_ids : int;
  mutable twin_ooms : int;
  mutable issues : string list;
  mutable last_retention : (int * int) option;
  mutable collects_completed : int;
  mutable collects_aborted : int;
}

let field_word kind f = (desc_of_kind kind).Type_desc.pointer_offsets.(f) / 4

(* Apply one op to one side, with apply-if-mapped semantics: an op
   whose endpoints never materialized on this side (an earlier alloc
   failed, or the object was reclaimed) is a no-op, so the applied
   links and roots on the fault-bearing side are always a subset of the
   twin's — the soundness precondition of the retention comparison. *)
let apply session side op =
  match op with
  | Alloc { id; kind; rooted; attach } ->
      let a = side.backend.alloc (desc_of_kind kind) in
      (* The attach store runs {e before} the id is published: if it
         faults, this side never maps the object (it is unreferenced
         garbage, swept at the next collect), matching the twin which
         skips the whole lost op.  Publishing first would let later
         [Link]/[Reroot] ops resurrect an object the twin never saw. *)
      (match attach with
      | None -> ()
      | Some (p, f) -> (
          match side.addrs.(p) with
          | Some pa -> side.backend.write pa (field_word session.kind_of.(p) f) (Addr.to_int a)
          | None -> ()));
      side.addrs.(id) <- Some a;
      if rooted then side.backend.set_root id (Some a)
  | Link { src; field; dst } -> (
      match (side.addrs.(src), side.addrs.(dst)) with
      | Some sa, Some da ->
          side.backend.write sa (field_word session.kind_of.(src) field) (Addr.to_int da)
      | _ -> ())
  | Unlink { src; field } -> (
      match side.addrs.(src) with
      | Some sa -> side.backend.write sa (field_word session.kind_of.(src) field) 0
      | None -> ())
  | Unroot id -> side.backend.set_root id None
  | Reroot id -> (
      match side.addrs.(id) with
      | Some a -> side.backend.set_root id (Some a)
      | None -> ())
  | Read { src; word } -> (
      match side.addrs.(src) with
      | Some a -> ignore (side.backend.read a word : int)
      | None -> ())
  | Write_scalar { src; word; value } -> (
      match side.addrs.(src) with
      | Some a -> side.backend.write a word value
      | None -> ())
  | Idle -> ()
  | Trim -> side.backend.trim ()
  | Collect -> assert false (* handled by [step]: the two sides synchronize *)

let prune side n =
  for id = 0 to n - 1 do
    match side.addrs.(id) with
    | Some a when not (side.backend.is_alloc a) ->
        side.addrs.(id) <- None;
        side.backend.set_root id None
    | _ -> ()
  done

let step session op =
  match op with
  | Collect ->
      let pres = session.precise.backend.collect () in
      (try ignore (session.twin.backend.collect ())
       with Gc.Out_of_memory _ -> session.twin_ooms <- session.twin_ooms + 1);
      (match pres with
      | `Aborted ->
          (* an aborted exact mark frees nothing; retention is only
             comparable at the next completed collect *)
          session.collects_aborted <- session.collects_aborted + 1;
          `Aborted
      | `Completed ->
          session.collects_completed <- session.collects_completed + 1;
          prune session.precise session.n_ids;
          prune session.twin session.n_ids;
          let pl = session.precise.backend.live_objects () in
          let cl = session.twin.backend.live_objects () in
          session.last_retention <- Some (pl, cl);
          if session.twin_ooms = 0 && pl > cl then
            session.issues <-
              Printf.sprintf
                "precise retention %d exceeds conservative retention %d after collect %d" pl cl
                session.collects_completed
              :: session.issues;
          `Ok)
  | _ -> (
      let pres =
        try
          apply session session.precise op;
          `Ok
        with
        | Gc.Out_of_memory _ -> `Oom
        | Mem.Read_fault _ -> `Read_fault
        | Mem.Write_fault _ -> `Write_fault
      in
      (* The twin replays the trace {e as executed}, not as intended: an
         op the faulting side lost (a store that never landed, an
         allocation that never happened) is skipped on the twin too.
         Otherwise a lost unlink would leave the precise heap holding an
         edge the twin dropped — mutator-level divergence masquerading
         as collector over-retention.  Skipping is always conservative
         for the comparison: the twin can only over-retain relative to
         the precise side's executed trace.  (The twin itself never has
         a fault plan armed; only allocation pressure can stop it, which
         suspends the comparison for the rest of the session.) *)
      (match pres with
      | `Ok -> (
          try apply session session.twin op
          with Gc.Out_of_memory _ -> session.twin_ooms <- session.twin_ooms + 1)
      | `Oom | `Read_fault | `Write_fault | `Aborted -> ());
      pres)

let issues session = List.rev session.issues
let last_retention session = session.last_retention
let twin_ooms session = session.twin_ooms
let collects_completed session = session.collects_completed
let collects_aborted session = session.collects_aborted

(* --- wiring the two sides --- *)

let precise_backend p roots =
  let gc = Precise.gc p in
  {
    label = "precise";
    alloc = (fun desc -> Precise.allocate p desc);
    read = (fun a w -> Gc.get_field gc a w);
    write = (fun a w v -> Gc.set_field gc a w v);
    is_alloc = Gc.is_allocated gc;
    set_root = (fun id v -> roots.(id) <- v);
    collect =
      (fun () ->
        try
          Precise.collect p;
          `Completed
        with Precise.Mark_aborted -> `Aborted);
    trim = (fun () -> ignore (Gc.trim gc : int));
    live_objects = (fun () -> Precise.live_objects p);
  }

let twin_backend ~config ~n_ids () =
  let mem = Mem.create () in
  let size = max 0x1000 (4 * (n_ids + 1)) in
  let globals =
    Mem.map mem ~name:"twin-globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size
  in
  (* the twin is deliberately plain: no fault plan — the conservative
     reference the precise side under chaos is measured against *)
  let gc =
    Gc.create ~config mem ~base:(Addr.of_int heap_base) ~max_bytes:(8 * 1024 * 1024) ()
  in
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals)
    ~label:"twin-globals";
  {
    label = "conservative-twin";
    alloc =
      (fun desc ->
        Gc.allocate ~pointer_free:(Type_desc.is_atomic desc) gc desc.Type_desc.size_bytes);
    read = (fun a w -> Gc.get_field gc a w);
    write = (fun a w v -> Gc.set_field gc a w v);
    is_alloc = Gc.is_allocated gc;
    set_root =
      (fun id v ->
        let word = match v with Some a -> Addr.to_int a | None -> 0 in
        Segment.write_word globals (Addr.add (Segment.base globals) (4 * id)) word);
    collect =
      (fun () ->
        Gc.collect gc;
        `Completed);
    trim = (fun () -> ignore (Gc.trim gc : int));
    live_objects = (fun () -> (Gc.stats gc).Cgc.Stats.live_objects);
  }

let kinds_of_trace ops cap =
  let kind_of = Array.make cap Cons in
  Array.iter
    (function Alloc { id; kind; _ } -> kind_of.(id) <- kind | _ -> ())
    ops;
  kind_of

let make_session ~config p ops =
  let n_ids =
    Array.fold_left
      (fun acc op -> match op with Alloc { id; _ } -> max acc (id + 1) | _ -> acc)
      0 ops
  in
  let n_ids = max 1 n_ids in
  let roots = Array.make n_ids None in
  Precise.add_root_provider p (fun () ->
      Array.fold_right (fun v acc -> match v with Some a -> a :: acc | None -> acc) roots []);
  {
    precise = { backend = precise_backend p roots; addrs = Array.make n_ids None };
    twin = { backend = twin_backend ~config ~n_ids (); addrs = Array.make n_ids None };
    kind_of = kinds_of_trace ops n_ids;
    n_ids;
    twin_ooms = 0;
    issues = [];
    last_retention = None;
    collects_completed = 0;
    collects_aborted = 0;
  }
