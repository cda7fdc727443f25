(* Long randomized soak: a chaotic mutator drives every collector mode
   while an OCaml-side model of the root set checks that nothing rooted
   is ever lost and the internal invariants stay intact. *)

open Cgc_vm
module Gc = Cgc.Gc
module Config = Cgc.Config
module Verify = Cgc.Verify
module Generational = Cgc.Generational

let check = Alcotest.check
let bool = Alcotest.bool

type world = {
  gc : Gc.t;
  globals : Segment.t;
  rng : Rng.t;
  (* model: slot index -> object we stored there (0 = empty) *)
  roots_model : int array;
  mutable live_candidates : Addr.t list; (* objects possibly still live *)
}

let n_slots = 64

let make_world ~seed ~config =
  let mem = Mem.create () in
  let globals =
    Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000
  in
  let gc = Gc.create ~config mem ~base:(Addr.of_int 0x400000) ~max_bytes:(8 * 1024 * 1024) () in
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  { gc; globals; rng = Rng.create seed; roots_model = Array.make n_slots 0; live_candidates = [] }

let set_slot w i v =
  Segment.write_word w.globals (Addr.add (Segment.base w.globals) (4 * i)) v;
  w.roots_model.(i) <- v

let random_live w =
  match w.live_candidates with
  | [] -> None
  | l -> Some (List.nth l (Rng.int w.rng (List.length l)))

(* One random mutator step.  Returns [true] when the step was an
   explicit collection (the only moment the post-collection audit's
   stats-vs-heap agreement is guaranteed: an allocation-triggered
   collection is immediately followed by the new object being carved). *)
let step w : bool =
  match Rng.int w.rng 100 with
  | n when n < 45 ->
      (* allocate a small object, sometimes atomic, sometimes finalized *)
      let bytes = 4 + (4 * Rng.int w.rng 12) in
      let pointer_free = Rng.chance w.rng 0.2 in
      let finalizer = if Rng.chance w.rng 0.1 then Some "soak" else None in
      let a = Gc.allocate ~pointer_free ?finalizer w.gc bytes in
      w.live_candidates <- a :: w.live_candidates;
      if Rng.chance w.rng 0.6 then set_slot w (Rng.int w.rng n_slots) (Addr.to_int a);
      false
  | n when n < 50 ->
      (* a large object *)
      let bytes = 3000 + Rng.int w.rng 12000 in
      let a = Gc.allocate w.gc bytes in
      if Rng.chance w.rng 0.8 then set_slot w (Rng.int w.rng n_slots) (Addr.to_int a);
      false
  | n when n < 70 -> (
      (* link two live objects *)
      match (random_live w, random_live w) with
      | Some a, Some b when Gc.is_allocated w.gc a && Gc.is_allocated w.gc b -> (
          match Gc.object_size w.gc a with
          | Some size when size >= 4 ->
              Gc.set_field w.gc a (Rng.int w.rng (size / 4)) (Addr.to_int b);
              false
          | _ -> false)
      | _ -> false)
  | n when n < 85 ->
      (* drop a root *)
      set_slot w (Rng.int w.rng n_slots) 0;
      false
  | n when n < 92 ->
      (* plant a false reference: a random heap-region value *)
      let heap = Gc.heap w.gc in
      let v = Addr.to_int (Cgc.Heap.base heap) + Rng.int w.rng (8 * 1024 * 1024) in
      set_slot w (Rng.int w.rng n_slots) v;
      false
  | n when n < 97 ->
      Gc.collect w.gc;
      true
  | n when n < 99 -> false (* an idle step *)
  | _ ->
      ignore (Gc.trim w.gc);
      false

let assert_rooted_alive w tag =
  Array.iter
    (fun v ->
      if v <> 0 then
        (* a rooted value that names an object must keep it allocated *)
        match Gc.find_object w.gc (Addr.of_int v) with
        | Some _ -> ()
        | None ->
            (* it may be a planted false ref into empty space: fine; but
               it must then not be a previously-live candidate base *)
            if List.exists (fun a -> Addr.to_int a = v) w.live_candidates then begin
              (* rooted object vanished: only legal if it was never
                 reachable at a collection — which cannot happen since
                 the root stood.  Fail loudly. *)
              Alcotest.failf "%s: rooted object 0x%08x was reclaimed" tag v
            end)
    w.roots_model

let soak ~seed ~config ~steps ~tag () =
  let w = make_world ~seed ~config in
  for i = 1 to steps do
    ignore (step w : bool);
    if i mod 500 = 0 then begin
      Gc.collect w.gc;
      assert_rooted_alive w tag;
      let issues = Verify.check w.gc in
      check (Alcotest.list Alcotest.string) (tag ^ ": invariants") [] issues;
      (* keep the candidate list bounded *)
      w.live_candidates <-
        List.filteri (fun i _ -> i < 200) (List.filter (Gc.is_allocated w.gc) w.live_candidates)
    end
  done;
  (* final collection and audit *)
  Gc.collect w.gc;
  check (Alcotest.list Alcotest.string) (tag ^ ": final invariants") [] (Verify.check w.gc);
  ignore (Gc.drain_finalized w.gc);
  check bool (tag ^ ": still functional") true
    (Gc.is_allocated w.gc (Gc.allocate w.gc 8))

let base_config = { Config.default with Config.initial_pages = 8 }

let soak_eager = soak ~seed:101 ~config:base_config ~steps:6000 ~tag:"eager"

(* The grow rung commits one page at a time. *)
let soak_single_page_growth =
  soak ~seed:202 ~config:{ base_config with Config.max_expand_pages = 1 } ~steps:6000
    ~tag:"single-page growth"

let soak_bounded_stack =
  soak ~seed:303
    ~config:{ base_config with Config.mark_stack_limit = Some 32 }
    ~steps:4000 ~tag:"bounded-stack"

let soak_hashed_blacklist =
  soak ~seed:404
    ~config:{ base_config with Config.blacklist_buckets = Some 1024 }
    ~steps:4000 ~tag:"hashed"

let soak_unaligned =
  soak ~seed:505 ~config:{ base_config with Config.alignment = 1 } ~steps:3000 ~tag:"unaligned"

let soak_halfword =
  soak ~seed:909 ~config:{ base_config with Config.alignment = 2 } ~steps:3000 ~tag:"halfword"

let soak_base_only =
  soak ~seed:606
    ~config:{ base_config with Config.interior_pointers = false; valid_displacements = [ 4 ] }
    ~steps:4000 ~tag:"base-only"

(* Short soak with the auditor in the loop: every single mutator step
   is followed by a full invariant check, and every explicit collection
   also gets the stricter post-collection audit.  Catches invariant
   breakage at the step that caused it rather than up to 500 steps
   later. *)
let soak_verified_steps () =
  let w = make_world ~seed:808 ~config:base_config in
  for i = 1 to 800 do
    let explicit_collect = step w in
    let issues = Verify.check w.gc in
    if issues <> [] then
      Alcotest.failf "per-step: invariants broken at step %d: %s" i (String.concat "; " issues);
    if explicit_collect then begin
      let issues = Verify.check_after_collect w.gc in
      if issues <> [] then
        Alcotest.failf "per-step: post-collection invariants broken at step %d: %s" i
          (String.concat "; " issues)
    end
  done;
  assert_rooted_alive w "per-step";
  check (Alcotest.list Alcotest.string) "per-step: final invariants" [] (Verify.check w.gc)

(* Generational soak: random minor/major cadence with barriered writes. *)
let soak_generational () =
  let w = make_world ~seed:707 ~config:base_config in
  Gc.set_auto_collect w.gc false;
  let gen = Generational.create ~promote_after:2 w.gc in
  for i = 1 to 4000 do
    (match Rng.int w.rng 100 with
    | n when n < 55 ->
        let a = Generational.allocate gen (4 + (4 * Rng.int w.rng 8)) in
        w.live_candidates <- a :: w.live_candidates;
        if Rng.chance w.rng 0.5 then set_slot w (Rng.int w.rng n_slots) (Addr.to_int a)
    | n when n < 75 -> (
        match (random_live w, random_live w) with
        | Some a, Some b when Gc.is_allocated w.gc a && Gc.is_allocated w.gc b -> (
            match Gc.object_size w.gc a with
            | Some size when size >= 4 ->
                Generational.set_field gen a (Rng.int w.rng (size / 4)) (Addr.to_int b)
            | _ -> ())
        | _ -> ())
    | n when n < 85 -> set_slot w (Rng.int w.rng n_slots) 0
    | n when n < 97 -> Generational.minor gen
    | _ -> Generational.major gen);
    if i mod 500 = 0 then begin
      Generational.major gen;
      assert_rooted_alive w "generational";
      check (Alcotest.list Alcotest.string) "generational: invariants" [] (Verify.check w.gc);
      w.live_candidates <-
        List.filteri (fun i _ -> i < 200) (List.filter (Gc.is_allocated w.gc) w.live_candidates)
    end
  done;
  Generational.major gen;
  check (Alcotest.list Alcotest.string) "generational: final invariants" [] (Verify.check w.gc)

let () =
  Alcotest.run "soak"
    [
      ( "soak",
        [
          Alcotest.test_case "eager" `Slow soak_eager;
          Alcotest.test_case "single-page growth" `Slow soak_single_page_growth;
          Alcotest.test_case "bounded mark stack" `Slow soak_bounded_stack;
          Alcotest.test_case "hashed blacklist" `Slow soak_hashed_blacklist;
          Alcotest.test_case "unaligned scanning" `Slow soak_unaligned;
          Alcotest.test_case "halfword scanning" `Slow soak_halfword;
          Alcotest.test_case "base-only + displacement" `Slow soak_base_only;
          Alcotest.test_case "generational" `Slow soak_generational;
          Alcotest.test_case "verified every step" `Slow soak_verified_steps;
        ] );
    ]
