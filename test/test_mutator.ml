(* Unit tests for the machine model and the object builders. *)

open Cgc_vm
module Machine = Cgc_mutator.Machine
module Builder = Cgc_mutator.Builder
module Gc = Cgc.Gc

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let make_env ?machine_config ?(heap_kb = 1024) () =
  let mem = Mem.create () in
  let stack = Mem.map mem ~name:"stack" ~kind:Segment.Stack ~base:(Addr.of_int 0xE0000000) ~size:0x10000 in
  let config = { Cgc.Config.default with Cgc.Config.initial_pages = 8 } in
  let gc = Gc.create ~config mem ~base:(Addr.of_int 0x400000) ~max_bytes:(heap_kb * 1024) () in
  let machine = Machine.create ?config:machine_config mem ~stack ~gc in
  (mem, stack, gc, machine)

(* --- machine: stack discipline --- *)

let test_stack_grows_down () =
  let _, _, _, m = make_env () in
  let top = Machine.stack_pointer m in
  check int "starts at base" (Addr.to_int (Machine.stack_base m)) (Addr.to_int top);
  Machine.call m ~slots:4 (fun _ ->
      check bool "sp moved down" true (Addr.to_int (Machine.stack_pointer m) < Addr.to_int top));
  check int "sp restored" (Addr.to_int top) (Addr.to_int (Machine.stack_pointer m))

let test_frame_size_includes_padding () =
  let config = { Machine.default_config with Machine.frame_padding = 6 } in
  let _, _, _, m = make_env ~machine_config:config () in
  let top = Machine.stack_pointer m in
  Machine.call m ~slots:4 (fun _ ->
      check int "frame is slots+padding words" ((4 + 6) * 4)
        (Addr.diff top (Machine.stack_pointer m)))

let test_locals_read_write () =
  let _, _, _, m = make_env () in
  Machine.call m ~slots:3 (fun fr ->
      Machine.set_local fr 0 111;
      Machine.set_local fr 2 333;
      check int "local 0" 111 (Machine.get_local fr 0);
      check int "local 2" 333 (Machine.get_local fr 2);
      check bool "slot addresses distinct" true
        (Addr.to_int (Machine.local_addr fr 0) <> Addr.to_int (Machine.local_addr fr 2)))

let test_local_bounds () =
  let _, _, _, m = make_env () in
  Machine.call m ~slots:2 (fun fr ->
      check bool "out-of-range local rejected" true
        (try
           ignore (Machine.local_addr fr 2);
           false
         with Invalid_argument _ -> true))

(* A frame that escapes its body is dead: every local access through it
   raises, whether the body returned or raised. *)
let test_frame_used_after_return () =
  let _, _, _, m = make_env () in
  let rejected what f =
    check bool what true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  let escaped = Machine.call m ~slots:2 (fun fr -> fr) in
  rejected "local_addr after return" (fun () -> Machine.local_addr escaped 0);
  rejected "get_local after return" (fun () -> Machine.get_local escaped 0);
  rejected "set_local after return" (fun () -> Machine.set_local escaped 0 1);
  let raised = ref None in
  (try
     Machine.call m ~slots:2 (fun fr ->
         raised := Some fr;
         failwith "boom")
   with Failure _ -> ());
  match !raised with
  | None -> Alcotest.fail "the body did not run"
  | Some fr -> rejected "local_addr after the body raised" (fun () -> Machine.local_addr fr 1)

let test_frames_not_cleared_by_default () =
  let _, _, _, m = make_env () in
  Machine.call m ~slots:2 (fun fr -> Machine.set_local fr 0 0xDEAD);
  Machine.call m ~slots:2 (fun fr ->
      check int "stale value visible in fresh frame" 0xDEAD (Machine.get_local fr 0))

let test_frames_cleared_when_configured () =
  let config = { Machine.default_config with Machine.clear_frames_on_entry = true } in
  let _, _, _, m = make_env ~machine_config:config () in
  Machine.call m ~slots:2 (fun fr -> Machine.set_local fr 0 0xDEAD);
  Machine.call m ~slots:2 (fun fr ->
      check int "frame zeroed on entry" 0 (Machine.get_local fr 0))

let test_frames_cleared_on_exit () =
  let config = { Machine.default_config with Machine.clear_frames_on_exit = true } in
  let _, _, _, m = make_env ~machine_config:config () in
  Machine.call m ~slots:2 (fun fr -> Machine.set_local fr 0 0xDEAD);
  Machine.call m ~slots:2 (fun fr ->
      check int "previous frame was scrubbed" 0 (Machine.get_local fr 0))

let test_nested_calls () =
  let _, _, _, m = make_env () in
  let depths = ref [] in
  Machine.call m ~slots:1 (fun _ ->
      depths := Addr.to_int (Machine.stack_pointer m) :: !depths;
      Machine.call m ~slots:1 (fun _ ->
          depths := Addr.to_int (Machine.stack_pointer m) :: !depths));
  match !depths with
  | [ inner; outer ] -> check bool "inner deeper than outer" true (inner < outer)
  | _ -> Alcotest.fail "expected two depths"

let test_stack_overflow_detected () =
  let _, _, _, m = make_env () in
  let rec recurse n = Machine.call m ~slots:64 (fun _ -> if n > 0 then recurse (n - 1)) in
  check bool "overflow raises" true
    (try
       recurse 10000;
       false
     with Machine.Stack_overflow _ -> true)

let test_low_water_tracking () =
  let _, _, _, m = make_env () in
  Machine.call m ~slots:16 (fun _ -> ());
  let lw = Machine.low_water m in
  check bool "low water below base" true (Addr.to_int lw < Addr.to_int (Machine.stack_base m));
  Machine.call m ~slots:2 (fun _ -> ());
  check int "low water keeps the deepest point" (Addr.to_int lw) (Addr.to_int (Machine.low_water m))

exception Boom of int

(* [call] pops its frame and re-raises the body's own exception, with
   the backtrace of the body's raise: the stack pointer comes back to
   where it was, and later frames reuse the popped depth correctly. *)
let test_exception_restores_sp () =
  let _, _, _, m = make_env () in
  let top = Machine.stack_pointer m in
  (try Machine.call m ~slots:4 (fun _ -> failwith "boom") with Failure _ -> ());
  check int "sp restored after exception" (Addr.to_int top) (Addr.to_int (Machine.stack_pointer m));
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let raised =
    match
      Machine.call m ~slots:3 (fun _ ->
          Machine.call m ~slots:5 (fun fr ->
              Machine.set_local fr 4 1;
              if Machine.get_local fr 4 = 1 then raise (Boom 7);
              0))
    with
    | _ -> None
    | exception Boom n -> Some (n, Printexc.get_raw_backtrace ())
  in
  Printexc.record_backtrace recording;
  (match raised with
  | None -> Alcotest.fail "the body's exception was swallowed"
  | Some (n, bt) -> (
      check int "the body's exception, unchanged" 7 n;
      match Printexc.backtrace_slots bt with
      | Some slots when Array.length slots > 0 -> (
          match Printexc.Slot.location slots.(0) with
          | Some loc ->
              check bool
                (Printf.sprintf "backtrace starts at the body's raise (%s)" loc.Printexc.filename)
                true
                (Filename.basename loc.Printexc.filename = "test_mutator.ml")
          | None -> ())
      | _ -> ()));
  check int "sp restored through both frames" (Addr.to_int top)
    (Addr.to_int (Machine.stack_pointer m));
  Machine.call m ~slots:2 (fun outer ->
      Machine.set_local outer 1 11;
      Machine.call m ~slots:6 (fun inner -> Machine.set_local inner 5 22);
      check int "outer frame intact after an inner call" 11 (Machine.get_local outer 1);
      check int "outer frame sits just below the base"
        (Addr.to_int top - ((2 + Machine.default_config.Machine.frame_padding) * 4))
        (Addr.to_int (Machine.local_addr outer 0)))

(* Minor words per call of [f], over [n] calls, less the cost of the
   measurement itself. *)
let minor_words_per n f =
  let w0 = Stdlib.Gc.minor_words () in
  let w1 = Stdlib.Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  let w2 = Stdlib.Gc.minor_words () in
  (w2 -. w1 -. (w1 -. w0)) /. float_of_int n

(* With no tracer, the machine's hot operations build nothing on the
   OCaml heap: no event, no boxed RNG state, no frame record or
   closure.  Allocations hit the cursor (auto-collect off, no collection
   runs), so the collector's hit path adds nothing either.  The noisy
   configuration draws every noise and residue value and clears the
   stack periodically. *)
let test_machine_allocates_nothing () =
  List.iter
    (fun (what, config) ->
      let _, _, gc, m = make_env ~machine_config:config () in
      Gc.set_auto_collect gc false;
      let obj = Machine.allocate m 16 in
      let collections = (Gc.stats gc).Cgc.Stats.collections in
      let sink = ref 0 in
      let body fr =
        Machine.set_local fr 0 (Machine.get_local fr 1);
        Machine.get_local fr 0
      in
      let ops =
        [
          ("allocate", fun () -> ignore (Machine.allocate m 8 : Addr.t));
          ("write_field", fun () -> Machine.write_field m obj 1 (Addr.to_int obj));
          ("read_field", fun () -> sink := !sink + Machine.read_field m obj 1);
          ("set_register", fun () -> Machine.set_register m 3 !sink);
          ("get_register", fun () -> sink := !sink + Machine.get_register m 3);
          ("call", fun () -> sink := !sink + Machine.call m ~slots:2 body);
        ]
      in
      List.iter
        (fun (op, f) ->
          f ();
          check (Alcotest.float 0.)
            (Printf.sprintf "%s: minor words per %s" what op)
            0. (minor_words_per 200 f))
        ops;
      check int (what ^ ": no collection ran") collections (Gc.stats gc).Cgc.Stats.collections)
    [
      ("default", Machine.default_config);
      ( "noisy",
        {
          Machine.hygienic_config with
          Machine.register_residue = 0.5;
          syscall_noise = 0.5;
          stack_clear_period = 4;
        } );
    ]

(* --- machine: registers and roots --- *)

let test_registers () =
  let _, _, _, m = make_env () in
  Machine.set_register m 5 0xABCD;
  check int "register round trip" 0xABCD (Machine.get_register m 5);
  Machine.clear_registers m;
  check int "cleared" 0 (Machine.get_register m 5)

let test_register_is_gc_root () =
  let _, _, gc, m = make_env () in
  Gc.set_auto_collect gc false;
  let a = Gc.allocate gc 8 in
  Machine.clear_registers m;
  Machine.set_register m 9 (Addr.to_int a);
  Gc.collect gc;
  check bool "register-held object survives" true (Gc.is_allocated gc a)

let test_live_stack_is_gc_root () =
  let _, _, gc, m = make_env () in
  Gc.set_auto_collect gc false;
  Machine.call m ~slots:2 (fun fr ->
      let a = Gc.allocate gc 8 in
      Machine.clear_registers m;
      Machine.set_local fr 0 (Addr.to_int a);
      Gc.collect gc;
      check bool "frame-held object survives" true (Gc.is_allocated gc a))

let test_dead_stack_not_a_root () =
  let _, _, gc, m = make_env () in
  Gc.set_auto_collect gc false;
  let leaked = ref Addr.zero in
  Machine.call m ~slots:2 (fun fr ->
      let a = Gc.allocate gc 8 in
      leaked := a;
      Machine.set_local fr 0 (Addr.to_int a));
  Machine.clear_registers m;
  Gc.collect gc;
  check bool "popped frame does not retain" false (Gc.is_allocated gc !leaked)

let test_regrown_stack_exposes_stale_pointer () =
  (* section 3.1's phenomenon, end to end *)
  let config = { Machine.default_config with Machine.frame_padding = 4 } in
  let _, _, gc, m = make_env ~machine_config:config () in
  Gc.set_auto_collect gc false;
  let leaked = ref Addr.zero in
  Machine.call m ~slots:4 (fun fr ->
      let a = Gc.allocate gc 8 in
      leaked := a;
      Machine.set_local fr 3 (Addr.to_int a));
  Machine.clear_registers m;
  Machine.call m ~slots:4 (fun _ ->
      Gc.collect gc;
      check bool "stale pointer under a regrown frame retains" true (Gc.is_allocated gc !leaked))

let test_allocator_scratch_cleanup () =
  let run self_cleanup =
    let config = { Machine.default_config with Machine.allocator_self_cleanup = self_cleanup } in
    let _, stack, _, m = make_env ~machine_config:config () in
    let a = Machine.allocate m 8 in
    (* the spill slot is one word below the live stack *)
    let scratch = Addr.add (Machine.stack_pointer m) (-4) in
    let v = Segment.read_word stack scratch in
    (Addr.to_int a, v)
  in
  let a, v = run false in
  check int "careless allocator leaves the pointer" a v;
  let _, v = run true in
  check int "tidy allocator clears it" 0 v

let test_clear_dead_stack () =
  let _, stack, _, m = make_env () in
  Machine.call m ~slots:2 (fun fr -> Machine.set_local fr 0 0xBEEF);
  let stale_at = Machine.stack_pointer m in
  (* the popped frame's slot 0 sits below sp at the frame's base *)
  let stale_at = Addr.add stale_at (-((2 + Machine.default_config.Machine.frame_padding) * 4)) in
  check int "stale value present" 0xBEEF (Segment.read_word stack stale_at);
  Machine.clear_dead_stack m;
  check int "cleared" 0 (Segment.read_word stack stale_at)

let test_register_allocation_result () =
  let _, _, _, m = make_env () in
  let a = Machine.allocate m 8 in
  check int "r0 holds the last allocation" (Addr.to_int a) (Machine.get_register m 0)

let test_determinism_same_seed () =
  let run () =
    let mem = Mem.create () in
    let stack = Mem.map mem ~name:"s" ~kind:Segment.Stack ~base:(Addr.of_int 0xE0000000) ~size:0x10000 in
    let gc = Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(1024 * 1024) () in
    let config = { Machine.default_config with Machine.syscall_noise = 0.5 } in
    let m = Machine.create ~config ~seed:99 mem ~stack ~gc in
    for _ = 1 to 50 do
      ignore (Machine.allocate m 8)
    done;
    Array.init (Machine.n_registers m) (Machine.get_register m)
  in
  check bool "same seed, same noise" true (run () = run ())

let test_park_extends_live_stack () =
  let _, _, gc, m = make_env () in
  Gc.set_auto_collect gc false;
  let leaked = ref Addr.zero in
  Machine.call m ~slots:2 (fun fr ->
      let a = Gc.allocate gc 8 in
      leaked := a;
      Machine.set_local fr 0 (Addr.to_int a));
  Machine.clear_registers m;
  (* dead after the pop... *)
  Gc.collect gc;
  check bool "dead before park" false (Gc.is_allocated gc !leaked);
  (* a second victim, then park over its stale frame *)
  Machine.call m ~slots:2 (fun fr ->
      let a = Gc.allocate gc 8 in
      leaked := a;
      Machine.set_local fr 0 (Addr.to_int a));
  Machine.clear_registers m;
  Machine.park m ~words:16;
  check bool "parked" true (Machine.parked m);
  Gc.collect gc;
  check bool "parked stack pins the stale pointer" true (Gc.is_allocated gc !leaked);
  Machine.unpark m;
  check bool "unparked" false (Machine.parked m);
  Gc.collect gc;
  check bool "released after unpark" false (Gc.is_allocated gc !leaked)

let test_park_twice_rejected () =
  let _, _, _, m = make_env () in
  Machine.park m ~words:4;
  check bool "double park rejected" true
    (try
       Machine.park m ~words:4;
       false
     with Machine.Already_parked _ -> true);
  (* the rejected call left the machine untouched *)
  check bool "still parked" true (Machine.parked m);
  Machine.unpark m;
  Machine.unpark m (* no-op *)

(* --- builders --- *)

let test_cons_and_lists () =
  let _, _, gc, m = make_env () in
  ignore gc;
  let l = Builder.list_of m [ 10; 20; 30 ] in
  check (Alcotest.list int) "values" [ 10; 20; 30 ] (Builder.list_values m l);
  check int "length" 3 (Builder.list_length m l);
  check int "car" 10 (Builder.car m l);
  let empty = Builder.list_of m [] in
  check int "empty list is nil" Builder.nil (Addr.to_int empty)

let test_list_survives_collections_during_build () =
  (* list_of keeps the partial list in register 1: force tiny heap so
     collections happen mid-build *)
  let _, _, gc, m = make_env ~heap_kb:64 () in
  ignore gc;
  let l = Builder.list_of m (List.init 2000 Fun.id) in
  check int "all cells built" 2000 (Builder.list_length m l)

let test_alloc_cycle () =
  let _, _, gc, m = make_env () in
  let head = Builder.alloc_cycle m ~n:5 in
  let cells = Builder.cycle_cells m head in
  check int "five cells" 5 (List.length cells);
  (* following next five times returns to head *)
  let next a = Addr.of_int (Gc.get_field gc a 0) in
  let rec follow a k = if k = 0 then a else follow (next a) (k - 1) in
  check int "cycle closes" (Addr.to_int head) (Addr.to_int (follow head 5))

let test_alloc_cycle_8_byte_magic () =
  let _, _, gc, m = make_env () in
  let head = Builder.alloc_cycle ~cell_bytes:8 m ~n:3 in
  check int "pcr magic in second word" 0xCAFE0000 (Gc.get_field gc head 1)

let test_alloc_cycle_survives_collections () =
  let _, _, _, m = make_env ~heap_kb:128 () in
  let head = Builder.alloc_cycle m ~n:8000 in
  check int "full cycle intact" 8000 (List.length (Builder.cycle_cells m head))

let test_atomic_vs_scanned_array () =
  let _, _, gc, m = make_env () in
  Gc.set_auto_collect gc false;
  let victim1 = Gc.allocate gc 8 in
  let victim2 = Gc.allocate gc 8 in
  let atomic = Builder.atomic_array m [| Addr.to_int victim1 |] in
  let scanned = Builder.scanned_array m [| Addr.to_int victim2 |] in
  Machine.clear_registers m;
  (* root both arrays through registers *)
  Machine.set_register m 10 (Addr.to_int atomic);
  Machine.set_register m 11 (Addr.to_int scanned);
  Gc.collect gc;
  check bool "atomic payload not traced" false (Gc.is_allocated gc victim1);
  check bool "scanned payload traced" true (Gc.is_allocated gc victim2)

let test_grid_embedded_shape () =
  let _, _, gc, m = make_env () in
  let g = Builder.grid_embedded m ~rows:3 ~cols:4 in
  check int "vertex count" 12 (Array.length g.Builder.vertices);
  check int "no spine" 0 (Array.length g.Builder.spine);
  (* right link of (0,0) is (0,1); down link is (1,0) *)
  let v00 = g.Builder.vertices.(0) in
  check int "right link" (Addr.to_int g.Builder.vertices.(1)) (Gc.get_field gc v00 0);
  check int "down link" (Addr.to_int g.Builder.vertices.(4)) (Gc.get_field gc v00 1);
  (* last vertex has no links *)
  let last = g.Builder.vertices.(11) in
  check int "no right at edge" 0 (Gc.get_field gc last 0);
  check int "no down at edge" 0 (Gc.get_field gc last 1)

let test_grid_separate_shape () =
  let _, _, gc, m = make_env () in
  ignore gc;
  let g = Builder.grid_separate m ~rows:3 ~cols:4 in
  check int "vertex count" 12 (Array.length g.Builder.vertices);
  check int "spine: one cons per vertex per direction" (2 * 12) (Array.length g.Builder.spine);
  (* row 0 chain visits vertices (0,0)..(0,3) *)
  let row0 = Addr.of_int (Gc.get_field gc g.Builder.headers 0) in
  let rec chain c = if Addr.to_int c = Builder.nil then [] else Builder.car m c :: chain (Addr.of_int (Builder.cdr m c)) in
  check (Alcotest.list int) "row 0 vertices"
    (List.init 4 (fun i -> Addr.to_int g.Builder.vertices.(i)))
    (chain row0)

let test_queue_fifo () =
  let _, _, _, m = make_env () in
  let q = Builder.queue_create m in
  ignore (Builder.queue_push q 1);
  ignore (Builder.queue_push q 2);
  ignore (Builder.queue_push q 3);
  check int "length" 3 (Builder.queue_length q);
  check (Alcotest.option int) "fifo 1" (Some 1) (Builder.queue_pop q);
  check (Alcotest.option int) "fifo 2" (Some 2) (Builder.queue_pop q);
  ignore (Builder.queue_push q 4);
  check (Alcotest.option int) "fifo 3" (Some 3) (Builder.queue_pop q);
  check (Alcotest.option int) "fifo 4" (Some 4) (Builder.queue_pop q);
  check (Alcotest.option int) "empty" None (Builder.queue_pop q)

let test_queue_clear_link_semantics () =
  let _, _, gc, m = make_env () in
  let q = Builder.queue_create m in
  let n1 = Builder.queue_push q 1 in
  ignore (Builder.queue_push q 2);
  ignore (Builder.queue_pop ~clear_link:true q);
  check int "cleared link" 0 (Gc.get_field gc n1 0);
  let q2 = Builder.queue_create m in
  let n1 = Builder.queue_push q2 1 in
  ignore (Builder.queue_push q2 2);
  ignore (Builder.queue_pop q2);
  check bool "kept link" true (Gc.get_field gc n1 0 <> 0)

let test_tree_shape () =
  let _, _, _, m = make_env () in
  let root = Builder.tree_build m ~depth:4 in
  check int "perfect tree size" 31 (Builder.tree_size m root);
  let leaf = Builder.tree_build m ~depth:0 in
  check int "leaf" 1 (Builder.tree_size m leaf)

let () =
  Alcotest.run "mutator"
    [
      ( "stack",
        [
          Alcotest.test_case "grows down" `Quick test_stack_grows_down;
          Alcotest.test_case "frame size" `Quick test_frame_size_includes_padding;
          Alcotest.test_case "locals" `Quick test_locals_read_write;
          Alcotest.test_case "local bounds" `Quick test_local_bounds;
          Alcotest.test_case "frames dirty by default" `Quick test_frames_not_cleared_by_default;
          Alcotest.test_case "frames cleared on entry" `Quick test_frames_cleared_when_configured;
          Alcotest.test_case "frames cleared on exit" `Quick test_frames_cleared_on_exit;
          Alcotest.test_case "nesting" `Quick test_nested_calls;
          Alcotest.test_case "overflow" `Quick test_stack_overflow_detected;
          Alcotest.test_case "low water" `Quick test_low_water_tracking;
          Alcotest.test_case "exception safety" `Quick test_exception_restores_sp;
          Alcotest.test_case "frame used after return" `Quick test_frame_used_after_return;
          Alcotest.test_case "machine allocates nothing" `Quick test_machine_allocates_nothing;
        ] );
      ( "roots",
        [
          Alcotest.test_case "registers" `Quick test_registers;
          Alcotest.test_case "register root" `Quick test_register_is_gc_root;
          Alcotest.test_case "live stack root" `Quick test_live_stack_is_gc_root;
          Alcotest.test_case "dead stack not root" `Quick test_dead_stack_not_a_root;
          Alcotest.test_case "stale pointer re-exposed" `Quick test_regrown_stack_exposes_stale_pointer;
          Alcotest.test_case "allocator scratch" `Quick test_allocator_scratch_cleanup;
          Alcotest.test_case "clear dead stack" `Quick test_clear_dead_stack;
          Alcotest.test_case "r0 result" `Quick test_register_allocation_result;
          Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
          Alcotest.test_case "park pins stale stack" `Quick test_park_extends_live_stack;
          Alcotest.test_case "park twice" `Quick test_park_twice_rejected;
        ] );
      ( "builder",
        [
          Alcotest.test_case "cons and lists" `Quick test_cons_and_lists;
          Alcotest.test_case "list build under GC" `Quick test_list_survives_collections_during_build;
          Alcotest.test_case "alloc cycle" `Quick test_alloc_cycle;
          Alcotest.test_case "pcr cells" `Quick test_alloc_cycle_8_byte_magic;
          Alcotest.test_case "cycle build under GC" `Quick test_alloc_cycle_survives_collections;
          Alcotest.test_case "atomic vs scanned" `Quick test_atomic_vs_scanned_array;
          Alcotest.test_case "grid embedded" `Quick test_grid_embedded_shape;
          Alcotest.test_case "grid separate" `Quick test_grid_separate_shape;
          Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
          Alcotest.test_case "queue links" `Quick test_queue_clear_link_semantics;
          Alcotest.test_case "tree" `Quick test_tree_shape;
        ] );
    ]
