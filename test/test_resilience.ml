(* Memory-pressure resilience: the fault-injection layer, the typed
   exhaustion exceptions, the allocation escalation ladder, and the
   structured out-of-memory diagnostics. *)

open Cgc_vm
module Gc = Cgc.Gc
module Config = Cgc.Config
module Stats = Cgc.Stats
module Verify = Cgc.Verify
module Blacklist = Cgc.Blacklist
module Heap = Cgc.Heap
module Machine = Cgc_mutator.Machine

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let page = 4096

(* --- Mem fault plans ------------------------------------------------ *)

let test_countdown_exact () =
  let mem = Mem.create () in
  Mem.set_fault_plan mem (Some (Mem.Fault.plan ~countdown:3 ()));
  let commit () = Mem.commit mem ~addr:(Addr.of_int 0x1000) ~bytes:page in
  commit ();
  commit ();
  (match commit () with
  | () -> Alcotest.fail "third charge should fault"
  | exception Mem.Commit_failed { reason = Mem.Fault.Countdown; bytes; _ } ->
      check int "faulting charge carries its size" page bytes);
  (* no rearm: the plan is spent *)
  commit ();
  check int "exactly one fault injected" 1 (Mem.faults_injected mem)

let test_countdown_rearm () =
  let mem = Mem.create () in
  Mem.set_fault_plan mem (Some (Mem.Fault.plan ~countdown:2 ~rearm:true ()));
  let commit () = Mem.commit mem ~addr:(Addr.of_int 0x1000) ~bytes:page in
  let faulted () = match commit () with () -> false | exception Mem.Commit_failed _ -> true in
  check bool "1st ok" false (faulted ());
  check bool "2nd faults" true (faulted ());
  check bool "3rd ok" false (faulted ());
  check bool "4th faults" true (faulted ());
  check int "two faults injected" 2 (Mem.faults_injected mem)

let test_quota_and_refund () =
  let mem = Mem.create () in
  let plan = Mem.Fault.plan ~quota_bytes:(2 * page) () in
  Mem.set_fault_plan mem (Some plan);
  Mem.commit mem ~addr:(Addr.of_int 0x1000) ~bytes:page;
  Mem.commit mem ~addr:(Addr.of_int 0x2000) ~bytes:page;
  (match Mem.commit mem ~addr:(Addr.of_int 0x3000) ~bytes:page with
  | () -> Alcotest.fail "commit over quota should fault"
  | exception Mem.Commit_failed { reason = Mem.Fault.Quota; _ } -> ());
  (* a refused commit does not debit the quota *)
  check int "charged stays at the quota" (2 * page) (Mem.Fault.charged_bytes plan);
  (* an uncommit refunds, unblocking the next commit *)
  Mem.uncommit mem ~addr:(Addr.of_int 0x1000) ~bytes:page;
  check int "refund lowered the charge" page (Mem.Fault.charged_bytes plan);
  Mem.commit mem ~addr:(Addr.of_int 0x3000) ~bytes:page;
  check int "back at the quota" (2 * page) (Mem.Fault.charged_bytes plan)

let test_addr_predicate () =
  let mem = Mem.create () in
  Mem.set_fault_plan mem
    (Some (Mem.Fault.plan ~addr_pred:(fun a -> Addr.to_int a = 0x5000) ()));
  Mem.commit mem ~addr:(Addr.of_int 0x4000) ~bytes:page;
  match Mem.commit mem ~addr:(Addr.of_int 0x5000) ~bytes:page with
  | () -> Alcotest.fail "predicate address should fault"
  | exception Mem.Commit_failed { reason = Mem.Fault.Address; addr; _ } ->
      check int "fault at the matched address" 0x5000 (Addr.to_int addr)

(* --- typed exhaustion exceptions ------------------------------------ *)

let test_address_space_exhausted () =
  let mem = Mem.create () in
  match Mem.map_anywhere mem ~name:"huge" ~kind:Segment.Static_data ~size:0x40000000 () with
  | (_ : Segment.t) -> (
      (* 1 GB fit; a second cannot also fit below 4 GB along with two more *)
      match
        ( Mem.map_anywhere mem ~name:"h2" ~kind:Segment.Static_data ~size:0x40000000 (),
          Mem.map_anywhere mem ~name:"h3" ~kind:Segment.Static_data ~size:0x40000000 (),
          Mem.map_anywhere mem ~name:"h4" ~kind:Segment.Static_data ~size:0x40000000 () )
      with
      | _ -> Alcotest.fail "the 32-bit space cannot hold four 1 GB segments"
      | exception Mem.Address_space_exhausted { requested } ->
          check int "exception names the request" 0x40000000 requested)
  | exception Mem.Address_space_exhausted _ -> Alcotest.fail "1 GB must fit in a fresh space"

let make_machine () =
  let mem = Mem.create () in
  let stack =
    Mem.map mem ~name:"stack" ~kind:Segment.Stack ~base:(Addr.of_int 0xE0000000) ~size:0x1000
  in
  let gc = Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(256 * 1024) () in
  Machine.create mem ~stack ~gc

let test_stack_overflow_on_call () =
  let m = make_machine () in
  match Machine.call m ~slots:4096 (fun _ -> ()) with
  | () -> Alcotest.fail "a 16 KB frame cannot fit a 4 KB stack"
  | exception Machine.Stack_overflow { requested_words; _ } ->
      check bool "exception carries the request" true (requested_words >= 4096)

let test_stack_overflow_on_park () =
  let m = make_machine () in
  (match Machine.park m ~words:4096 with
  | () -> Alcotest.fail "parking 16 KB cannot fit a 4 KB stack"
  | exception Machine.Stack_overflow _ -> ());
  (* the machine is still usable: a sane park now succeeds *)
  Machine.park m ~words:16;
  check bool "parked after recovery" true (Machine.parked m)

(* --- exhaustion diagnostics ----------------------------------------- *)

(* A tiny world: a globals segment registered as the only root, so tests
   control liveness exactly. *)
let make_gc ?(config = Config.default) ~pages () =
  let mem = Mem.create () in
  let globals =
    Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000
  in
  let gc = Gc.create ~config mem ~base:(Addr.of_int 0x400000) ~max_bytes:(pages * page) () in
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  (mem, gc, globals)

let set_slot globals i v = Segment.write_word globals (Addr.add (Segment.base globals) (4 * i)) v

let test_small_exhaustion () =
  let config = { Config.default with Config.initial_pages = 2 } in
  let _, gc, globals = make_gc ~config ~pages:8 () in
  (* grow a fully live chain until the reserve runs dry *)
  let head = ref 0 in
  let d =
    let rec go n =
      if n = 0 then Alcotest.fail "8 pages cannot hold 10k live conses"
      else
        match Gc.allocate gc 16 with
        | a ->
            Gc.set_field gc a 0 !head;
            head := Addr.to_int a;
            set_slot globals 0 !head;
            go (n - 1)
        | exception Gc.Out_of_memory d -> d
    in
    go 10_000
  in
  check bool "small request" true d.Gc.small;
  check int "request size preserved" 16 d.Gc.request_bytes;
  check int "whole reserve committed before giving up" d.Gc.pages_reserved d.Gc.pages_committed;
  check bool "ladder collected" true (List.mem Gc.Collect d.Gc.rungs);
  check bool "ladder grew" true (List.mem Gc.Grow d.Gc.rungs);
  check bool "a full heap is not blacklist starvation" false d.Gc.blacklist_starved;
  check bool "no OS fault involved" false d.Gc.os_refused;
  check int "raise counted" 1 (Gc.stats gc).Stats.oom_raised;
  (* the collector is still usable: drop the chain and allocate again *)
  set_slot globals 0 0;
  head := 0;
  let a = Gc.allocate gc 16 in
  check bool "allocates after the catch" true (Gc.is_allocated gc a);
  check int "heap verifies clean" 0 (List.length (Verify.check gc))

let test_large_exhaustion () =
  let _, gc, _ = make_gc ~pages:64 () in
  (match Gc.allocate gc (128 * page) with
  | (_ : Addr.t) -> Alcotest.fail "a 128-page object cannot fit a 64-page reserve"
  | exception Gc.Out_of_memory d ->
      check bool "large request" false d.Gc.small;
      check int "request pages accurate" 128 d.Gc.request_pages;
      check int "reserve size reported" 64 d.Gc.pages_reserved;
      check bool "genuinely out of pages" false d.Gc.blacklist_starved;
      check bool "diagnosis prints" true (String.length (Gc.oom_message d) > 0));
  let a = Gc.allocate gc page in
  check bool "allocates after the catch" true (Gc.is_allocated gc a)

let blacklist_everything gc =
  let bl = Gc.blacklist gc in
  for i = 0 to Heap.n_pages (Gc.heap gc) - 1 do
    Blacklist.note bl i
  done

let test_blacklist_starved_small () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let _, gc, _ = make_gc ~config ~pages:16 () in
  Gc.set_auto_collect gc false;
  blacklist_everything gc;
  (match Gc.allocate gc 16 with
  | (_ : Addr.t) -> Alcotest.fail "strict regime must refuse an all-black heap"
  | exception Gc.Out_of_memory d ->
      check bool "diagnosed as blacklist starvation" true d.Gc.blacklist_starved;
      check bool "not an OS fault" false d.Gc.os_refused);
  (* pointer-free small objects may still land on black pages *)
  let a = Gc.allocate ~pointer_free:true gc 16 in
  check bool "atomic allocation still succeeds" true (Gc.is_allocated gc a)

let test_relaxation_rescues_small () =
  let config =
    { Config.default with Config.initial_pages = 4; relax_blacklist = true }
  in
  let _, gc, _ = make_gc ~config ~pages:16 () in
  Gc.set_auto_collect gc false;
  blacklist_everything gc;
  let a = Gc.allocate gc 16 in
  check bool "relax-black rung rescued the request" true (Gc.is_allocated gc a);
  check bool "rung counted" true ((Gc.stats gc).Stats.ladder_relax_black > 0);
  check bool "override audited" true (Blacklist.overridden (Gc.blacklist gc) > 0)

(* The acceptance scenario: a large object starved by the blacklist under
   the strict [Anywhere] regime is placed by the first-page-only
   relaxation rung instead of raising. *)
let test_relaxation_rescues_large () =
  let config =
    { Config.default with Config.initial_pages = 16; relax_blacklist = true }
  in
  let _, gc, _ = make_gc ~config ~pages:64 () in
  Gc.set_auto_collect gc false;
  (* every third page black: no 4-page run is wholly clean, but plenty of
     clean first pages remain *)
  let bl = Gc.blacklist gc in
  for i = 0 to Heap.n_pages (Gc.heap gc) - 1 do
    if i mod 3 = 1 then Blacklist.note bl i
  done;
  let a = Gc.allocate gc (4 * page) in
  check bool "placed by a relaxation rung" true (Gc.is_allocated gc a);
  let s = Gc.stats gc in
  check bool "first-page rung used" true (s.Stats.ladder_relax_first_page > 0);
  check int "full relaxation not needed" 0 s.Stats.ladder_relax_black;
  check bool "overrides audited for the black tail pages" true
    (Blacklist.overridden bl > 0);
  check int "heap verifies clean" 0 (List.length (Verify.check gc))

(* --- faults absorbed by the ladder ---------------------------------- *)

let test_ladder_absorbs_commit_fault () =
  let config = { Config.default with Config.initial_pages = 2 } in
  let mem, gc, _ = make_gc ~config ~pages:32 () in
  Mem.set_fault_plan mem (Some (Mem.Fault.plan ~countdown:1 ()));
  (* the very first commit (for this 4-page object) faults; the ladder
     backs off, retries, and succeeds once the one-shot plan is spent *)
  let a = Gc.allocate gc (4 * page) in
  check bool "allocation survived the fault" true (Gc.is_allocated gc a);
  check bool "fault counted in stats" true ((Gc.stats gc).Stats.commit_faults > 0);
  check int "post-fault heap verifies clean" 0 (List.length (Verify.check_after_fault gc))

let test_check_after_fault_on_healthy_heap () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let _, gc, globals = make_gc ~config ~pages:16 () in
  for i = 0 to 40 do
    let a = Gc.allocate gc (8 + (8 * (i mod 5))) in
    if i mod 3 = 0 then set_slot globals (i mod 64) (Addr.to_int a)
  done;
  Gc.collect gc;
  check int "no findings on a healthy heap" 0 (List.length (Verify.check_after_fault gc))

(* --- read/write fault boundary -------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_read_fault_typed () =
  let mem = Mem.create () in
  let seg =
    Mem.map mem ~name:"data" ~kind:Segment.Static_data ~base:(Addr.of_int 0x8000) ~size:0x1000
  in
  Segment.write_word seg (Addr.of_int 0x8000) 0xABCD;
  Mem.set_fault_plan mem (Some (Mem.Fault.plan ~countdown:2 ~target:Mem.Fault.Reads ()));
  check int "1st read ok" 0xABCD (Mem.read_word mem (Addr.of_int 0x8000));
  (match Mem.read_word mem (Addr.of_int 0x8000) with
  | (_ : int) -> Alcotest.fail "second read should fault"
  | exception Mem.Read_fault { value; reason = Mem.Fault.Countdown; _ } ->
      check int "faulted read reports the poison word" Mem.poison_word value);
  (* ECC-style: transient, the memory itself is intact *)
  check int "3rd read sees the original word" 0xABCD (Mem.read_word mem (Addr.of_int 0x8000));
  (* a Reads-target plan must not touch the commit boundary *)
  Mem.commit mem ~addr:(Addr.of_int 0x8000) ~bytes:page;
  let p = Option.get (Mem.fault_plan mem) in
  check int "read fault counted on the plan" 1 (Mem.Fault.read_faults p);
  check int "no write faults" 0 (Mem.Fault.write_faults p)

let test_write_fault_store_lost () =
  let mem = Mem.create () in
  let seg =
    Mem.map mem ~name:"data" ~kind:Segment.Static_data ~base:(Addr.of_int 0x8000) ~size:0x1000
  in
  Segment.write_word seg (Addr.of_int 0x8000) 7;
  Mem.set_fault_plan mem (Some (Mem.Fault.plan ~countdown:1 ~target:Mem.Fault.Writes ()));
  (match Mem.write_word mem (Addr.of_int 0x8000) 99 with
  | () -> Alcotest.fail "first write should fault"
  | exception Mem.Write_fault { bytes; reason = Mem.Fault.Countdown; _ } ->
      check int "fault names the store width" 4 bytes);
  check int "the faulted store did not land" 7 (Segment.read_word seg (Addr.of_int 0x8000));
  Mem.write_word mem (Addr.of_int 0x8000) 99;
  check int "plan spent, store lands" 99 (Segment.read_word seg (Addr.of_int 0x8000))

let test_decay_poisons_and_persists () =
  let mem = Mem.create () in
  let seg =
    Mem.map mem ~name:"data" ~kind:Segment.Static_data ~base:(Addr.of_int 0x8000) ~size:0x1000
  in
  Segment.write_word seg (Addr.of_int 0x8010) 0x1234;
  let plan = Mem.Fault.plan ~countdown:1 ~target:Mem.Fault.Reads ~decay_bytes:64 () in
  Mem.set_fault_plan mem (Some plan);
  (match Mem.read_word mem (Addr.of_int 0x8010) with
  | (_ : int) -> Alcotest.fail "tripped read should fault"
  | exception Mem.Read_fault _ -> ());
  (* the aligned 64-byte region is physically poisoned... *)
  check int "decayed bytes recorded" 64 (Mem.Fault.decayed_bytes plan);
  check int "mapped bytes poisoned" Mem.poison_word (Segment.read_word seg (Addr.of_int 0x8000));
  check bool "range query sees the decay" true
    (Mem.range_decayed mem (Addr.of_int 0x803C) ~bytes:4);
  check bool "outside the region is intact" false
    (Mem.range_decayed mem (Addr.of_int 0x8040) ~bytes:4);
  (* ...and every further guarded access there reports Decayed, even
     though the countdown is long spent *)
  (match Mem.read_word mem (Addr.of_int 0x8020) with
  | (_ : int) -> Alcotest.fail "decayed region must keep faulting"
  | exception Mem.Read_fault { reason = Mem.Fault.Decayed; _ } -> ());
  (* removing the plan does not heal the memory: guarded reads keep
     faulting, and the raw bytes stay poisoned *)
  Mem.set_fault_plan mem None;
  (match Mem.read_word mem (Addr.of_int 0x8010) with
  | (_ : int) -> Alcotest.fail "decay must outlive the plan"
  | exception Mem.Read_fault { reason = Mem.Fault.Decayed; _ } -> ());
  check int "raw read returns the poison" Mem.poison_word (Segment.read_word seg (Addr.of_int 0x8010))

(* A precise heap whose root [a] holds its only pointer to [b] in a
   pointer field that has decayed: the read that tripped the plan rotted
   the word, and lifting the plan leaves it faulting. *)
let decayed_pointer_field () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(64 * page) () in
  let p = Cgc.Precise.create gc in
  let roots = ref [] in
  Cgc.Precise.add_root_provider p (fun () -> !roots);
  let a = Cgc.Precise.allocate p Cgc.Type_desc.cons in
  (* another size class, so later allocations cannot reuse b's slot *)
  let b = Cgc.Precise.allocate p Cgc.Type_desc.link_cell in
  Gc.set_field gc a 1 (Addr.to_int b);
  roots := [ a ];
  let field = Addr.add a 4 in
  Mem.set_fault_plan mem
    (Some
       (Mem.Fault.plan
          ~addr_pred:(fun x -> Addr.equal x field)
          ~target:Mem.Fault.Reads ~decay_bytes:4 ()));
  (match Gc.get_field gc a 1 with
  | (_ : int) -> Alcotest.fail "the tripped read should fault"
  | exception Mem.Read_fault _ -> ());
  Mem.set_fault_plan mem None;
  (gc, p, b)

(* Decay is a property of the address space, not of the plan that
   caused it.  A precise collect that allocation triggers with no plan
   installed must abort on the poisoned pointer field (marks restored,
   nothing swept) instead of reading the poison as "not a pointer" and
   freeing the pointee. *)
let test_decay_outlives_its_plan () =
  let gc, p, b = decayed_pointer_field () in
  let s = Gc.stats gc in
  let attempts () = s.Stats.collections + s.Stats.precise_mark_aborts in
  let before = attempts () in
  let n = ref 0 in
  while attempts () = before && !n < 100_000 do
    ignore (Cgc.Precise.allocate p Cgc.Type_desc.cons);
    incr n
  done;
  check bool "allocation triggered a collect" true (attempts () > before);
  check int "the collect aborted" 1 s.Stats.precise_mark_aborts;
  check bool "the pointee stays allocated" true (Gc.is_allocated gc b)

(* A decayed word faults on every read, so a rerun trace would only read
   it again: one collect runs one trace, downgrades the word once and
   aborts. *)
let test_precise_collect_traces_once () =
  let gc, p, b = decayed_pointer_field () in
  let s = Gc.stats gc in
  let downgrades = s.Stats.mark_downgrades in
  (match Cgc.Precise.collect p with
  | () -> Alcotest.fail "a collect over a decayed pointer field must abort"
  | exception Cgc.Precise.Mark_aborted -> ());
  check int "one trace, one downgrade" 1 (s.Stats.mark_downgrades - downgrades);
  check bool "the pointee stays allocated" true (Gc.is_allocated gc b)

(* An aborted collect resets the allocation budget, as a completed one
   does: with a rotted pointer field every collect aborts, so without
   the reset each allocation past the budget would run another aborted
   trace.  N allocations may run at most one aborted collect per
   budget's worth of bytes. *)
let test_aborted_collect_resets_budget () =
  let gc, p, b = decayed_pointer_field () in
  let s = Gc.stats gc in
  let divisor = (Gc.config gc).Config.space_divisor in
  let aborts = s.Stats.precise_mark_aborts in
  let min_budget = ref max_int and bytes = ref 0 in
  for _ = 1 to 20_000 do
    min_budget := min !min_budget (Heap.committed_bytes (Gc.heap gc) / divisor);
    ignore (Cgc.Precise.allocate p Cgc.Type_desc.cons);
    bytes := !bytes + Cgc.Type_desc.cons.Cgc.Type_desc.size_bytes
  done;
  let ran = s.Stats.precise_mark_aborts - aborts in
  check bool "the budget ran out" true (!bytes > !min_budget);
  check bool "collects still abort" true (ran >= 1);
  check bool
    (Printf.sprintf "%d aborts for %d bytes at a budget of %d" ran !bytes !min_budget)
    true
    (ran <= 1 + (!bytes / !min_budget));
  check int "none completed" 0 s.Stats.precise_collections;
  check bool "the pointee stays allocated" true (Gc.is_allocated gc b)

let test_mark_survives_read_faults () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let mem, gc, globals = make_gc ~config ~pages:32 () in
  (* a live chain the marker must traverse *)
  let head = ref 0 in
  for _ = 1 to 200 do
    let a = Gc.allocate gc 16 in
    Gc.set_field gc a 0 !head;
    head := Addr.to_int a
  done;
  set_slot globals 0 !head;
  Mem.set_fault_plan mem
    (Some (Mem.Fault.plan ~countdown:50 ~rearm:true ~target:Mem.Fault.Reads ()));
  Gc.collect gc;
  Mem.set_fault_plan mem None;
  let s = Gc.stats gc in
  check bool "read faults hit the scan" true (s.Stats.read_faults > 0);
  check bool "each was downgraded, not fatal" true
    (s.Stats.mark_downgrades >= s.Stats.read_faults);
  check int "heap coherent after the faulted collection" 0
    (List.length (Verify.check_after_fault gc));
  (* a fault-free collection fully restores the live set *)
  Gc.collect gc;
  check bool "chain head still live" true (Gc.is_allocated gc (Addr.of_int !head))

let test_write_decay_quarantines_and_retries () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let mem, gc, _ = make_gc ~config ~pages:16 () in
  Mem.set_fault_plan mem
    (Some (Mem.Fault.plan ~countdown:1 ~target:Mem.Fault.Writes ~decay_bytes:512 ()));
  (* the first zero-on-alloc write decays its region; the allocator must
     quarantine the slot and serve the request from healthy memory *)
  let a = Gc.allocate gc 16 in
  check bool "allocation survived the decay" true (Gc.is_allocated gc a);
  check bool "slot came from outside the decayed region" false
    (Mem.range_decayed mem a ~bytes:16);
  let s = Gc.stats gc in
  check bool "write fault counted" true (s.Stats.write_faults > 0);
  check bool "retry counted" true (s.Stats.decay_retries > 0);
  check bool "page quarantined" true (s.Stats.pages_decayed > 0);
  check int "quarantine left the heap coherent" 0 (List.length (Verify.check_after_fault gc));
  (* quarantined pages stay off every placement path *)
  Mem.set_fault_plan mem None;
  for _ = 1 to 50 do
    let b = Gc.allocate gc 16 in
    check bool "no allocation lands on decayed memory" false (Mem.range_decayed mem b ~bytes:16)
  done

(* Decay outlives its plan, so the allocator's inline zeroing must not
   take "no plan installed" for "nothing can fault": a free slot whose
   block decayed under a read, with the plan lifted since, still faults
   the zeroing write when the cursor hands it out.  The page is
   quarantined and the request lands on another page. *)
let test_zeroing_faults_on_decay_after_the_plan () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let mem, gc, _ = make_gc ~config ~pages:16 () in
  Gc.set_auto_collect gc false;
  let heap = Gc.heap gc in
  let a = Gc.allocate gc 16 in
  (* the slot the cursor hands out next *)
  let next = Addr.add a 16 in
  Mem.set_fault_plan mem
    (Some
       (Mem.Fault.plan ~addr_pred:(fun x -> Addr.equal x next) ~target:Mem.Fault.Reads
          ~decay_bytes:4 ()));
  (match Mem.read_word mem next with
  | (_ : int) -> Alcotest.fail "the tripped read should fault"
  | exception Mem.Read_fault _ -> ());
  Mem.set_fault_plan mem None;
  let s = Gc.stats gc in
  let faults = s.Stats.write_faults in
  let b = Gc.allocate gc 16 in
  check int "the zeroing write faulted" (faults + 1) s.Stats.write_faults;
  check bool "the page is quarantined" true
    (Bitset.mem (Gc.Internal.decayed_pages gc) (Heap.page_index heap a));
  check bool "the object was placed on another page" true
    (Heap.page_index heap b <> Heap.page_index heap a);
  check bool "the earlier object is still allocated" true (Gc.is_allocated gc a);
  check bool "the decayed slot is not" false (Gc.is_allocated gc next);
  check int "the heap is coherent" 0 (List.length (Verify.check_after_fault gc))

let test_memory_decayed_diagnosis () =
  let config = { Config.default with Config.initial_pages = 2 } in
  let mem, gc, _ = make_gc ~config ~pages:4 () in
  (* every write decays a whole page: each attempt quarantines another
     page until the ladder runs completely dry *)
  Mem.set_fault_plan mem
    (Some
       (Mem.Fault.plan ~probability:(1.0, 7) ~target:Mem.Fault.Writes ~decay_bytes:page ()));
  (match
     let rec go n = if n = 0 then None else
       match Gc.allocate gc 16 with
       | (_ : Addr.t) -> go (n - 1)
       | exception Gc.Out_of_memory d -> Some d
     in
     go 64
   with
  | None -> Alcotest.fail "4 decaying pages cannot keep serving allocations"
  | Some d ->
      check bool "diagnosed as decayed memory" true d.Gc.memory_decayed;
      check bool "quarantined pages counted" true (d.Gc.pages_decayed > 0);
      check bool "message names the decay" true (contains (Gc.oom_message d) "memory-decayed"));
  (* the heap is still coherent and, with the plan lifted, usable *)
  Mem.set_fault_plan mem None;
  check int "coherent after ladder death" 0 (List.length (Verify.check_after_fault gc))

let test_explicit_absorbs_commit_fault () =
  let mem = Mem.create () in
  let e =
    Cgc.Explicit.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(16 * page) ()
  in
  let a = Cgc.Explicit.malloc e 16 in
  Mem.set_fault_plan mem (Some (Mem.Fault.plan ~countdown:1 ()));
  (* force page acquisition: a large object always commits fresh pages *)
  (match Cgc.Explicit.malloc e (4 * page) with
  | (_ : Addr.t) -> Alcotest.fail "the commit fault must surface"
  | exception Cgc.Explicit.Out_of_memory msg ->
      check bool "typed, with the injected reason" true (contains msg "refused the commit")
  | exception Mem.Commit_failed _ ->
      Alcotest.fail "untyped Commit_failed escaped the explicit allocator");
  Mem.set_fault_plan mem None;
  check bool "allocator still coherent" true (Cgc.Explicit.is_allocated e a);
  check int "heap-level audit clean" 0
    (List.length (Verify.check_heap (Cgc.Explicit.heap e)))

let test_explicit_field_faults_typed () =
  let mem = Mem.create () in
  let e = Cgc.Explicit.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(16 * page) () in
  let a = Cgc.Explicit.malloc e 16 in
  Cgc.Explicit.set_field e a 0 42;
  Mem.set_fault_plan mem (Some (Mem.Fault.plan ~countdown:1 ~target:Mem.Fault.Access ()));
  (match Cgc.Explicit.get_field e a 0 with
  | (_ : int) -> Alcotest.fail "guarded read should fault"
  | exception Mem.Read_fault _ -> ());
  check int "field intact after the transient fault" 42 (Cgc.Explicit.get_field e a 0)

let test_generational_dirty_only_after_store () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let mem, gc, globals = make_gc ~config ~pages:32 () in
  Gc.set_auto_collect gc false;
  let g = Cgc.Generational.create gc in
  let a = Cgc.Generational.allocate g 16 in
  set_slot globals 0 (Addr.to_int a);
  (* two minor collections promote the object's page; promotion leaves
     the page dirty (its pre-promotion stores were never barriered), so
     a third minor rescans and settles it *)
  Cgc.Generational.minor g;
  Cgc.Generational.minor g;
  check bool "object promoted" true (Cgc.Generational.is_old g a);
  Cgc.Generational.minor g;
  check (Alcotest.list int) "no dirty pages before any store" []
    (Cgc.Generational.dirty_pages g);
  (* the regression: a faulted store must NOT mark the page dirty *)
  Mem.set_fault_plan mem
    (Some (Mem.Fault.plan ~probability:(1.0, 3) ~target:Mem.Fault.Writes ()));
  (match Cgc.Generational.set_field g a 0 (Addr.to_int a) with
  | () -> Alcotest.fail "the store should fault"
  | exception Mem.Write_fault _ -> ());
  check (Alcotest.list int) "faulted store left the dirty set empty" []
    (Cgc.Generational.dirty_pages g);
  (* a successful store does set the bit *)
  Mem.set_fault_plan mem None;
  Cgc.Generational.set_field g a 0 (Addr.to_int a);
  check bool "successful store dirtied the page" true (Cgc.Generational.dirty_pages g <> [])

let test_already_parked_typed () =
  let m = make_machine () in
  Machine.park m ~words:16;
  (match Machine.park m ~words:8 with
  | () -> Alcotest.fail "double park must be rejected"
  | exception Machine.Already_parked _ -> ());
  check bool "machine still parked" true (Machine.parked m);
  Machine.unpark m;
  check bool "and still usable" false (Machine.parked m)

let () =
  Alcotest.run "resilience"
    [
      ( "fault plans",
        [
          Alcotest.test_case "countdown fires exactly" `Quick test_countdown_exact;
          Alcotest.test_case "countdown rearms" `Quick test_countdown_rearm;
          Alcotest.test_case "quota charges and refunds" `Quick test_quota_and_refund;
          Alcotest.test_case "address predicate" `Quick test_addr_predicate;
        ] );
      ( "typed exhaustion",
        [
          Alcotest.test_case "address space exhausted" `Quick test_address_space_exhausted;
          Alcotest.test_case "stack overflow on call" `Quick test_stack_overflow_on_call;
          Alcotest.test_case "stack overflow on park" `Quick test_stack_overflow_on_park;
        ] );
      ( "oom diagnostics",
        [
          Alcotest.test_case "small-object exhaustion" `Quick test_small_exhaustion;
          Alcotest.test_case "large-object exhaustion" `Quick test_large_exhaustion;
          Alcotest.test_case "blacklist starvation diagnosed" `Quick test_blacklist_starved_small;
        ] );
      ( "escalation ladder",
        [
          Alcotest.test_case "relaxation rescues small requests" `Quick
            test_relaxation_rescues_small;
          Alcotest.test_case "first-page relaxation rescues large requests" `Quick
            test_relaxation_rescues_large;
          Alcotest.test_case "ladder absorbs an injected commit fault" `Quick
            test_ladder_absorbs_commit_fault;
          Alcotest.test_case "check_after_fault quiet on healthy heap" `Quick
            test_check_after_fault_on_healthy_heap;
        ] );
      ( "read/write faults",
        [
          Alcotest.test_case "read fault is typed and transient" `Quick test_read_fault_typed;
          Alcotest.test_case "write fault loses the store" `Quick test_write_fault_store_lost;
          Alcotest.test_case "decay poisons and persists" `Quick test_decay_poisons_and_persists;
          Alcotest.test_case "decay outlives its plan" `Quick test_decay_outlives_its_plan;
          Alcotest.test_case "precise collect traces once" `Quick
            test_precise_collect_traces_once;
          Alcotest.test_case "aborted collect resets the budget" `Quick
            test_aborted_collect_resets_budget;
          Alcotest.test_case "marker survives read faults" `Quick test_mark_survives_read_faults;
          Alcotest.test_case "write decay quarantines and retries" `Quick
            test_write_decay_quarantines_and_retries;
          Alcotest.test_case "zeroing faults on decay after the plan" `Quick
            test_zeroing_faults_on_decay_after_the_plan;
          Alcotest.test_case "oom diagnosis: memory decayed" `Quick test_memory_decayed_diagnosis;
          Alcotest.test_case "explicit absorbs commit faults" `Quick
            test_explicit_absorbs_commit_fault;
          Alcotest.test_case "explicit field faults are typed" `Quick
            test_explicit_field_faults_typed;
          Alcotest.test_case "generational dirty bit only after store" `Quick
            test_generational_dirty_only_after_store;
          Alcotest.test_case "park twice is typed" `Quick test_already_parked_typed;
        ] );
    ]
