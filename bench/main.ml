(* Benchmark harness: regenerates every table and figure of Boehm,
   "Space Efficient Conservative Garbage Collection" (PLDI 1993), and
   times the paper's footnote-3 performance claims (every timing on the
   monotonic clock, [Stats.now_s]).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 fig1  # selected sections
     dune exec bench/main.exe -- table1 --paper-scale
     dune exec bench/main.exe -- mark table1 --json   # machine-readable summary

   Sections: table1 fig1 fig34 stack-clearing structures
             large-object dual-run fragmentation generational
             pcr-threads ablations overhead alloc mark

   Flags: --paper-scale   full 25000-cell lists (slow)
          --seeds N       range over N seeds in table 1
          --smoke         heavily down-scaled runs (CI)
          --json          also write a JSON summary
          --json-out F    JSON destination (default BENCH.json)
          --parity-ref F  with --json: diff-check the output's Table-1
                          figures against the summary F; exits 1 on
                          drift, when F is missing, or when F shares
                          no table1_* figure with the output

   --seeds takes a positive integer; anything else, a value flag with
   nothing after it, or a [--] word not listed here exits 2. *)

open Cgc_vm
module W = Cgc_workloads

let seed = 1993

let section name description =
  Format.printf "@.=== %s — %s ===@.@." name description

(* --- machine-readable summary (--json); hand-rolled, no JSON dep --- *)

let json_enabled = ref false
let json_fields : (string * string) list ref = ref []
let json_add key value = if !json_enabled then json_fields := (key, value) :: !json_fields
let json_int key v = json_add key (string_of_int v)
let json_float key v = json_add key (Printf.sprintf "%.2f" v)
let json_bool key v = json_add key (string_of_bool v)
let json_string key v = json_add key (Printf.sprintf "%S" v)

let json_write path =
  let fields = List.rev !json_fields in
  let n = List.length fields in
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) -> Printf.fprintf oc "  %S: %s%s\n" k v (if i = n - 1 then "" else ","))
    fields;
  output_string oc "}\n";
  close_out oc;
  Format.printf "@.wrote %s@." path

let read_json_fields path =
  let ic = open_in path in
  let fields = ref [] in
  let strip_quotes s =
    let n = String.length s in
    if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2) else s
  in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ':' with
       | None -> ()
       | Some i ->
           let key = strip_quotes (String.trim (String.sub line 0 i)) in
           let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           let value =
             let n = String.length value in
             if n > 0 && value.[n - 1] = ',' then String.sub value 0 (n - 1) else value
           in
           fields := (key, value) :: !fields
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !fields

(* Differential guard: no change may move Table 1.  Every retention
   figure of the named reference summary must be present, bit-identical,
   in the output.  A reference that shares no table1_* key with the
   output fails too (a check that compares nothing passes nothing); a
   missing one is refused before any section runs. *)
let check_table1_parity json_out ~reference =
  let is_t1 (k, _) = String.length k >= 7 && String.sub k 0 7 = "table1_" in
  let prev = List.filter is_t1 (read_json_fields reference) in
  let cur = List.filter is_t1 (read_json_fields json_out) in
  if not (List.exists (fun (k, _) -> List.mem_assoc k cur) prev) then begin
    Format.eprintf "table-1 parity: %s and %s share no table1_* figure@." reference json_out;
    exit 1
  end;
  let mismatches =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k cur with
        | Some v' when String.equal v v' -> None
        | Some v' -> Some (Printf.sprintf "%s: %s -> %s" k v v')
        | None -> Some (Printf.sprintf "%s: %s -> (missing)" k v))
      prev
  in
  if mismatches = [] then
    Format.printf "table-1 parity: %d retention figures bit-identical to %s@."
      (List.length prev) reference
  else begin
    List.iter (Format.eprintf "table-1 drift: %s@.") mismatches;
    Format.eprintf "table-1 retention moved relative to %s@." reference;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

(* The paper's reported bands, for side-by-side comparison. *)
let paper_bands =
  [
    ("sparc-static", ("79-79.5%", "0-.5%"));
    ("sparc-static-opt", ("78-78.5%", ".5-1%"));
    ("sparc-dynamic", ("8-9.5%", ".5%"));
    ("sparc-dynamic-opt", ("9-11.5%", "0-.5%"));
    ("sgi-static", ("1.5-8%", "0%"));
    ("sgi-static-opt", ("1-4%", "0%"));
    ("os2-static", ("28%", "3%"));
    ("os2-static-opt", ("26%", "1%"));
    ("pcr", ("44.5-55%", "1.5-3.5%"));
  ]

let table1 ~paper_scale ~seeds ~smoke () =
  section "Table 1" "storage retention with and without blacklisting (program T)";
  let scale_note =
    if smoke then "smoke scale (tiny lists — trend check only)"
    else if paper_scale then "paper scale (25000-cell lists)"
    else "standard scale (1/4-length lists)"
  in
  if seeds = 1 then Format.printf "%s, seed %d@.@." scale_note seed
  else Format.printf "%s, ranges over %d seeds (the paper reports ranges too)@.@." scale_note seeds;
  let platforms = if smoke then [ W.Platform.sparc_static ~optimized:false ] else W.Platform.all in
  Format.printf "%-18s | %-10s %-12s | %-10s %-12s@." "platform" "paper bl-" "ours bl-" "paper bl+" "ours bl+";
  Format.printf "%s@." (String.make 72 '-');
  let range f rows =
    let values = List.map f rows in
    let lo = List.fold_left min infinity values and hi = List.fold_left max neg_infinity values in
    if Float.abs (hi -. lo) < 0.05 then Printf.sprintf "%.1f%%" lo
    else Printf.sprintf "%.1f-%.1f%%" lo hi
  in
  List.iter
    (fun p ->
      let lists = if smoke then Some 40 else None in
      let nodes =
        if smoke then 600
        else if paper_scale then p.W.Platform.nodes_per_list
        else p.W.Platform.nodes_per_list / 4
      in
      let rows =
        List.init seeds (fun k -> W.Program_t.run_row ~seed:(seed + (1000 * k)) ?lists ~nodes p)
      in
      let b_off, b_on =
        match List.assoc_opt p.W.Platform.name paper_bands with
        | Some bands -> bands
        | None -> ("?", "?")
      in
      (match rows with
      | r :: _ ->
          json_float
            (Printf.sprintf "table1_%s_retention_bl_off" p.W.Platform.name)
            r.W.Program_t.without_blacklisting.W.Program_t.retention_percent;
          json_float
            (Printf.sprintf "table1_%s_retention_bl_on" p.W.Platform.name)
            r.W.Program_t.with_blacklisting.W.Program_t.retention_percent
      | [] -> ());
      Format.printf "%-18s | %-10s %-12s | %-10s %-12s@.%!" p.W.Platform.name b_off
        (range (fun r -> r.W.Program_t.without_blacklisting.W.Program_t.retention_percent) rows)
        b_on
        (range (fun r -> r.W.Program_t.with_blacklisting.W.Program_t.retention_percent) rows))
    platforms;
  Format.printf
    "@.(retention = %% of dropped circular lists never reclaimed; 'bl' = blacklisting)@.";
  Format.printf "@.analytic check (no-blacklist column, from static pollution alone):@.";
  List.iter
    (fun p ->
      let nodes =
        if smoke then 600
        else if paper_scale then p.W.Platform.nodes_per_list
        else p.W.Platform.nodes_per_list / 4
      in
      Format.printf "  %a@." W.Model.pp (W.Model.predict ~seed ~nodes p))
    platforms

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Figure 1" "two small integers concatenate into a valid address under unaligned scanning";
  let r = W.False_ref.halfword_study ~seed 16 in
  Format.printf "%a@." W.False_ref.pp_halfword r;
  Format.printf
    "@.paper: \"the concatenation of the low order half word of an integer with the@.\
     high order half word of the next can easily be a valid heap address\" —@.\
     0009|000a -> 0x00090000.  Word-aligned scanning sees none of these; the@.\
     trailing-zero allocation rule defuses the rest.@.";
  section "Section 2 sweeps" "misidentification probability vs heap occupancy";
  List.iter
    (fun kind ->
      List.iter
        (fun p -> Format.printf "  %a@." W.False_ref.pp_sweep_point p)
        (W.False_ref.misidentification_sweep ~seed ~samples:100_000 ~kind [ 64; 256; 1024; 4096 ]);
      Format.printf "@.")
    [ W.False_ref.Uniform_words; W.False_ref.Integer_like ];
  Format.printf "heap placement against integer-like data (512 KB live):@.";
  List.iter
    (fun p -> Format.printf "  %a@." W.False_ref.pp_placement p)
    (W.False_ref.placement_study ~seed ~samples:100_000 512);
  Format.printf
    "@.paper: \"if the high order bits of addresses are neither all zeros nor all@.\
     ones, then conflicts with integer data are unlikely\"@."

(* ------------------------------------------------------------------ *)
(* Figures 3-4                                                         *)
(* ------------------------------------------------------------------ *)

let fig34 () =
  section "Figures 3-4" "grid with embedded links vs separate cons cells";
  List.iter
    (fun repr ->
      Format.printf "  %a@." W.Grid.pp_summary (W.Grid.run_trials ~seed repr ~rows:30 ~cols:30 ~trials:60))
    [ W.Grid.Embedded; W.Grid.Separate ];
  Format.printf
    "@.paper: embedded links -> \"a false reference can be expected to result in the@.\
     retention of a large fraction of the structure\"; separate cells -> \"at most@.\
     a single row or column is affected\"@."

(* ------------------------------------------------------------------ *)
(* Section 3.1: stack clearing                                         *)
(* ------------------------------------------------------------------ *)

let stack_clearing () =
  section "Section 3.1" "list reversal and stack hygiene";
  List.iter
    (fun mode ->
      Format.printf "  %a@.%!" W.List_reverse.pp
        (W.List_reverse.run ~seed mode ~elements:250 ~iterations:30))
    [ W.List_reverse.Careless; W.List_reverse.Cleared; W.List_reverse.Optimized ];
  Format.printf
    "@.paper (1000 elements x 1000): 40,000-100,000 apparently live cells carelessly,@.\
     never above 18,000 with cheap stack clearing, ~2000 when optimized to a loop.@.\
     True live data here: 500 cells.@."

(* ------------------------------------------------------------------ *)
(* Section 4: structures                                               *)
(* ------------------------------------------------------------------ *)

let structures () =
  section "Section 4" "impact of a false reference by data structure";
  Format.printf "  %a@." W.Tree.pp (W.Tree.run ~seed ~depth:10 ~trials:60 ());
  Format.printf "@.  queue growth under one false reference (window 8):@.";
  List.iter
    (fun clear ->
      List.iter
        (fun r -> Format.printf "    %a@." W.Queue_lazy.pp r)
        (W.Queue_lazy.growth_series ~seed ~clear_links:clear [ 500; 1000; 2000; 4000 ]))
    [ false; true ];
  Format.printf "@.  lazy list (window 1): forced suffix under one false reference:@.";
  List.iter
    (fun clear ->
      Format.printf "    %a@." W.Queue_lazy.pp (W.Queue_lazy.run_stream ~seed ~clear_links:clear 2000))
    [ false; true ];
  Format.printf
    "@.paper: tree retention ~ height (\"a large number of false references to such@.\
     structures can usually be tolerated\"); \"queues and lazy lists in particular@.\
     have the problem that they grow without bound\" unless \"the queue link field@.\
     is cleared when an item is removed\"@."

(* ------------------------------------------------------------------ *)
(* Section 3, observation 7: large objects                             *)
(* ------------------------------------------------------------------ *)

let large_object () =
  section "Observation 7" "large-object allocation against a populated blacklist";
  Format.printf "%a@." W.Large_object.pp
    (W.Large_object.run ~seed ~sizes_kb:[ 16; 32; 64; 96; 128; 192; 256; 512; 1024 ] ());
  Format.printf
    "@.paper: \"it becomes difficult to allocate individual objects larger than about@.\
     100 Kbytes\" when all interior pointers are valid; \"never a problem if addresses@.\
     that do not point to the first page of an object can be considered invalid\"@."

(* ------------------------------------------------------------------ *)
(* Footnote 4: dual run                                                *)
(* ------------------------------------------------------------------ *)

let dual_run () =
  section "Footnote 4" "dual-run pointer identification";
  Format.printf "%a@." W.Dual_run.pp (W.Dual_run.run ~seed ());
  Format.printf
    "@.paper: \"run two copies of the same program with heap starting addresses that@.\
     differ by n.  Any two corresponding locations whose values do not differ by n@.\
     are then known not to be pointers.\"@."

(* ------------------------------------------------------------------ *)
(* Conclusions: fragmentation                                          *)
(* ------------------------------------------------------------------ *)

let fragmentation () =
  section "Conclusions" "free-list discipline and fragmentation under churn";
  List.iter
    (fun a ->
      Format.printf "  %a@.%!" W.Fragmentation.pp
        (W.Fragmentation.run ~seed a ~population:8000 ~iterations:16))
    [ W.Fragmentation.Malloc_lifo; W.Fragmentation.Malloc_address_ordered; W.Fragmentation.Collector ];
  Format.printf
    "@.paper: address-ordered free lists increase \"the probability of large chunks of@.\
     adjacent space becoming available\"; any tracing collector needs headroom to@.\
     avoid excessively frequent collections (PCR heaps were often ~70%% full).@."

(* ------------------------------------------------------------------ *)
(* Section 3.1 (last paragraph): the generational ceiling              *)
(* ------------------------------------------------------------------ *)

let generational () =
  section "Generational" "stray stack pointers cap generational collection (section 3.1)";
  List.iter
    (fun hygiene ->
      let r = W.Generational_exp.run ~seed hygiene ~rounds:40 in
      Format.printf "  %a@.%!" W.Generational_exp.pp r;
      json_int
        (Printf.sprintf "gen_%s_garbage_promoted" (W.Generational_exp.hygiene_name hygiene))
        r.W.Generational_exp.garbage_promoted_bytes)
    [ W.Generational_exp.Clean; W.Generational_exp.Careless ];
  (* the ceiling: sweep the tenure threshold, measure promotion in a
     post-warm-up window where everything promoted is garbage *)
  Format.printf "@.";
  List.iter
    (fun hygiene ->
      let c = W.Generational_exp.ceiling ~seed hygiene ~rounds:40 in
      Format.printf "  %a@.%!" W.Generational_exp.pp_ceiling c;
      List.iter
        (fun (p : W.Generational_exp.ceiling_point) ->
          json_int
            (Printf.sprintf "gen_ceiling_%s_pa%d"
               (W.Generational_exp.hygiene_name hygiene)
               p.W.Generational_exp.cp_promote_after)
            p.W.Generational_exp.cp_promoted_bytes)
        c.W.Generational_exp.c_points)
    [ W.Generational_exp.Clean; W.Generational_exp.Careless ];
  Format.printf
    "@.paper: \"stray stack pointers can significantly lengthen the lifetime of some@.\
     objects, thus placing a ceiling on the effectiveness of generational@.\
     collection\" — promoted garbage is garbage the minor collector never revisits.@."

(* ------------------------------------------------------------------ *)
(* Footnote 3: blacklisting overhead                                   *)
(* ------------------------------------------------------------------ *)

let overhead () =
  section "Footnote 3" "blacklisting bookkeeping overhead";
  let p = W.Platform.sparc_static ~optimized:false in
  let nodes = p.W.Platform.nodes_per_list / 4 in
  let r = W.Program_t.run ~seed ~blacklisting:true ~nodes p in
  let r_off = W.Program_t.run ~seed ~blacklisting:false ~nodes p in
  let ops = float_of_int r.W.Program_t.blacklist_ops in
  let work = float_of_int r.W.Program_t.words_scanned in
  Format.printf "  blacklist bookkeeping operations      : %d@." r.W.Program_t.blacklist_ops;
  Format.printf "  marker work (words examined)          : %d@." r.W.Program_t.words_scanned;
  Format.printf "  bookkeeping / marking work            : %.2f%%@." (100. *. ops /. work);
  Format.printf "  total GC time, blacklisting on        : %.4fs@." r.W.Program_t.total_gc_seconds;
  Format.printf "  total GC time, blacklisting off       : %.4fs@." r_off.W.Program_t.total_gc_seconds;
  Format.printf
    "@.paper: \"the total additional overhead introduced by blacklisting is usually@.\
     less than 1%%\"; version 2.5 spent ~0.2%% of its time on the bookkeeping.@.\
     (Here blacklisting even runs FASTER overall: the lists it declines to retain@.\
     are lists the no-blacklist collector must re-mark at every collection.)@."

(* ------------------------------------------------------------------ *)
(* Footnote 3: the allocation hit path                                 *)
(* ------------------------------------------------------------------ *)

(* The allocation half of footnote 3, on the monotonic clock.
   [alloc_hit_ns]: 200k 8-byte [Gc.allocate] calls into a fresh heap
   with auto-collect off, so nearly every call is a hit (a page miss
   every 512 calls carves the next page).  [alloc_explicit_round_trip_ns]:
   200k 8-byte [Explicit] malloc+free pairs.  [alloc_collect_ns]: 8-byte
   requests with auto-collect on at the default [space_divisor], each
   stored over a random slot of a 32768-entry static root table, so
   ~256 KB stays live and the displaced object is garbage (2M requests,
   200k under --smoke; the table is filled before the clock starts);
   [alloc_collect_gc_ns] is the collector's part of it, [total_gc_seconds]
   per request.  Each is the median of 9 batches, every batch on a
   fresh heap. *)
let alloc_probe ~smoke () =
  section "Allocation"
    "hit path, malloc/free round trip and alloc+collect, 8-byte objects (ns per operation)";
  let n = 200_000 and batches = 9 in
  let base = Addr.of_int 0x400000 and max_bytes = 4 * 1024 * 1024 in
  let time_ns n run =
    let t0 = Cgc.Stats.now_s () in
    run ();
    (Cgc.Stats.now_s () -. t0) *. 1e9 /. float_of_int n
  in
  let median batch =
    let runs = Array.init batches (fun _ -> batch ()) in
    Array.sort compare runs;
    runs.(batches / 2)
  in
  let per_op fresh = median (fun () -> time_ns n (fresh ())) in
  let hit =
    per_op (fun () ->
        let gc = Cgc.Gc.create (Mem.create ()) ~base ~max_bytes () in
        Cgc.Gc.set_auto_collect gc false;
        fun () ->
          for _ = 1 to n do
            ignore (Cgc.Gc.allocate gc 8 : Addr.t)
          done)
  in
  let round_trip =
    per_op (fun () ->
        let e = Cgc.Explicit.create (Mem.create ()) ~base ~max_bytes () in
        fun () ->
          for _ = 1 to n do
            Cgc.Explicit.free e (Cgc.Explicit.malloc e 8)
          done)
  in
  let slots = 32768 and requests = if smoke then 200_000 else 2_000_000 in
  let collect, collect_gc, collections =
    median (fun () ->
        let mem = Mem.create () in
        let table =
          Mem.map mem ~name:"table" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000)
            ~size:(4 * slots)
        in
        let gc = Cgc.Gc.create mem ~base ~max_bytes () in
        Cgc.Gc.add_static_root gc ~lo:(Segment.base table) ~hi:(Segment.limit table)
          ~label:"table";
        let store slot =
          Segment.write_word table
            (Addr.add (Segment.base table) (4 * slot))
            (Addr.to_int (Cgc.Gc.allocate gc 8))
        in
        for slot = 0 to slots - 1 do
          store slot
        done;
        let rng = Rng.create seed in
        let st = Cgc.Gc.stats gc in
        let gc0 = st.Cgc.Stats.total_gc_seconds and collections0 = st.Cgc.Stats.collections in
        let ns =
          time_ns requests (fun () ->
              for _ = 1 to requests do
                store (Rng.int rng slots)
              done)
        in
        ( ns,
          (st.Cgc.Stats.total_gc_seconds -. gc0) *. 1e9 /. float_of_int requests,
          st.Cgc.Stats.collections - collections0 ))
  in
  Format.printf "  gc allocate, 8 B hit (fresh heap, no collection) : %6.1f ns@." hit;
  Format.printf "  explicit malloc + free, 8 B                      : %6.1f ns@." round_trip;
  Format.printf
    "  gc allocate + collect, 8 B (256 KB live)         : %6.1f ns  (%.2fx malloc + free)@." collect
    (collect /. round_trip);
  Format.printf "    of it in the collector                         : %6.1f ns@." collect_gc;
  Format.printf "    %d collections in %d requests, mean pause %.2f ms@." collections requests
    (collect_gc *. float_of_int requests /. 1e6 /. float_of_int (max 1 collections));
  json_float "alloc_hit_ns" hit;
  json_float "alloc_explicit_round_trip_ns" round_trip;
  json_float "alloc_collect_ns" collect;
  json_float "alloc_collect_gc_ns" collect_gc;
  if collections = 0 then begin
    Format.eprintf "alloc: the alloc+collect run did no collection@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Appendix B: background thread stacks                                *)
(* ------------------------------------------------------------------ *)

let pcr_threads () =
  section "Thread stacks" "idle vs woken background threads (appendix B, PCR)";
  List.iter
    (fun (threads, awake) ->
      Format.printf "  %a@.%!" W.Pcr_threads.pp (W.Pcr_threads.run ~seed ~threads ~awake ()))
    [ (0, false); (2, false); (5, false); (10, false); (5, true); (10, true) ];
  Format.printf
    "@.paper: \"the PCR collector does not attempt to clear thread stacks\"; background@.\
     threads that \"woke up regularly ... seemed to have a beneficial effect of@.\
     clearing out thread stacks, and thus tended to reduce apparent leakage\"@."

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices                                     *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations" "design-choice ablations on the SPARC(static) row";
  let p = W.Platform.sparc_static ~optimized:false in
  let nodes = p.W.Platform.nodes_per_list / 4 in
  let show label r =
    Format.printf "  %-36s retained %3d/%3d (%5.1f%%)  black=%d heap=%dKB@.%!" label
      r.W.Program_t.retained r.W.Program_t.lists r.W.Program_t.retention_percent
      r.W.Program_t.blacklisted_pages r.W.Program_t.committed_kb
  in
  (* the hazard drivers, measured without blacklisting *)
  show "no blacklist, unaligned scan (base)"
    (W.Program_t.run ~seed ~blacklisting:false ~nodes p);
  show "no blacklist, word-aligned compiler"
    (W.Program_t.run ~seed ~blacklisting:false ~nodes { p with W.Platform.scan_alignment = 4 });
  show "no blacklist, IO areas excluded"
    (W.Program_t.run ~seed ~blacklisting:false ~nodes
       ~prepare:(fun env ->
         (* exclude the polluted static area, keeping the globals *)
         Cgc.Gc.exclude_roots env.W.Platform.gc
           ~lo:(Cgc_vm.Segment.base env.W.Platform.data)
           ~hi:env.W.Platform.globals_base ~label:"library data")
       p);
  (* blacklist variants *)
  show "blacklist, aging on (base)" (W.Program_t.run ~seed ~blacklisting:true ~nodes p);
  show "blacklist, sticky (no aging)"
    (W.Program_t.run ~seed ~blacklisting:true ~nodes
       {
         p with
         W.Platform.gc_tweak =
           (fun c -> { (p.W.Platform.gc_tweak c) with Cgc.Config.blacklist_refresh = false });
       });
  show "blacklist, hashed (4096 buckets)"
    (W.Program_t.run ~seed ~blacklisting:true ~nodes
       {
         p with
         W.Platform.gc_tweak =
           (fun c -> { (p.W.Platform.gc_tweak c) with Cgc.Config.blacklist_buckets = Some 4096 });
       });
  show "blacklist, base-pointers only"
    (W.Program_t.run ~seed ~blacklisting:true ~nodes
       {
         p with
         W.Platform.gc_tweak =
           (fun c -> { (p.W.Platform.gc_tweak c) with Cgc.Config.interior_pointers = false });
       });
  Format.printf
    "@.(word alignment and root exclusion attack the false references at the source;@.\
     interior pointers raise the stakes; sticky blacklists trade heap for safety)@.";
  (* observation 6: small pointer-free allocations reclaim blacklisted
     pages, so the heap-size cost of blacklisting "is usually zero" *)
  Format.printf "@.observation 6 — atomic data recovers blacklisted pages:@.";
  List.iter
    (fun atomic_ok ->
      let p = W.Platform.sparc_static ~optimized:false in
      let p =
        {
          p with
          W.Platform.gc_tweak =
            (fun c ->
              { (p.W.Platform.gc_tweak c) with Cgc.Config.atomic_on_black_pages = atomic_ok });
        }
      in
      let env = W.Platform.build_env ~seed ~blacklisting:true ~heap_max:(8 * 1024 * 1024) p in
      let gc = env.W.Platform.gc in
      Cgc.Gc.collect gc;
      (* a PCedar-like mix, all kept live so the heap must grow through
         the blacklisted region: pointer cells chained together, atomic
         data (strings, bignum digits, pixels) hanging off them *)
      let prev = ref 0 in
      for i = 1 to 120_000 do
        if i mod 2 = 0 then begin
          let atom = Cgc.Gc.allocate ~pointer_free:true gc 16 in
          let c = Cgc.Gc.allocate gc 8 in
          Cgc.Gc.set_field gc c 0 !prev;
          Cgc.Gc.set_field gc c 1 (Cgc_vm.Addr.to_int atom);
          prev := Cgc_vm.Addr.to_int c
        end
        else begin
          let c = Cgc.Gc.allocate gc 8 in
          Cgc.Gc.set_field gc c 0 !prev;
          prev := Cgc_vm.Addr.to_int c
        end;
        Cgc_vm.Segment.write_word env.W.Platform.data env.W.Platform.globals_base !prev
      done;
      let heap = Cgc.Gc.heap gc in
      let black_used = ref 0 and black_total = ref 0 in
      for i = 0 to Cgc.Heap.committed_pages heap - 1 do
        if Cgc.Blacklist.is_black (Cgc.Gc.blacklist gc) i then begin
          incr black_total;
          match Cgc.Heap.page heap i with
          | Cgc.Page.Small _ | Cgc.Page.Large_head _ | Cgc.Page.Large_tail _ -> incr black_used
          | Cgc.Page.Free | Cgc.Page.Uncommitted -> ()
        end
      done;
      Format.printf
        "  atomic-on-black %-5b: %3d of %3d committed blacklisted pages carry atomic data; heap %4d KB@.%!"
        atomic_ok !black_used !black_total
        (Cgc.Heap.committed_bytes heap / 1024))
    [ false; true ];
  Format.printf
    "@.paper (point 6): \"there are enough allocations of small objects known to be@.\
     pointer-free that blacklisted pages can still be allocated, and thus the loss@.\
     is usually zero\"@."

(* ------------------------------------------------------------------ *)
(* Mark-phase throughput: fast path vs the test-side reference        *)
(* ------------------------------------------------------------------ *)

(* Words examined per second by the collector's trace kernel and the
   reference marker of the test oracle library ([Cgc_oracle.Reference])
   over the same live heap: program T's circular lists on the SPARC(static)
   platform — big-endian, unaligned (byte-granularity) root scanning,
   the paper's worst case for marker work.  Both paths run over the very
   same collector instance, so words/objects per cycle must agree
   exactly; the JSON records the throughput ratio.  Both rows are timed
   on the monotonic wall clock ([Stats.now_s]). *)
let mark_throughput ~smoke () =
  section "Mark throughput"
    "flat-descriptor fast path vs reference scan loop (program T heap, SPARC static)";
  let p = W.Platform.sparc_static ~optimized:false in
  let lists = if smoke then 30 else 200 in
  let nodes = if smoke then 500 else p.W.Platform.nodes_per_list / 4 in
  let cell_bytes = p.W.Platform.cell_bytes in
  let heap_max = max (8 * 1024 * 1024) (4 * lists * nodes * cell_bytes) in
  let env = W.Platform.build_env ~seed ~blacklisting:true ~heap_max p in
  let gc = env.W.Platform.gc in
  Cgc.Gc.set_auto_collect gc false;
  (* program T's a[] holds the list heads; every list stays rooted so
     each mark cycle has to traverse all of them *)
  for i = 0 to lists - 1 do
    let head = Cgc.Gc.allocate gc cell_bytes in
    let prev = ref (Addr.to_int head) in
    for _ = 2 to nodes do
      let c = Cgc.Gc.allocate gc cell_bytes in
      Cgc.Gc.set_field gc c 0 !prev;
      prev := Addr.to_int c
    done;
    Cgc.Gc.set_field gc head 0 !prev;
    Segment.write_word env.W.Platform.data
      (Addr.add env.W.Platform.globals_base (4 * i))
      (Addr.to_int head)
  done;
  let st = Cgc.Gc.stats gc in
  let time_cycles runner iters =
    let w0 = st.Cgc.Stats.words_scanned and m0 = st.Cgc.Stats.objects_marked in
    let t0 = Cgc.Stats.now_s () in
    for _ = 1 to iters do
      runner gc
    done;
    let dt = Float.max 1e-9 (Cgc.Stats.now_s () -. t0) in
    let words = st.Cgc.Stats.words_scanned - w0 in
    (float_of_int words /. dt, words / iters, (st.Cgc.Stats.objects_marked - m0) / iters, dt)
  in
  (* warm both paths (page tables, blacklist, caches), then calibrate the
     iteration count so each measured run lasts long enough to time *)
  Cgc_oracle.Reference.run gc;
  Cgc.Gc.Internal.run_mark gc;
  let calibrate runner =
    if smoke then 2
    else begin
      let t0 = Cgc.Stats.now_s () in
      runner gc;
      let dt = Float.max 1e-6 (Cgc.Stats.now_s () -. t0) in
      max 3 (int_of_float (ceil (1.0 /. dt)))
    end
  in
  let iters_ref = calibrate Cgc_oracle.Reference.run in
  let ref_rate, ref_words, ref_marked, ref_secs =
    time_cycles Cgc_oracle.Reference.run iters_ref
  in
  let iters_fast = calibrate Cgc.Gc.Internal.run_mark in
  let hits0 = st.Cgc.Stats.header_cache_hits in
  let fast_rate, fast_words, fast_marked, fast_secs =
    time_cycles Cgc.Gc.Internal.run_mark iters_fast
  in
  let hits_per_cycle = (st.Cgc.Stats.header_cache_hits - hits0) / iters_fast in
  let parity = ref_words = fast_words && ref_marked = fast_marked in
  let speedup = fast_rate /. ref_rate in
  Format.printf "  live heap : %d lists x %d cells (%d KB committed)@." lists nodes
    (Cgc.Heap.committed_bytes (Cgc.Gc.heap gc) / 1024);
  Format.printf "  reference : %11.0f words/s  (%d words, %d objects per cycle; %d cycles, %.2fs)@."
    ref_rate ref_words ref_marked iters_ref ref_secs;
  Format.printf "  fast path : %11.0f words/s  (%d words, %d objects per cycle; %d cycles, %.2fs)@."
    fast_rate fast_words fast_marked iters_fast fast_secs;
  Format.printf "  speedup   : %.2fx   header-cache hits per cycle: %d@." speedup hits_per_cycle;
  Format.printf "  parity    : words and objects per cycle %s@."
    (if parity then "identical" else "DIVERGED — fast path is wrong");
  json_string "mark_platform" p.W.Platform.name;
  json_int "mark_lists" lists;
  json_int "mark_nodes_per_list" nodes;
  json_int "mark_words_per_cycle" fast_words;
  json_int "mark_objects_per_cycle" fast_marked;
  json_float "mark_reference_words_per_sec" ref_rate;
  json_float "mark_fast_words_per_sec" fast_rate;
  json_float "mark_speedup" speedup;
  json_int "mark_header_cache_hits_per_cycle" hits_per_cycle;
  json_bool "mark_parity" parity;
  if not parity then begin
    Format.eprintf "mark throughput: fast path diverged from reference@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* Splits the command line into the values of the flags that take one
   and the other words.  A value flag with no value after it (the end
   of the line, or another [--] flag) exits 2 with a message instead of
   running with a guess. *)
let rec split_values = function
  | f :: rest when List.mem f [ "--seeds"; "--json-out"; "--parity-ref" ] -> (
      match rest with
      | v :: rest when not (String.starts_with ~prefix:"--" v) ->
          let values, words = split_values rest in
          ((f, v) :: values, words)
      | _ ->
          Format.eprintf "%s expects a value@." f;
          exit 2)
  | w :: rest ->
      let values, words = split_values rest in
      (values, w :: words)
  | [] -> ([], [])

(* The value of [flag] as a positive integer, [default] when the flag
   is absent; a non-integer or non-positive value exits 2. *)
let positive_flag values flag ~default =
  match List.assoc_opt flag values with
  | None -> default
  | Some n -> (
      match int_of_string_opt n with
      | Some v when v >= 1 -> v
      | Some _ | None ->
          Format.eprintf "%s expects a positive integer, got %S@." flag n;
          exit 2)

let () =
  let values, words = split_values (List.tl (Array.to_list Sys.argv)) in
  let switches = [ "--paper-scale"; "--smoke"; "--json" ] in
  List.iter
    (fun w ->
      if String.starts_with ~prefix:"--" w && not (List.mem w switches) then begin
        Format.eprintf "unknown flag %s@." w;
        exit 2
      end)
    words;
  let paper_scale = List.mem "--paper-scale" words in
  let smoke = List.mem "--smoke" words in
  let json = List.mem "--json" words in
  let seeds = positive_flag values "--seeds" ~default:1 in
  let json_out = Option.value (List.assoc_opt "--json-out" values) ~default:"BENCH.json" in
  let parity_ref = List.assoc_opt "--parity-ref" values in
  Option.iter
    (fun reference ->
      if not json then begin
        Format.eprintf "--parity-ref needs --json@.";
        exit 1
      end;
      if not (Sys.file_exists reference) then begin
        Format.eprintf "table-1 parity: reference %s not found@." reference;
        exit 1
      end)
    parity_ref;
  let wanted = List.filter (fun w -> not (List.mem w switches)) words in
  let sections =
    [
      ("table1", table1 ~paper_scale ~seeds ~smoke);
      ("fig1", fig1);
      ("fig34", fig34);
      ("stack-clearing", stack_clearing);
      ("structures", structures);
      ("large-object", large_object);
      ("dual-run", dual_run);
      ("fragmentation", fragmentation);
      ("generational", generational);
      ("pcr-threads", pcr_threads);
      ("ablations", ablations);
      ("overhead", overhead);
      ("alloc", alloc_probe ~smoke);
      ("mark", mark_throughput ~smoke);
    ]
  in
  json_enabled := json;
  json_string "bench" "boehm93-reproduction";
  json_bool "smoke" smoke;
  json_bool "paper_scale" paper_scale;
  json_int "seeds" seeds;
  let selected =
    if wanted = [] then List.map snd sections
    else
      List.map
        (fun name ->
          match List.assoc_opt name sections with
          | Some s -> s
          | None ->
              Format.eprintf "unknown section %s; sections: %s@." name
                (String.concat " " (List.map fst sections));
              exit 1)
        wanted
  in
  Format.printf
    "Space Efficient Conservative Garbage Collection (Boehm, PLDI 1993) — reproduction@.";
  List.iter (fun run -> run ()) selected;
  if json then begin
    json_write json_out;
    Option.iter (fun reference -> check_table1_parity json_out ~reference) parity_ref
  end
