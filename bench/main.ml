(* Benchmark harness: regenerates every table and figure of Boehm,
   "Space Efficient Conservative Garbage Collection" (PLDI 1993), plus
   Bechamel timing benches for the paper's performance claims.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 fig1  # selected sections
     dune exec bench/main.exe -- table1 --paper-scale
     dune exec bench/main.exe -- mark table1 --json   # machine-readable summary

   Sections: table1 fig1 fig34 stack-clearing structures
             large-object dual-run fragmentation generational
             pcr-threads ablations overhead alloc mark resilience
             starvation timing

   Flags: --paper-scale   full 25000-cell lists (slow)
          --seeds N       range over N seeds in table 1
          --smoke         heavily down-scaled runs (CI)
          --json          also write a JSON summary
          --json-out F    JSON destination (default BENCH.json)
          --parity-ref F  with --json: diff-check the output's Table-1
                          figures against the summary F; exits 1 on
                          drift, when F is missing, or when F shares
                          no table1_* figure with the output
          --collector C   restrict the resilience matrix to one backend
                          (conservative | generational | explicit |
                          precise | all)
          --jobs N        marker-domain sweep ceiling for the mark
                          section (default 4: measures jobs 1, 2, 4)

   --seeds and --jobs take a positive integer; anything else exits 2. *)

open Cgc_vm
module W = Cgc_workloads
module A = Cgc_analysis

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
  (* the fix matrix: each R1/R2/R5 finding's suggested fix replayed
     through a fresh generational collector, the measured promoted
     garbage next to the promotion model's static prediction — the
     analyzer's cross-validation claim for the second collector
     architecture, so any drift is a failure here, like starvation *)
  Format.printf
    "@.  fix replay (promote_after %d)          | measured garbage     | predicted garbage@."
    A.Scenarios.gen_promote_after;
  Format.printf "  %s@." (String.make 86 '-');
  let entries = A.Scenarios.generational_fixes () in
  let ok = ref 0 in
  List.iter
    (fun (e : A.Scenarios.gen_fix_entry) ->
      let c = e.A.Scenarios.g_cmp in
      let pb = e.A.Scenarios.g_predicted_before in
      let pa = e.A.Scenarios.g_predicted_after in
      let agrees =
        c.A.Replay.gcmp_reads_equal
        && c.A.Replay.gcmp_garbage_drop > 0
        && A.Promotion.agrees pb ~measured:c.A.Replay.gcmp_garbage_before
        && A.Promotion.agrees pa ~measured:c.A.Replay.gcmp_garbage_after
      in
      if agrees then incr ok;
      Format.printf "  %-24s %-12s | %7dB -> %7dB | %7dB -> %7dB  %s@.%!"
        e.A.Scenarios.g_scenario
        ("[" ^ e.A.Scenarios.g_rule ^ " fix]")
        c.A.Replay.gcmp_garbage_before c.A.Replay.gcmp_garbage_after
        pb.A.Promotion.pr_garbage_bytes pa.A.Promotion.pr_garbage_bytes
        (if agrees then "agrees" else "DRIFT");
      let key s = Printf.sprintf "gen_fix_%s_%s" e.A.Scenarios.g_scenario s in
      json_int (key "garbage_before") c.A.Replay.gcmp_garbage_before;
      json_int (key "garbage_after") c.A.Replay.gcmp_garbage_after;
      json_int (key "predicted_before") pb.A.Promotion.pr_garbage_bytes;
      json_int (key "predicted_after") pa.A.Promotion.pr_garbage_bytes;
      json_bool (key "agrees") agrees)
    entries;
  json_int "gen_fix_targets" (List.length entries);
  json_int "gen_fix_agree" !ok;
  Format.printf
    "@.paper: \"stray stack pointers can significantly lengthen the lifetime of some@.\
     objects, thus placing a ceiling on the effectiveness of generational@.\
     collection\" — promoted garbage is garbage the minor collector never revisits.@.";
  if !ok <> List.length entries || List.length entries < 4 then begin
    Format.eprintf "generational: fix replay diverged from the promotion model@.";
    exit 1
  end

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
   200k 8-byte [Explicit] malloc+free pairs.  Each is the median of 9
   batches, every batch on a fresh heap. *)
let alloc_probe () =
  section "Allocation" "hit path and malloc/free round trip, 8-byte objects (ns per operation)";
  let n = 200_000 and batches = 9 in
  let base = Addr.of_int 0x400000 and max_bytes = 4 * 1024 * 1024 in
  let per_op fresh =
    let times =
      Array.init batches (fun _ ->
          let run = fresh () in
          let t0 = Cgc.Stats.now_s () in
          run ();
          (Cgc.Stats.now_s () -. t0) *. 1e9 /. float_of_int n)
    in
    Array.sort compare times;
    times.(batches / 2)
  in
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
  Format.printf "  gc allocate, 8 B hit (fresh heap, no collection) : %6.1f ns@." hit;
  Format.printf "  explicit malloc + free, 8 B                      : %6.1f ns@." round_trip;
  json_float "alloc_hit_ns" hit;
  json_float "alloc_explicit_round_trip_ns" round_trip

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
   exactly; the JSON records the throughput ratio.  Every row, serial
   and parallel, is timed on the monotonic wall clock ([Stats.now_s]). *)
let mark_throughput ~smoke ~jobs () =
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
  end;
  (* --- parallel tracer sweep (--jobs) ------------------------------
     The work-stealing tracer over the same live heap, measured in
     wall-clock words/sec on the same monotonic clock as the serial
     figures above (domains overlap, so CPU time would double-count),
     which makes jobs=1 and the fast path comparable.  Every width must visit exactly
     the serial word/object counts — the bit-identity claim — and a
     jobs > 1 run in this fault-free bench must really go parallel. *)
  let sweep = List.sort_uniq compare (List.filter (fun j -> j >= 1 && j <= jobs) [ 1; 2; 4; jobs ]) in
  let last_fallback = ref None in
  let run_parallel j gc =
    let o = Cgc.Gc.Internal.run_mark_parallel gc ~jobs:j in
    last_fallback := o.Cgc.Mark.Parallel.fallback
  in
  let time_wall j iters =
    let w0 = st.Cgc.Stats.words_scanned and m0 = st.Cgc.Stats.objects_marked in
    let t0 = Cgc.Stats.now_s () in
    for _ = 1 to iters do
      run_parallel j gc
    done;
    let dt = Float.max 1e-9 (Cgc.Stats.now_s () -. t0) in
    let words = st.Cgc.Stats.words_scanned - w0 in
    (float_of_int words /. dt, words / iters, (st.Cgc.Stats.objects_marked - m0) / iters)
  in
  let calibrate_wall j =
    if smoke then 2
    else begin
      let t0 = Cgc.Stats.now_s () in
      run_parallel j gc;
      let dt = Float.max 1e-6 (Cgc.Stats.now_s () -. t0) in
      max 3 (int_of_float (ceil (1.0 /. dt)))
    end
  in
  Format.printf "@.  parallel tracer (host: %d cores recommended):@."
    (Domain.recommended_domain_count ());
  let results =
    List.map
      (fun j ->
        let iters = calibrate_wall j in
        let rate, words, marked = time_wall j iters in
        let went_parallel = j <= 1 || !last_fallback = None in
        Format.printf "  jobs=%d    : %11.0f words/s  (%d words, %d objects per cycle; %d cycles)%s@."
          j rate words marked iters
          (if went_parallel then ""
           else
             Printf.sprintf "  UNEXPECTED FALLBACK: %s"
               (Cgc.Mark.Parallel.fallback_to_string (Option.get !last_fallback)));
        json_float (Printf.sprintf "mark_jobs%d_words_per_sec" j) rate;
        (j, rate, words, marked, went_parallel))
      sweep
  in
  let jobs_parity =
    List.for_all (fun (_, _, w, m, p) -> w = fast_words && m = fast_marked && p) results
  in
  json_int "mark_jobs_cores" (Domain.recommended_domain_count ());
  json_bool "mark_jobs_parity" jobs_parity;
  let rate_of j = List.find_map (fun (j', r, _, _, _) -> if j = j' then Some r else None) results in
  (match (rate_of 1, rate_of 4) with
  | Some r1, Some r4 ->
      Format.printf "  jobs=4 speedup: %.2fx vs jobs=1, %.2fx vs reference scan loop@." (r4 /. r1)
        (r4 /. ref_rate);
      json_float "mark_jobs4_speedup" (r4 /. r1);
      json_float "mark_jobs4_speedup_vs_reference" (r4 /. ref_rate)
  | _ -> ());
  Format.printf "  parity    : words and objects per cycle %s across jobs@."
    (if jobs_parity then "identical" else "DIVERGED — parallel tracer is wrong");
  if not jobs_parity then begin
    Format.eprintf "mark throughput: parallel tracer diverged from the serial scanner@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Memory-pressure resilience: the chaos matrix                        *)
(* ------------------------------------------------------------------ *)

(* Every backend (conservative, generational, explicit) crossed with
   every seeded fault plan — refused commits plus the read/write access
   faults; the JSON carries the aggregated allocation-ladder rung and
   access-fault counts, so a regression in graceful degradation (a rung
   no longer reached, a read fault no longer downgraded, or OOM raised
   where relaxation used to rescue) shows up as a diff. *)
let resilience ~smoke ?collectors () =
  section "Resilience"
    "randomized mutator under injected commit/read/write faults (cross-collector chaos matrix)";
  let steps = if smoke then 400 else 1500 in
  let outcomes = W.Chaos.run_matrix ~steps ?collectors ~seed () in
  List.iter (Format.printf "  %a@.%!" W.Chaos.pp_outcome) outcomes;
  let dirty = List.filter (fun o -> not (W.Chaos.clean o)) outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let sum_s f = sum (fun o -> f o.W.Chaos.stats) in
  Format.printf "@.  %d/%d scenario runs clean; %d faults injected, %d requests pushed to OOM@."
    (List.length outcomes - List.length dirty)
    (List.length outcomes)
    (sum (fun o -> o.W.Chaos.faults_injected))
    (sum (fun o -> o.W.Chaos.ooms_caught));
  json_int "resilience_steps_per_run" steps;
  json_int "resilience_runs" (List.length outcomes);
  json_int "resilience_clean_runs" (List.length outcomes - List.length dirty);
  json_int "resilience_faults_injected" (sum (fun o -> o.W.Chaos.faults_injected));
  json_int "resilience_ooms_caught" (sum (fun o -> o.W.Chaos.ooms_caught));
  json_int "resilience_blacklist_overrides" (sum (fun o -> o.W.Chaos.overrides));
  json_int "resilience_ladder_collects" (sum_s (fun s -> s.Cgc.Stats.ladder_collects));
  json_int "resilience_ladder_trims" (sum_s (fun s -> s.Cgc.Stats.ladder_trims));
  json_int "resilience_ladder_expansions" (sum_s (fun s -> s.Cgc.Stats.ladder_expansions));
  json_int "resilience_ladder_backoffs" (sum_s (fun s -> s.Cgc.Stats.ladder_backoffs));
  json_int "resilience_ladder_relax_first_page"
    (sum_s (fun s -> s.Cgc.Stats.ladder_relax_first_page));
  json_int "resilience_ladder_relax_black" (sum_s (fun s -> s.Cgc.Stats.ladder_relax_black));
  json_int "resilience_commit_faults" (sum_s (fun s -> s.Cgc.Stats.commit_faults));
  json_int "resilience_oom_raised" (sum_s (fun s -> s.Cgc.Stats.oom_raised));
  json_int "resilience_read_faults" (sum_s (fun s -> s.Cgc.Stats.read_faults));
  json_int "resilience_write_faults" (sum_s (fun s -> s.Cgc.Stats.write_faults));
  json_int "resilience_mark_downgrades" (sum_s (fun s -> s.Cgc.Stats.mark_downgrades));
  json_int "resilience_pages_decayed" (sum_s (fun s -> s.Cgc.Stats.pages_decayed));
  json_int "resilience_decay_retries" (sum_s (fun s -> s.Cgc.Stats.decay_retries));
  json_int "resilience_mutator_read_faults" (sum (fun o -> o.W.Chaos.mutator_read_faults));
  json_int "resilience_mutator_write_faults" (sum (fun o -> o.W.Chaos.mutator_write_faults));
  json_int "resilience_precise_collections" (sum_s (fun s -> s.Cgc.Stats.precise_collections));
  json_int "resilience_precise_mark_aborts" (sum_s (fun s -> s.Cgc.Stats.precise_mark_aborts));
  json_int "resilience_precise_stale_roots" (sum_s (fun s -> s.Cgc.Stats.precise_stale_roots));
  (let retention = List.filter_map (fun o -> o.W.Chaos.retention) outcomes in
   json_int "resilience_precise_retention_cells" (List.length retention);
   json_bool "resilience_precise_retention_subset"
     (List.for_all (fun (p, c) -> p <= c) retention);
   json_int "resilience_precise_retention_gap"
     (List.fold_left (fun acc (p, c) -> acc + (c - p)) 0 retention));
  List.iter
    (fun c ->
      let name = W.Chaos.collector_name c in
      let of_c = List.filter (fun o -> String.equal o.W.Chaos.collector name) outcomes in
      if of_c <> [] then begin
        json_int (Printf.sprintf "resilience_%s_runs" name) (List.length of_c);
        json_int
          (Printf.sprintf "resilience_%s_clean_runs" name)
          (List.length (List.filter W.Chaos.clean of_c))
      end)
    W.Chaos.all_collectors;
  Format.printf
    "@.(every injected fault is followed by a crash-coherence audit and a fault-free@.\
     allocation; 'clean' means no invariant violation, no exception leak, and full@.\
     recovery once faults stop — the ladder rungs above show how each config coped)@.";
  if dirty <> [] then begin
    Format.eprintf "resilience: chaos matrix violations@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Static starvation prediction vs the measured oom_diagnosis          *)
(* ------------------------------------------------------------------ *)

(* The analyzer's starvation predictor classifies each matrix scenario
   from the recorded trace and a static collector model alone; the same
   scenario then runs against the real collector, whose
   [Gc.Out_of_memory] diagnosis (or successful ladder rescue) is the
   measured column.  A drifting classifier shows up as a mismatch and
   fails the bench; the per-scenario classes land in the JSON so CI
   diffs catch silent reclassification too. *)
let starvation () =
  section "Starvation" "static OOM-diagnosis prediction vs the collector's verdict";
  let entries = A.Scenarios.starvation_matrix () in
  Format.printf "  %-18s | %-18s %-18s | %s@." "scenario" "predicted" "measured"
    "collector diagnosis";
  Format.printf "  %s@." (String.make 88 '-');
  List.iter
    (fun (e : A.Scenarios.matrix_entry) ->
      Format.printf "  %-18s | %-18s %-18s | %s@.%!" e.A.Scenarios.m_name
        (A.Starvation.class_name e.A.Scenarios.m_predicted)
        (A.Starvation.class_name e.A.Scenarios.m_measured)
        (match e.A.Scenarios.m_oom with
        | Some d -> Cgc.Gc.oom_message d
        | None ->
            if e.A.Scenarios.m_ladder_rungs > 0 then
              Printf.sprintf "rescued (%d ladder rungs)" e.A.Scenarios.m_ladder_rungs
            else "no pressure"))
    entries;
  let agree =
    List.filter (fun (e : A.Scenarios.matrix_entry) ->
        e.A.Scenarios.m_predicted = e.A.Scenarios.m_measured)
      entries
  in
  let ooms =
    List.filter (fun (e : A.Scenarios.matrix_entry) -> e.A.Scenarios.m_oom <> None) entries
  in
  let decayed =
    List.filter
      (fun (e : A.Scenarios.matrix_entry) ->
        match e.A.Scenarios.m_oom with
        | Some d -> d.Cgc.Gc.memory_decayed
        | None -> false)
      entries
  in
  Format.printf "@.  %d/%d classifications agree; %d scenarios die of OOM (%d memory-decayed)@."
    (List.length agree) (List.length entries) (List.length ooms) (List.length decayed);
  json_int "starvation_scenarios" (List.length entries);
  json_int "starvation_agree" (List.length agree);
  json_int "starvation_ooms" (List.length ooms);
  json_int "starvation_memory_decayed" (List.length decayed);
  List.iter
    (fun (e : A.Scenarios.matrix_entry) ->
      json_string
        (Printf.sprintf "starvation_%s_predicted" e.A.Scenarios.m_name)
        (A.Starvation.class_name e.A.Scenarios.m_predicted);
      json_string
        (Printf.sprintf "starvation_%s_measured" e.A.Scenarios.m_name)
        (A.Starvation.class_name e.A.Scenarios.m_measured))
    entries;
  Format.printf
    "@.(the predictor sees only the trace: recorded allocation-site kinds, the static@.\
     blacklist-bucket geometry, and any declared decay plan — never the collector's@.\
     runtime state; agreement is the analyzer's cross-validation claim)@.";
  if List.length agree <> List.length entries then begin
    Format.eprintf "starvation: static prediction diverged from the collector@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel timing suites (footnote 3's microbenchmarks)               *)
(* ------------------------------------------------------------------ *)

let timing () =
  section "Timing" "Bechamel microbenchmarks (ns per operation)";
  let open Bechamel in
  let open Toolkit in
  (* persistent environments shared by the staged closures *)
  let make_gc () =
    let mem = Mem.create () in
    let gc = Cgc.Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(16 * 1024 * 1024) () in
    gc
  in
  let gc_garbage = make_gc () in
  let gc_atomic = make_gc () in
  let mem_e = Mem.create () in
  let explicit =
    Cgc.Explicit.create mem_e ~base:(Addr.of_int 0x400000) ~max_bytes:(16 * 1024 * 1024) ()
  in
  (* a 1 MB live heap for whole-collection and classification benches *)
  let mem_live = Mem.create () in
  let data_live =
    Mem.map mem_live ~name:"roots" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000
  in
  let gc_live = Cgc.Gc.create mem_live ~base:(Addr.of_int 0x400000) ~max_bytes:(16 * 1024 * 1024) () in
  Cgc.Gc.add_static_root gc_live ~lo:(Segment.base data_live) ~hi:(Segment.limit data_live)
    ~label:"roots";
  let prev = ref 0 in
  for _ = 1 to 1024 * 1024 / 8 do
    let c = Cgc.Gc.allocate gc_live 8 in
    Cgc.Gc.set_field gc_live c 1 !prev;
    prev := Addr.to_int c;
    Segment.write_word data_live (Segment.base data_live) !prev
  done;
  let rng = Rng.create seed in
  let heap_live = Cgc.Gc.heap gc_live in
  let config_live = Cgc.Gc.config gc_live in
  let tests =
    [
      Test.make ~name:"gc-alloc-8B-garbage" (Staged.stage (fun () -> ignore (Cgc.Gc.allocate gc_garbage 8)));
      Test.make ~name:"gc-alloc-8B-atomic"
        (Staged.stage (fun () -> ignore (Cgc.Gc.allocate ~pointer_free:true gc_atomic 8)));
      Test.make ~name:"malloc-free-8B"
        (Staged.stage (fun () ->
             let a = Cgc.Explicit.malloc explicit 8 in
             Cgc.Explicit.free explicit a));
      Test.make ~name:"classify-random-word"
        (Staged.stage (fun () -> ignore (Cgc.Mark.classify heap_live config_live (Rng.word rng))));
      Test.make ~name:"collect-1MB-live" (Staged.stage (fun () -> Cgc.Gc.collect gc_live));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.6) ~stabilize:true () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Format.printf "  %-28s %12.1f ns/op@.%!" name est
          | Some [] | None -> Format.printf "  %-28s (no estimate)@." name)
        results)
    (List.map (fun t -> Test.make_grouped ~name:"t" ~fmt:"%s/%s" [ t ]) tests);
  Format.printf
    "@.paper: \"the stand-alone collector can still allocate and collect an 8 byte@.\
     object in around 2 microseconds under optimal conditions ... much faster than@.\
     malloc/free round-trip times for most malloc implementations\"  (absolute@.\
     numbers differ — ours pay the simulation tax — the ordering is what matters)@.";
  Format.printf "@.collection pause under churn (500k garbage cons cells, mixed live set):@.";
  let mem = Mem.create () in
  let data =
    Mem.map mem ~name:"roots" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000
  in
  let gc = Cgc.Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(16 * 1024 * 1024) () in
  Cgc.Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"roots";
  (* 256 KB stays live throughout *)
  let prev = ref 0 in
  for _ = 1 to 256 * 1024 / 8 do
    let c = Cgc.Gc.allocate gc 8 in
    Cgc.Gc.set_field gc c 1 !prev;
    prev := Addr.to_int c;
    Segment.write_word data (Segment.base data) !prev
  done;
  for _ = 1 to 500_000 do
    ignore (Cgc.Gc.allocate gc 8)
  done;
  let s = Cgc.Gc.stats gc in
  Format.printf "  %3d collections, mean pause %7.2f ms (mark %5.2f ms of it)@.%!"
    s.Cgc.Stats.collections
    (1000. *. s.Cgc.Stats.total_gc_seconds /. float_of_int (max 1 s.Cgc.Stats.collections))
    (1000. *. s.Cgc.Stats.mark_seconds /. float_of_int (max 1 s.Cgc.Stats.collections))

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("table1", `Table1);
    ("fig1", `Fig1);
    ("fig34", `Fig34);
    ("stack-clearing", `Stack);
    ("structures", `Structures);
    ("large-object", `Large);
    ("dual-run", `Dual);
    ("fragmentation", `Frag);
    ("generational", `Generational);
    ("pcr-threads", `Threads);
    ("ablations", `Ablations);
    ("overhead", `Overhead);
    ("alloc", `Alloc);
    ("mark", `Mark);
    ("resilience", `Resilience);
    ("starvation", `Starvation);
    ("timing", `Timing);
  ]

(* The value of [flag] in [args] as a positive integer, [default] when
   the flag is absent; a missing, non-integer or non-positive value exits
   2 with a message instead of running with a guess. *)
let positive_flag args flag ~default =
  let bad what =
    Format.eprintf "%s expects a positive integer, got %s@." flag what;
    exit 2
  in
  let rec find = function
    | f :: n :: _ when String.equal f flag -> (
        match int_of_string_opt n with
        | Some v when v >= 1 -> v
        | Some _ | None -> bad (Printf.sprintf "%S" n))
    | [ f ] when String.equal f flag -> bad "nothing"
    | _ :: rest -> find rest
    | [] -> default
  in
  find args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let paper_scale = List.mem "--paper-scale" args in
  let smoke = List.mem "--smoke" args in
  let json = List.mem "--json" args in
  let seeds = positive_flag args "--seeds" ~default:1 in
  let json_out =
    let rec find = function
      | "--json-out" :: path :: _ -> path
      | _ :: rest -> find rest
      | [] -> "BENCH.json"
    in
    find args
  in
  let parity_ref =
    let rec find = function
      | "--parity-ref" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
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
  let jobs = positive_flag args "--jobs" ~default:4 in
  let collectors =
    let rec find = function
      | "--collector" :: "all" :: _ -> None
      | "--collector" :: name :: _ -> (
          match
            List.find_opt
              (fun c -> String.equal (W.Chaos.collector_name c) name)
              W.Chaos.all_collectors
          with
          | Some c -> Some [ c ]
          | None ->
              Format.eprintf "unknown collector %s; collectors: %s all@." name
                (String.concat " " (List.map W.Chaos.collector_name W.Chaos.all_collectors));
              exit 1)
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let rec strip = function
    | "--seeds" :: _ :: rest -> strip rest
    | "--json-out" :: _ :: rest -> strip rest
    | "--parity-ref" :: _ :: rest -> strip rest
    | "--collector" :: _ :: rest -> strip rest
    | "--jobs" :: _ :: rest -> strip rest
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let wanted =
    List.filter (fun a -> not (List.mem a [ "--paper-scale"; "--smoke"; "--json" ])) (strip args)
  in
  json_enabled := json;
  json_string "bench" "boehm93-reproduction";
  json_bool "smoke" smoke;
  json_bool "paper_scale" paper_scale;
  json_int "seeds" seeds;
  let selected =
    if wanted = [] then List.map snd all_sections
    else
      List.map
        (fun name ->
          match List.assoc_opt name all_sections with
          | Some s -> s
          | None ->
              Format.eprintf "unknown section %s; sections: %s@." name
                (String.concat " " (List.map fst all_sections));
              exit 1)
        wanted
  in
  Format.printf
    "Space Efficient Conservative Garbage Collection (Boehm, PLDI 1993) — reproduction@.";
  List.iter
    (fun s ->
      match s with
      | `Table1 -> table1 ~paper_scale ~seeds ~smoke ()
      | `Fig1 -> fig1 ()
      | `Fig34 -> fig34 ()
      | `Stack -> stack_clearing ()
      | `Structures -> structures ()
      | `Large -> large_object ()
      | `Dual -> dual_run ()
      | `Frag -> fragmentation ()
      | `Generational -> generational ()
      | `Threads -> pcr_threads ()
      | `Ablations -> ablations ()
      | `Overhead -> overhead ()
      | `Alloc -> alloc_probe ()
      | `Mark -> mark_throughput ~smoke ~jobs ()
      | `Resilience -> resilience ~smoke ?collectors ()
      | `Starvation -> starvation ()
      | `Timing -> timing ())
    selected;
  if json then begin
    json_write json_out;
    Option.iter (fun reference -> check_table1_parity json_out ~reference) parity_ref
  end
