open Cgc_vm
module Machine = Cgc_mutator.Machine

type pollution = {
  conversion_table_words : int;
  library_offset_words : int;
  library_band_bytes : int;
  packed_string_bytes : int;
  aligned_string_bytes : int;
  random_words : int;
  io_buffer_bytes : int;
  churn_words : int;
}

type t = {
  name : string;
  description : string;
  endian : Endian.t;
  layout : Layout.t;
  scan_alignment : int;
  pollution : pollution;
  machine_config : Machine.config;
  lists : int;
  nodes_per_list : int;
  cell_bytes : int;
  other_live_bytes : int;
  gc_tweak : Cgc.Config.t -> Cgc.Config.t;
}

let no_pollution =
  {
    conversion_table_words = 0;
    library_offset_words = 0;
    library_band_bytes = 1;
    packed_string_bytes = 0;
    aligned_string_bytes = 0;
    random_words = 0;
    io_buffer_bytes = 0;
    churn_words = 0;
  }

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* The paper's collector versions 2.3-2.5 used the stack-hygiene
   techniques of section 3.1 "whether or not blacklisting was enabled". *)
let boehm_machine ~optimized ~residue ~noise =
  {
    Machine.default_config with
    Machine.frame_padding = (if optimized then 2 else 8);
    allocator_self_cleanup = true;
    stack_clearing = true;
    register_residue = residue;
    syscall_noise = noise;
  }

let sparc_static ~optimized =
  {
    name = (if optimized then "sparc-static-opt" else "sparc-static");
    description = "SPARCstation 2, SunOS 4.1.1, statically linked C library";
    endian = Endian.Big;
    layout = Layout.sbrk_style ~data_size:(kb 192) ();
    scan_alignment = 1 (* the bundled cc did not word-align string data *);
    pollution =
      {
        conversion_table_words = 1150 (* the >35 KB of IO-library arrays *);
        library_offset_words = 60;
        library_band_bytes = mb 8;
        packed_string_bytes = 1536;
        aligned_string_bytes = 0;
        random_words = 400;
        io_buffer_bytes = kb 16;
        churn_words = 4;
      };
    machine_config = boehm_machine ~optimized ~residue:0.02 ~noise:0.002;
    lists = 200;
    nodes_per_list = 25_000;
    cell_bytes = 4;
    other_live_bytes = 0;
    gc_tweak = Fun.id;
  }

let sparc_dynamic ~optimized =
  {
    (sparc_static ~optimized) with
    name = (if optimized then "sparc-dynamic-opt" else "sparc-dynamic");
    description = "SPARCstation 2, SunOS 4.1.1, shared C library";
    pollution =
      {
        conversion_table_words = 30 (* the big arrays stay in the shared library *);
        library_offset_words = 10;
        library_band_bytes = mb 8;
        packed_string_bytes = 64;
        aligned_string_bytes = 0;
        random_words = 250;
        io_buffer_bytes = kb 8;
        churn_words = 4;
      };
  }

let sgi_static ~optimized =
  {
    name = (if optimized then "sgi-static-opt" else "sgi-static");
    description = "SGI 4D/35, IRIX 4.0.x, big-endian MIPS";
    endian = Endian.Big;
    layout = Layout.sbrk_style ~data_size:(kb 128) ();
    scan_alignment = 4 (* strings and pointers are word-aligned *);
    pollution =
      {
        conversion_table_words = 25;
        library_offset_words = 5;
        library_band_bytes = mb 8;
        packed_string_bytes = 0;
        aligned_string_bytes = kb 8;
        random_words = 120;
        io_buffer_bytes = kb 16;
        churn_words = 4;
      };
    machine_config =
      boehm_machine ~optimized ~residue:0.01
        ~noise:0.02 (* "varying register contents after system call or trap returns" *);
    lists = 200;
    nodes_per_list = 25_000;
    cell_bytes = 4;
    other_live_bytes = 0;
    gc_tweak = Fun.id;
  }

let os2_static ~optimized =
  {
    name = (if optimized then "os2-static-opt" else "os2-static");
    description = "80486, OS/2 2.0, C Set/2; 100 lists / 10 MB due to memory constraints";
    endian = Endian.Little;
    layout = Layout.mid_heap ~data_size:(kb 128) ();
    scan_alignment = 4;
    pollution =
      {
        conversion_table_words = 600;
        library_offset_words = 30;
        library_band_bytes = mb 8;
        packed_string_bytes = kb 1 (* little-endian: end-of-string hazard *);
        aligned_string_bytes = 0;
        random_words = 600;
        io_buffer_bytes = kb 16;
        churn_words = 160;
      };
    machine_config =
      boehm_machine ~optimized ~residue:0.0
        ~noise:0.0 (* "measurements appeared completely reproducible" *);
    lists = 100;
    nodes_per_list = 25_000;
    cell_bytes = 4;
    other_live_bytes = 0;
    gc_tweak = Fun.id;
  }

let pcr =
  {
    name = "pcr";
    description = "PCR/Cedar world, SPARCstation 2; 12500 8-byte cells per list";
    endian = Endian.Big;
    layout = Layout.mid_heap ~data_size:(kb 192) ();
    scan_alignment = 4;
    pollution =
      {
        conversion_table_words = 7400;
        library_offset_words = 80 (* statically allocated PCR variables *);
        library_band_bytes = mb 16;
        packed_string_bytes = 0;
        aligned_string_bytes = kb 4;
        random_words = 500;
        io_buffer_bytes = kb 16;
        churn_words = 420;
      };
    machine_config =
      {
        (boehm_machine ~optimized:false ~residue:0.02 ~noise:0.005) with
        Machine.stack_clearing = false (* "PCR does not attempt to clear thread stacks" *);
      };
    lists = 200;
    nodes_per_list = 12_500;
    cell_bytes = 8;
    other_live_bytes = mb 4 (* the 1.5-13 MB Cedar world, mid-range *);
    gc_tweak = Fun.id;
  }

(* A pollution-free, noise-free environment: every retained byte is
   attributable to the mutator program itself, which is what a trace
   analyzer needs to cross-validate its predictions exactly. *)
let clean ?(machine_config = Machine.hygienic_config) () =
  {
    name = "clean";
    description = "deterministic pollution-free environment for trace analysis";
    endian = Endian.Little;
    layout = Layout.mid_heap ~data_size:(kb 16) ();
    scan_alignment = 4;
    pollution = no_pollution;
    machine_config;
    lists = 12;
    nodes_per_list = 40;
    cell_bytes = 8;
    other_live_bytes = 0;
    gc_tweak = Fun.id;
  }

let all =
  [
    sparc_static ~optimized:false;
    sparc_static ~optimized:true;
    sparc_dynamic ~optimized:false;
    sparc_dynamic ~optimized:true;
    sgi_static ~optimized:false;
    sgi_static ~optimized:true;
    os2_static ~optimized:false;
    os2_static ~optimized:true;
    pcr;
  ]


let scale ?lists ?nodes_per_list t =
  {
    t with
    lists = Option.value lists ~default:t.lists;
    nodes_per_list = Option.value nodes_per_list ~default:t.nodes_per_list;
  }

(* --- pollution generators --- *)

(* Base-conversion-style constants: d * 10^k or d * 2^k with optional
   lower-digit noise.  Log-uniform over [1, ~1e8], so a fixed fraction
   lands in any low heap band — exactly the hazard of the paper's
   statically linked SPARC image. *)
let conversion_value rng =
  let d = 1 + Rng.int rng 9 in
  if Rng.bool rng then begin
    let k = Rng.int rng 8 in
    let pow = int_of_float (10. ** float_of_int k) in
    let noise = if Rng.bool rng then Rng.int rng (max 1 pow) else 0 in
    (d * pow) + noise
  end
  else begin
    let k = Rng.int rng 27 in
    let noise = if Rng.bool rng then Rng.int rng (max 1 (1 lsl k)) else 0 in
    (d lsl k) + noise
  end

let random_ascii_string rng =
  let len = 3 + Rng.int rng 10 in
  String.init len (fun _ -> Char.chr (0x21 + Rng.int rng 0x5E))

type env = {
  mem : Mem.t;
  data : Segment.t;
  stack : Segment.t;
  gc : Cgc.Gc.t;
  machine : Machine.t;
  globals_base : Addr.t;
  globals_words : int;
}

let globals_words_reserved = 1024

let fill_pollution t rng data ~limit =
  let cursor = ref (Addr.to_int (Segment.base data)) in
  let out_of_room n = !cursor + n > Addr.to_int limit in
  let put_word v =
    if not (out_of_room 4) then begin
      Segment.write_word data (Addr.of_int !cursor) v;
      cursor := !cursor + 4
    end
  in
  let put_string s =
    let n = String.length s + 1 in
    if not (out_of_room n) then begin
      Segment.blit_string data (Addr.of_int !cursor) s;
      cursor := !cursor + n (* keep the terminating NUL *)
    end
  in
  let p = t.pollution in
  for _ = 1 to p.conversion_table_words do
    put_word (conversion_value rng)
  done;
  for _ = 1 to p.library_offset_words do
    put_word (Rng.int rng p.library_band_bytes)
  done;
  let string_start = !cursor in
  while !cursor - string_start < p.packed_string_bytes do
    put_string (random_ascii_string rng)
  done;
  let aligned_start = !cursor in
  cursor := (!cursor + 3) land lnot 3;
  while !cursor - aligned_start < p.aligned_string_bytes do
    put_string (random_ascii_string rng);
    cursor := (!cursor + 3) land lnot 3
  done;
  cursor := (!cursor + 3) land lnot 3;
  for _ = 1 to p.random_words do
    put_word (Rng.word rng)
  done;
  (* io buffers stay zero-filled: the cursor just skips them *)
  cursor := !cursor + p.io_buffer_bytes

let build_env ?(seed = 1993) ?(blacklisting = true) ?heap_max t =
  let rng = Rng.create seed in
  let mem = Mem.create ~endian:t.endian () in
  let layout =
    match heap_max with
    | None -> t.layout
    | Some heap_max -> { t.layout with Layout.heap_max }
  in
  let _text, data, stack = Layout.apply layout mem in
  let globals_base =
    Addr.add (Segment.limit data) (-(globals_words_reserved * 4))
  in
  fill_pollution t (Rng.split rng) data ~limit:globals_base;
  let config =
    t.gc_tweak
      {
        Cgc.Config.default with
        Cgc.Config.alignment = t.scan_alignment;
        blacklisting;
        initial_pages = 16;
      }
  in
  let gc = Cgc.Gc.create ~config mem ~base:layout.Layout.heap_base ~max_bytes:layout.Layout.heap_max () in
  Cgc.Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"static data";
  let machine =
    Machine.create ~config:t.machine_config ~seed:(Rng.int rng 1_000_000) mem ~stack ~gc
  in
  { mem; data; stack; gc; machine; globals_base; globals_words = globals_words_reserved }

let churn env t rng =
  let data = env.data in
  let polluted_words = Addr.diff env.globals_base (Segment.base data) / 4 in
  if polluted_words > 0 then
    for _ = 1 to t.pollution.churn_words do
      let slot = Addr.add (Segment.base data) (4 * Rng.int rng polluted_words) in
      Segment.write_word data slot (conversion_value rng)
    done

let pp ppf t =
  Format.fprintf ppf "%s: %s (%s-endian, align %d, %d lists x %d x %dB)" t.name t.description
    (Endian.to_string t.endian) t.scan_alignment t.lists t.nodes_per_list t.cell_bytes
