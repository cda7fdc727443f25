(** Platform presets for the Table 1 experiments.

    Appendix B of the paper explains why each platform retained what it
    did; a preset packages those causes as simulation parameters:

    - {b SPARC (static)}: SunOS 4.1.1 statically linked.  "The static
      version of the C library contains several large arrays (totalling
      more than 35K) of seemingly random integer values, apparently used
      for base conversion in the IO library"; strings "are not
      word-aligned by the compiler we used"; register windows are not
      cleared.  The sbrk-style layout puts the heap at low addresses
      where those integer values collide with it.
    - {b SPARC (dynamic)}: the shared C library keeps those arrays out
      of the image; only modest static pollution remains.
    - {b SGI (static)}: IRIX 4.0.x, big-endian MIPS, aligned strings;
      "the high variation in retained storage ... is presumably due to
      varying register contents after system call or trap returns".
    - {b OS/2 (static)}: 80486, C Set/2; "program T was modified to only
      allocate 100 lists totalling 10 MB, due to memory constraints";
      "measurements appeared completely reproducible".
    - {b PCR}: Cedar world on a SPARCstation 2; "each list consisted of
      12500 8-byte cells"; 1.5-13 MB of other live data; "the PCR
      collector does not attempt to clear thread stacks". *)

open Cgc_vm

(** How the static-data pollution is composed. *)
type pollution = {
  conversion_table_words : int;
      (** words of base-conversion-style constants (d * 10^k, d * 2^k):
          many land in a low heap's address range *)
  library_offset_words : int;
      (** words of library tables drawn uniformly from
          [\[0, library_band_bytes)] — sizes, offsets, saved break
          values, "variables that basically contained the heap size" *)
  library_band_bytes : int;
  packed_string_bytes : int;
      (** unaligned back-to-back C strings; on a big-endian machine the
          trailing NUL plus the next string's first bytes parse as small
          word values (appendix B, SPARC) *)
  aligned_string_bytes : int;  (** word-aligned strings (SGI-style) *)
  random_words : int;  (** words uniform over the whole 32-bit space *)
  io_buffer_bytes : int;  (** zero-filled buffer space (harmless) *)
  churn_words : int;
      (** static words rewritten with fresh values {e while the program
          runs} — appendix B's residual-leak source ("statically
          allocated variables that changed occasionally, but not
          frequently"); these arrive too late for the blacklist to steer
          allocation away *)
}

module Machine = Cgc_mutator.Machine

val no_pollution : pollution
(** All-zero composition — a clean static segment, for control runs. *)

type t = {
  name : string;
  description : string;
  endian : Endian.t;
  layout : Layout.t;
  scan_alignment : int;
      (** 1 when the compiler does not word-align pointers in scanned
          data, else 4 *)
  pollution : pollution;
  machine_config : Machine.config;
      (** frame and register behaviour: optimization level, register
          residue, kernel-call noise (the paper's non-reproducibility),
          and whether the collector clears dead stack *)
  lists : int;  (** program T: number of lists *)
  nodes_per_list : int;
  cell_bytes : int;
  other_live_bytes : int;  (** PCR: pre-existing live data in the world *)
  gc_tweak : Cgc.Config.t -> Cgc.Config.t;
      (** final adjustments to the collector configuration *)
}

val sparc_static : optimized:bool -> t
val sparc_dynamic : optimized:bool -> t
val sgi_static : optimized:bool -> t
val os2_static : optimized:bool -> t
val pcr : t

val clean : ?machine_config:Machine.config -> unit -> t
(** Not a table-1 row: a deterministic, pollution- and noise-free
    environment (small lists, little-endian, word-aligned scanning) in
    which every retained byte is attributable to the mutator program
    itself.  Trace-based analysis cross-validates against runs on this
    platform.  Default machine configuration: {!Machine.hygienic_config}. *)

val all : t list
(** The nine rows of table 1 (PCR is a single "mixed" row). *)

(** {1 Environment construction} *)

type env = {
  mem : Mem.t;
  data : Segment.t;  (** static data segment, registered as a root *)
  stack : Segment.t;
  gc : Cgc.Gc.t;
  machine : Machine.t;
  globals_base : Addr.t;
      (** start of the clean area inside [data] reserved for the
          workload's own global variables (e.g. program T's [a\[\]]) *)
  globals_words : int;
}

val build_env : ?seed:int -> ?blacklisting:bool -> ?heap_max:int -> t -> env
(** Materialize the platform: map the layout, fill the data segment with
    the configured pollution, create the collector (with the platform's
    scan alignment and the requested blacklisting mode) and the machine,
    and register the data segment, machine stack and registers as
    roots. *)

val conversion_value : Cgc_vm.Rng.t -> int
(** One sample of the integer-like static-data distribution (powers of
    ten / two with digit noise) — shared with the section 2 studies. *)

val churn : env -> t -> Cgc_vm.Rng.t -> unit
(** Rewrite [churn_words] words of the polluted static area with fresh
    conversion-style values (the occasionally-changing static variables
    of appendix B). *)

val scale : ?lists:int -> ?nodes_per_list:int -> t -> t
(** Override program T's size (for quick runs). *)

val pp : Format.formatter -> t -> unit
