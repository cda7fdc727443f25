(** Dynamic fix verification: re-enact a recorded program against a
    fresh real collector and measure what it retains.

    The replay rebuilds the recorded world at new addresses, rebasing
    every value tagged with an object id onto the object's replay
    address (interior offsets preserved) and passing untagged raws
    through verbatim, so false references and semantic edges survive
    relocation.  Reads are normalized to (object id, offset) tokens so
    two replays can be compared observationally despite different
    address layouts. *)

type token =
  | T_obj of int * int  (** live trace object id, interior offset *)
  | T_raw of int

type run = {
  rp_gc_points : int;
  rp_retained : int list;
      (** bytes of trace objects still allocated after each collection *)
  rp_total_retained : int;
  rp_reads : token list;
  rp_allocated : int;
  rp_skipped : int;
      (** heap accesses dropped because the collector had (correctly)
          freed the object — nonzero only for reads the recorded
          program also never depended on *)
}

type comparison = {
  cmp_before : run;
  cmp_after : run;
  cmp_retention_drop : int;
      (** original minus fixed total retention; positive = fix helps *)
  cmp_reads_equal : bool;
}

val run : Ir.program -> run

val compare_fix : Ir.program -> Fixes.edit list -> comparison
(** Replay the program and its edited form; the fix is dynamically
    verified when [cmp_reads_equal] and [cmp_retention_drop > 0]. *)

(** {1 Generational replay}

    The same trace re-enacted through a fresh {!Cgc.Generational}
    wrapper: every [Gc_point] runs a minor collection, and the recorded
    [Write_barrier] events are re-applied as [Generational.set_field]
    stores so the dirty bits evolve exactly as the original mutator
    drove them (plain [Heap_write]s stay unbarriered, as recorded). *)

type gen_audit = {
  ga_dirty : int list;  (** dirty pages entering this minor collection *)
  ga_carried : int list;
      (** the subset carried over from the previous minor's rescan *)
  ga_barriered : int list;
      (** old pages targeted by replayed barrier stores since the last
          minor — [ga_dirty] must equal [ga_carried ∪ ga_barriered] *)
}

type gen_run = {
  gr_run : run;
  gr_stats : Cgc.Generational.stats;
      (** counters over the trace window (before the closing major) *)
  gr_old : (int * int) list;
      (** (id, bytes) of trace objects on promoted pages at trace end *)
  gr_old_bytes : int;
  gr_major_reclaimed : int;
      (** bytes of [gr_old] a closing major collection takes back *)
  gr_audits : gen_audit list;  (** one per GC point, in trace order *)
}

val run_generational : ?promote_after:int -> Ir.program -> gen_run

val audit_exact : gen_audit -> bool
(** The dirty-bit lifecycle invariant: the dirty set entering a minor
    collection is exactly the union of the pages carried by the
    previous rescan and the old pages barrier stores hit since (holds
    whenever no emergency major intervened between the two minors). *)

(** Promoted garbage is the bytes of trace objects that ended on old
    pages despite being precisely dead at the last GC point — the §3.1
    garbage that no minor collection will ever reclaim: measured
    placement ([gr_old]) crossed with the analyzer's ground-truth
    liveness. *)
type gen_comparison = {
  gcmp_before : gen_run;
  gcmp_after : gen_run;
  gcmp_retention_drop : int;
  gcmp_garbage_before : int;  (** promoted garbage of the original *)
  gcmp_garbage_after : int;  (** promoted garbage of the fixed form *)
  gcmp_garbage_drop : int;
  gcmp_reads_equal : bool;
}

val compare_fix_generational :
  ?promote_after:int -> Ir.program -> Fixes.edit list -> gen_comparison
(** Replay the program and its edited form through fresh generational
    collectors; beyond {!compare_fix}'s retention/observation checks,
    reports how much promoted garbage the fix prevents. *)

val pp_comparison : Format.formatter -> comparison -> unit
