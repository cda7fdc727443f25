(** Heap introspection for humans.

    Summaries that the paper's authors evidently produced by hand while
    chasing references ("a quick examination of the blacklist in a
    statically linked SPARC executable suggests..."): per-size-class
    histograms, page-state maps, and blacklist overlays. *)

type class_row = {
  object_bytes : int;
  pointer_free : bool;
  pages : int;
  live_objects : int;
  free_slots : int;
  live_bytes : int;
}

type summary = {
  committed_pages : int;
  free_pages : int;
  blacklisted_pages : int;
  large_objects : int;
  large_bytes : int;
  classes : class_row list;  (** ascending object size; only classes in use *)
}

val summarize : Gc.t -> summary

val pp_summary : Format.formatter -> summary -> unit

val pp_page_map : Format.formatter -> Gc.t -> unit
(** One character per reserved page: [.] free or uncommitted, [s] small,
    [S] small and full, [A] atomic small, [L] large, [#] blacklisted
    (overrides), in address order, 64 pages per line. *)

(** {1 Provenance}

    Why is this object alive?  Re-exported from {!Trace}: a chain of
    root and heap-word steps from a scanned root down to the object. *)

type step = Trace.step =
  | Root of { label : string; at : Cgc_vm.Addr.t option; value : int }
  | Heap_word of { obj : Cgc_vm.Addr.t; at : Cgc_vm.Addr.t; value : int }

type chain = step list

val why_live : Gc.t -> Cgc_vm.Addr.t -> chain option
(** Depth-first chain from some root to the object holding the given
    address, as the conservative marker sees it: the path that
    {!Trace.why_live}'s provenance mark, a LIFO walk, discovers first,
    not always the shortest; [None] if nothing reaches it. *)

val pp_step : Format.formatter -> step -> unit
val pp_chain : Format.formatter -> chain -> unit
