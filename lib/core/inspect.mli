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
