(** Section 3, observation 7: large objects vs the blacklist.

    "A quick examination of the blacklist in a statically linked SPARC
    executable suggests that if all interior pointers are considered
    valid, it becomes difficult to allocate individual objects larger
    than about 100 Kbytes without violating the blacklist constraint ...
    This is never a problem if addresses that do not point to the first
    page of an object can be considered invalid."

    The probe builds the SPARC-static environment (startup collection
    populates the blacklist from static data), then tries to place a
    single object of each size under both interior-pointer regimes. *)

type failure =
  | Blacklist_starved
      (** room for the object existed, the blacklist vetoed it — the
          observation-7 failure proper *)
  | Out_of_pages  (** the reserve genuinely has no run of that size *)
  | Os_refused  (** an injected commit fault blocked placement *)

type probe = {
  size_kb : int;
  anywhere_ok : bool;  (** placeable when the whole run must be clean *)
  anywhere_failure : failure option;
      (** why placement failed (from the collector's {!Cgc.Gc.oom_diagnosis}) *)
  first_page_ok : bool;  (** placeable when only the first page must be *)
  first_page_failure : failure option;
}

type result = {
  black_pages : int;  (** blacklist population after startup *)
  heap_pages : int;
  probes : probe list;
  largest_anywhere_kb : int;  (** largest size that fit under [Anywhere]; 0 if none *)
  largest_first_page_kb : int;
}

val run : ?seed:int -> ?platform:Platform.t -> sizes_kb:int list -> unit -> result

val pp : Format.formatter -> result -> unit
