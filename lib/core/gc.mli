(** The conservative garbage collector — public facade.

    A [Gc.t] owns a reserved heap region inside a simulated address
    space ({!Cgc_vm.Mem}), allocates headerless objects from
    size-classed pages, and reclaims them by conservative mark-sweep
    with page blacklisting, reproducing the collector of Boehm's
    PLDI'93 paper.

    Typical use:
    {[
      let mem = Mem.create () in
      let gc = Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(8*1024*1024) () in
      Gc.add_static_root gc ~lo ~hi ~label:"data";
      let cell = Gc.allocate gc 8 in
      Gc.set_field gc cell 0 some_value;
      Gc.collect gc
    ]} *)

open Cgc_vm

type t

(** {1 Failure semantics}

    A request that cannot be satisfied outright climbs an escalation
    ladder — collect, trim + retry, grow with capped-backoff expansion
    sizing, optional blacklist relaxation — before {!Out_of_memory} is
    raised.
    Each rung is counted in {!Stats}; the raise carries a diagnosis. *)

type rung =
  | Collect  (** a collection forced on behalf of the request *)
  | Trim  (** trailing free pages returned to the OS, refunding commit quota *)
  | Grow  (** batch heap expansion with capped backoff *)
  | Relax_first_page
      (** large-object blacklist strictness dropped to first-page-only
          (observation 7's escape hatch; requires [Config.relax_blacklist]) *)
  | Relax_black
      (** placement permitted on blacklisted pages outright, counted as
          overrides (requires [Config.relax_blacklist]) *)

type oom_diagnosis = {
  request_bytes : int;
  request_pages : int;
  small : bool;  (** served from a size-classed page *)
  pointer_free : bool;
  pages_reserved : int;
  pages_committed : int;
  pages_free : int;  (** committed [Free] pages at raise time *)
  pages_blacklisted : int;
  rungs : rung list;  (** ladder rungs attempted, in order *)
  blacklist_starved : bool;
      (** room for the request exists when the blacklist is ignored — the
          failure is observation 7's, not a true out-of-pages condition *)
  os_refused : bool;
      (** at least one (injected) commit/map fault was absorbed while
          serving this request *)
  pages_decayed : int;  (** pages quarantined after their memory decayed *)
  memory_decayed : bool;
      (** at least one write fault forced a quarantine-and-retry while
          serving this request: the request died of decayed memory, not
          of a mere shortage *)
}

exception Out_of_memory of oom_diagnosis
(** Raised when the reserved region cannot satisfy a request even after
    the whole escalation ladder ran dry (the simulated OS has no more
    memory to give, or the blacklist starves the request). *)

val oom_message : oom_diagnosis -> string

val create : ?config:Config.t -> Mem.t -> base:Addr.t -> max_bytes:int -> unit -> t
(** Reserve the heap; nothing is collected yet.  The paper's startup
    collection, "at least one (normally very fast) garbage collection
    occurring just after system start up before any allocation has
    taken place", runs at the first allocation made with auto-collect
    on and no collect hook, so false references already in the roots
    are blacklisted before any object is placed.  Register roots before
    that allocation, or call {!collect} once after registering them. *)

val config : t -> Config.t
val mem : t -> Mem.t

(** {1 Roots} *)

val add_static_root : t -> lo:Addr.t -> hi:Addr.t -> label:string -> unit
val add_dynamic_roots : t -> label:string -> (unit -> Roots.range list) -> unit
val add_register_roots : t -> label:string -> (unit -> int array) -> unit

val exclude_roots : t -> lo:Addr.t -> hi:Addr.t -> label:string -> unit
(** Never scan this sub-range of any registered root ("it is useful ...
    to avoid scanning large static data areas that contain seemingly
    random, nonpointer areas (e.g. IO buffers)"). *)

val clear_roots : t -> unit

(** {1 Allocation} *)

val allocate : ?pointer_free:bool -> ?finalizer:string -> t -> int -> Addr.t
(** [allocate gc bytes] returns the base of a fresh, zeroed object.
    [pointer_free] objects are never scanned
    ("it is essential to provide some way to communicate to the
    collector at least the fact that an entire large object contains no
    pointers").  [finalizer] registers a finalization token. *)

val auto_collect : t -> bool
val set_auto_collect : t -> bool -> unit
(** When off, collections happen only on explicit {!collect} calls
    (useful to tests and single-shot experiments). *)

val set_collect_hook : t -> (unit -> unit) option -> unit
(** When set, the allocation-budget check and the ladder's Collect rung
    invoke this closure instead of the conservative {!collect}.  Meant
    for wrappers that impose their own liveness discipline (the
    {!Precise} view): the wrapped heap is never marked conservatively
    behind the wrapper's back, yet allocation pressure still triggers
    collection.  The hook must leave the heap coherent even when its
    collection aborts, and should call {!Internal.note_collected} to
    reset the allocation budget after each attempt. *)

(** {1 Collection} *)

val collect : t -> unit
(** A full stop-the-world collection: conservative mark from all
    registered roots (updating the blacklist), then sweep.  The mark is
    always the serial {!Mark.run}, as in the paper's collector.
    Every page is swept before [collect] returns. *)

val trim : t -> int
(** Return trailing committed-but-free pages to the simulated OS
    (lowering the committed watermark).  Returns pages released.  The
    memory stays reserved — the blacklist still covers it — but no
    longer counts as committed heap. *)

(** {1 Object access} *)

val get_field : t -> Addr.t -> int -> int
(** [get_field gc base i] reads word [i] of the object at [base].
    @raise Mem.Read_fault when an installed fault plan trips the read
    (counted into [Stats.read_faults] first). *)

val set_field : t -> Addr.t -> int -> int -> unit
(** @raise Mem.Write_fault when an installed fault plan trips the write;
    the store does not happen. *)

val find_object : t -> Addr.t -> Addr.t option
(** Exact (non-configurable) query: base of the allocated object whose
    extent contains the address, if any.  Used by harnesses to decide
    retention; always recognizes interior addresses. *)

val is_allocated : t -> Addr.t -> bool
(** Whether the address is the base of a currently allocated object:
    one allocated and not reclaimed by a sweep since.  Garbage stays
    allocated until the next collection sweeps it. *)

val object_size : t -> Addr.t -> int option
(** Size in bytes of the allocated object based at the address. *)

(** {1 Finalization} *)

val add_finalizer : t -> Addr.t -> token:string -> unit
val drain_finalized : t -> (Addr.t * string) list

(** {1 Introspection} *)

val stats : t -> Stats.t
val heap : t -> Heap.t
val blacklist : t -> Blacklist.t
val blacklisted_pages : t -> int
val live_bytes : t -> int
(** From the statistics of the most recent sweep. *)

val pp : Format.formatter -> t -> unit

(** {1 Internals}

    Shared machinery exposed to the sibling baseline collectors
    ({!Precise}) and to white-box tests.  Not part of the stable API. *)
module Internal : sig
  val decayed_pages : t -> Bitset.t
  (** Pages quarantined after a decay write fault: excluded from every
      placement path, their slots never refunded by sweeps.  Exposed for
      {!Verify.check_after_fault} and the generational minor sweep. *)

  val finalize : t -> Finalize.t
  val roots : t -> Roots.t
  val marker : t -> Mark.t
  val run_sweep : t -> Sweep.result
  (** Sweep every page using whatever mark bits are currently set, then
      {!reopen}. *)

  val reopen : ?closed:(int -> bool) -> t -> unit
  (** Relink the allocation cursors' page chains after a sweep: each
      (size class, pointer_free) pair and typed layout walks its small
      pages in address order, skipping quarantined pages and those
      [closed] names (the generational minor sweep closes old pages). *)

  val allocate_typed : ?finalizer:string -> t -> Type_desc.t -> Addr.t
  (** {!allocate} [desc.size_bytes] on a page typed with [desc] (a small
      one carved for the layout alone, with a cursor of its own), whose
      pointer words are all the marker reads.  An atomic descriptor
      allocates [pointer_free].  For {!Precise}. *)

  val cursor_pages : t -> (int * Page.layout * int) list
  (** [(granules, layout, page)] for every size class and typed layout
      whose allocation cursor names a page.  For {!Verify}. *)

  val run_mark : t -> unit
  (** Mark phase only (no sweep): leaves mark bits set for inspection. *)

  val note_collected : t -> unit
  (** Reset the allocation budget that drives [maybe_collect], exactly
      as the conservative [collect] does on completion.  For
      {!set_collect_hook} wrappers: call after each exact cycle,
      completed or aborted (after an abort, so a permanent fault is
      retried a budget later rather than at every allocation). *)

  val run_mark_parallel : t -> jobs:int -> Mark.Parallel.outcome
  (** {!run_mark}, whatever [jobs] says, with the counts of this mark
      in one shard.  Kept only for gcbench's frozen [mark_parallel.*]
      probe, and deleted with it: the parallel tracer is gone. *)

  val is_marked : t -> Addr.t -> bool
  (** Valid only between [run_mark] and the next sweep. *)
end
