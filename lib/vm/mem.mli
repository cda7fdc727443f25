(** The simulated process address space.

    A [Mem.t] is an ordered collection of non-overlapping {!Segment.t}s
    inside one 32-bit space, with a byte order shared by all segments.
    It plays the role of the operating system's VM map: components
    obtain memory with {!map} (at a fixed address, like the collector
    "requesting memory from the operating system at a garbage-collector
    specified location") or {!map_anywhere}.

    It is also the fault boundary of the simulated OS.  An installed
    {!Fault.plan} makes {!commit} (page commits charged by the heap) and
    {!map} fail deterministically — by countdown, seeded probability,
    address predicate, or a byte quota standing in for an OS memory
    limit — so collector robustness under memory pressure is testable
    rather than incidental.

    Plans can also target the {e read/write} path: a tripped guarded
    read models an uncorrectable ECC error (the access raises
    {!Read_fault}; memory itself is untouched, so results return to
    normal once the plan is lifted), and with [decay_bytes] set the
    tripped access permanently decays a whole region — the mapped bytes
    are overwritten with {!poison_word}'s byte pattern and every further
    guarded access there fails with reason {!Fault.Decayed}, modeling a
    mapping that has rotted out from under the process.  Decay outlives
    the plan: lifting or replacing the plan does not heal it. *)

type t

exception Address_space_exhausted of { requested : int }
(** Raised by {!map_anywhere} when no gap in the 32-bit space can hold
    the request: the simulated OS is out of address space.  Distinct
    from [Invalid_argument] (a programming error such as an overlapping
    fixed-base mapping). *)

(** {1 Fault injection} *)

module Fault : sig
  type reason =
    | Countdown  (** the armed charge count ran out *)
    | Chance  (** the seeded per-charge probability fired *)
    | Address  (** the address predicate matched *)
    | Quota  (** the byte quota would be exceeded *)
    | Decayed  (** the access landed in an already-decayed region *)

  val reason_to_string : reason -> string

  type target =
    | Commits  (** commit/map charges only (the PR 3 behavior) *)
    | Reads  (** guarded reads only *)
    | Writes  (** guarded writes only *)
    | Access  (** guarded reads and writes *)

  type plan

  val plan :
    ?countdown:int ->
    ?rearm:bool ->
    ?probability:float * int ->
    ?addr_pred:(Addr.t -> bool) ->
    ?quota_bytes:int ->
    ?target:target ->
    ?decay_bytes:int ->
    unit ->
    plan
  (** A deterministic, seeded fault plan.
      - [countdown n] (n > 0): the [n]-th chargeable operation after
        installation fails; with [rearm:true] every subsequent [n]-th
        charge fails too, otherwise the countdown disarms after firing.
      - [probability (p, seed)]: each charge independently fails with
        probability [p], drawn from a private SplitMix64 stream.
      - [addr_pred]: charges whose address satisfies the predicate fail.
      - [quota_bytes q]: cumulative committed bytes (commits minus
        {!uncommit} refunds, counted from plan installation) may not
        exceed [q]; a commit that would cross the quota fails without
        debiting it — exactly an OS refusing to commit more memory.
      - [target] (default [Commits]): which operations the plan arms.
        Countdown, probability, and predicate draw from one shared
        stream across all armed operations; the quota only ever applies
        to commits.
      - [decay_bytes n] (word multiple, default 0): when a guarded
        access trips, the aligned [n]-byte region containing it decays
        permanently — its mapped bytes are poisoned and every later
        guarded read or write there fails with reason {!Decayed}, whether
        this plan, another plan or no plan is installed (decay belongs
        to the address space, not to the plan).  With [0], a tripped read
        is a transient single-word ECC corruption and a tripped write is
        a one-off refusal; memory contents are left intact. *)

  val injected : plan -> int
  (** Faults this plan has injected so far. *)

  val charged_bytes : plan -> int
  (** Net committed bytes charged against the quota so far. *)

  val read_faults : plan -> int
  (** Guarded reads this plan has faulted (ECC trips plus decayed hits). *)

  val write_faults : plan -> int
  (** Guarded writes this plan has faulted. *)

  val decayed_bytes : plan -> int
  (** Total bytes across the regions this plan has decayed. *)

  val pp : Format.formatter -> plan -> unit
end

exception
  Commit_failed of {
    op : string;  (** ["commit"] or ["map"] *)
    addr : Addr.t;
    bytes : int;
    reason : Fault.reason;
  }
(** An injected commit/map failure.  The collector's allocation ladder
    absorbs these; they escape to user code only through components that
    do not guard their commits. *)

exception Read_fault of { addr : Addr.t; value : int; reason : Fault.reason }
(** An injected read failure.  [value] is the poison pattern the
    corrupted location yielded ({!poison_word} for word reads).  The
    marker absorbs these by downgrading the word to "not a pointer";
    they reach user code through {!read_word} and collector field
    accessors. *)

exception Write_fault of { addr : Addr.t; bytes : int; reason : Fault.reason }
(** An injected write failure: the store did {e not} happen.  The
    collector's allocation path absorbs these by quarantining the
    decayed page and retrying; they reach user code through
    {!write_word} and collector field accessors. *)

val poison_word : int
(** The 32-bit pattern a decayed region returns ([0xDEDEDEDE]): every
    byte is [0xDE], so word reads at any alignment observe it, and it
    lies outside any simulated heap so a conservative scan classifies it
    as "not a pointer". *)

val set_fault_plan : t -> Fault.plan option -> unit
(** Install (or clear) the fault plan.  Quota accounting starts from
    zero at installation.  Regions an earlier plan decayed stay
    decayed. *)

val fault_plan : t -> Fault.plan option
val faults_injected : t -> int
(** Total injected faults across every plan ever installed.  A decayed
    word hit while no plan is installed faults but is not counted. *)

val commit : t -> addr:Addr.t -> bytes:int -> unit
(** Charge one commit of [bytes] at [addr] against the fault plan.
    A no-op without a plan.  @raise Commit_failed when the plan says so;
    on success the bytes are debited from the quota. *)

val uncommit : t -> addr:Addr.t -> bytes:int -> unit
(** Refund committed bytes to the quota (the heap returning pages to the
    OS).  Never fails. *)

val read_faults_armed : t -> bool
(** Whether a guarded read can fault: the installed plan (if any) arms
    reads, or some region has decayed.  Scan loops consult this once per
    range to keep the fault-free fast path free of per-word checks. *)

val write_faults_armed : t -> bool
(** Whether a guarded write can fault: the installed plan (if any) arms
    writes, or some region has decayed. *)

val access_faults_armed : t -> bool
(** [read_faults_armed || write_faults_armed]. *)

val probe_read : t -> Addr.t -> Fault.reason option
(** Consult the decayed regions, then the plan, for one guarded word
    read at the address without raising.  [Some reason] means the read
    faulted (the trip state was consumed and per-plan stats were
    counted); the caller chooses how to surface it — the marker
    downgrades, {!guard_read} raises.  With no plan installed and
    nothing decayed this is a single test. *)

val probe_write : t -> Addr.t -> Fault.reason option
(** Same for one guarded word write at the address.  A write
    overlapping a decayed region faults with {!Fault.Decayed}. *)

val guard_read : t -> Addr.t -> unit
(** {!probe_read}, raising {!Read_fault} on a trip. *)

val guard_write : t -> bytes:int -> Addr.t -> unit
(** Consult the plan for one guarded write of [bytes] at the address,
    raising {!Write_fault} on a trip.  [bytes] is a plain label, not an
    optional argument, so the allocator's zeroing call boxes nothing. *)

val range_decayed : t -> Addr.t -> bytes:int -> bool
(** Whether [addr, addr+bytes) overlaps a decayed region.  A pure query:
    no trip state is consumed, nothing is counted. *)

(** {1 Address space} *)

val create : ?endian:Endian.t -> unit -> t
(** A fresh, empty address space (default little-endian). *)

val endian : t -> Endian.t

val map : t -> name:string -> kind:Segment.kind -> base:Addr.t -> size:int -> Segment.t
(** Create and register a segment at a fixed base address.  Reserves
    address space only; commit charging happens through {!commit}.
    @raise Invalid_argument if it would overlap an existing segment.
    @raise Commit_failed if the installed fault plan fails the mapping. *)

val map_anywhere : t -> name:string -> kind:Segment.kind -> ?above:Addr.t -> size:int -> unit -> Segment.t
(** Map at the lowest page-aligned (4 KB) gap at or above [above]
    (default 0x1000, keeping page zero unmapped).
    @raise Address_space_exhausted when no gap fits. *)

val unmap : t -> Segment.t -> unit
(** Remove a segment.  Accesses through it afterwards are errors. *)

val find : t -> Addr.t -> Segment.t option
(** The segment containing the given address, if mapped. *)

val is_mapped : t -> Addr.t -> bool

val read_word : t -> Addr.t -> int
(** Read a 32-bit word at any mapped (possibly unaligned) address.
    @raise Invalid_argument if unmapped or crossing a segment end.
    @raise Read_fault if the installed plan faults the read. *)

val write_word : t -> Addr.t -> int -> unit
(** @raise Write_fault if the installed plan faults the write. *)

val read_u8 : t -> Addr.t -> int
val write_u8 : t -> Addr.t -> int -> unit

val pp : Format.formatter -> t -> unit
