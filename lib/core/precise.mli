(** Precise (type-accurate) mark-sweep baseline.

    The control for every misidentification experiment: it shares the
    conservative collector's heap, allocator, trace kernel and sweeper
    but marks from an {e exact} root set through {e exact} pointer maps
    ({!Type_desc.t}), so "there are no false references in our sense"
    (paper section 4).  Differences in retention between this collector
    and the conservative one are, by construction, entirely due to
    conservativism.

    Layouts live on pages ({!Gc.Internal.allocate_typed}), so
    {!Mark.trace} reads only a typed object's pointer words; the precise
    view runs it on a {!Mark.t} of its own whose classifier accepts
    object bases only, blacklists nothing and stops at a faulting read.
    A collect frees nothing unless its trace read every word it needed
    (see {!collect}): never an escaped [Mem] exception over a
    half-marked heap. *)

open Cgc_vm

exception Mark_aborted
(** An exact mark phase was abandoned after an access fault, in the
    trace or in a root provider.  The heap is coherent when this
    escapes {!collect}: mark bits are restored to their pre-collect
    state and no sweep ran ([Stats.precise_mark_aborts] counts these). *)

type t

val create : Gc.t -> t
(** Wrap a conservative collector's machinery and take over its
    liveness discipline.  [create] turns the wrapped collector's
    auto-collection off and installs a {!Gc.set_collect_hook} so the
    allocation budget and the escalation ladder's Collect rung call
    back into {!collect} — the wrapped heap is never marked
    conservatively behind the precise view's back.  (A hook-triggered
    collect that aborts under faults is absorbed: the ladder proceeds
    to its next rung and the collect is retried a budget later.)
    [create] also registers the exact roots as a conservative register
    file, so an explicitly requested conservative mark sees a superset
    of the precise roots by construction. *)

val gc : t -> Gc.t

val allocate : ?finalizer:string -> t -> Type_desc.t -> Addr.t
(** Allocate an object of the described type on a page of its layout.
    Atomic descriptors allocate [pointer_free].  Either discipline —
    this one, and a conservative {!Gc.collect} of the same heap — reads
    only a typed object's pointer words and never scans an atomic one. *)

val add_root_provider : t -> (unit -> Addr.t list) -> unit
(** Register a provider of exact root object addresses (bases).
    Providers returning freed or decayed addresses are counted in
    [Stats.precise_stale_roots] and reported by {!last_stale_roots},
    never silently swallowed. *)

val collect : t -> unit
(** Snapshot the marks, clear them, drop (and count) stale provider
    roots, then run the trace kernel from the remaining ones and sweep
    (shared sweeper; finalization behaves identically).  The kernel's
    mark stack and overflow recovery follow [Config.mark_stack_limit].
    The kernel stops at the first word it cannot read (counted in
    [Stats.mark_downgrades]), and the collect gives up: one trace per
    collect, never rerun.  An abort resets the allocation budget, as a
    completed collect does, so a budget-triggered collect that aborted
    runs again a budget's worth of allocation later, not at the next
    allocation.

    @raise Mark_aborted when a root provider faults or the trace read
    a faulting word; mark state is restored and nothing is swept. *)

val descriptor : t -> Addr.t -> Type_desc.t option
(** The layout of the allocated object based at the address, read from
    its page: [None] for pointer-free and untyped objects and for
    addresses that are no allocated object's base. *)

val roots_now : t -> Addr.t list
(** The current exact root set, concatenated across providers (a
    provider that faults contributes nothing). *)

val last_stale_roots : t -> Addr.t list
(** Stale provider roots (freed/decayed addresses) observed by the most
    recent {!collect}, oldest first, capped at a handful. *)

val live_objects : t -> int
(** From the shared statistics of the most recent sweep. *)
