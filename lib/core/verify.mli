(** Internal consistency checking.

    [check gc] audits the collector's data structures — page-table
    shape, allocation-cursor integrity, generation-independent accounting — and
    returns a list of human-readable violations (empty when healthy).
    Tests run it after randomized operation sequences; it is cheap
    enough to call in anger when debugging the collector itself. *)

val check : Gc.t -> string list
(** Verified invariants:
    - committed/uncommitted page-table shape is well-formed;
    - every large object's tail pages point back at its head and lie
      within the object's extent;
    - small-page geometry fits inside the page;
    - the flat descriptor table ({!Heap.desc}) agrees row-by-row with
      the page variants: every field of each packed row, physical
      identity of the words columns with the page's bitsets' words and
      of the large-object records the scan fast path mutates, and a
      typed row's pointer offsets;
    - mark bits only cover allocated slots (and a marked large head is
      an allocated one): the marker never marks a free or
      quarantine-removed slot;
    - every allocation cursor names an open page of its own size class
      and layout (small, not quarantined), or no page;
    - every registered finalizer watches a currently allocated object;
    - [Heap.live_bytes] is internally consistent with the page
      descriptors. *)

val check_after_collect : Gc.t -> string list
(** Everything {!check} does, plus post-collection-only invariants: all
    small-page mark bits are clear and the statistics' live counters
    agree with the heap. *)

val check_after_fault : Gc.t -> string list
(** Everything {!check} does, plus the crash-coherence invariants an
    injected fault must not break: no large object extends past the
    committed watermark (a run cut short mid-commit must have been
    abandoned as [Free] pages), and no size-class page holds more
    allocated slots than its capacity (no half-initialized carve). *)

val check_heap : Heap.t -> string list
(** The heap-level subset of {!check} — page-table shape, descriptor
    coherence and the mark ⊆ alloc audit — usable against any backend
    sharing the page substrate (e.g. the {!Explicit} baseline), without
    needing a [Gc.t]. *)

val exact_reachable : Precise.t -> Cgc_vm.Addr.t list
(** The exact-reachable closure of the precise view's roots, in address
    order, walked through the descriptors' pointer offsets with
    {!Gc.get_field} (not the trace kernel), with no fault plan armed.
    After a completed {!Precise.collect} it is the allocated set. *)

val check_precise_mark : Precise.t -> string list
(** Audit the precise (type-accurate) view against its wrapped heap:
    {!check_heap} (whose mark ⊆ alloc audit covers the exact marker's
    bits too), no root provider names a freed or decayed address, and —
    the two-discipline inclusion — every object in the
    exact-reachable closure is covered by a shadow conservative mark of
    the same heap (precise marks ⊆ conservative marks).  Any armed
    fault plan is lifted for the duration and restored, and the shadow
    mark runs on a marker of its own that writes only mark bits, which
    are restored, so the audit never perturbs the experiment it is
    auditing.  Safe to
    call at any point, including right after an aborted precise mark. *)

val check_parallel_mark : Gc.t -> string list
(** {!check_heap} of the collector's heap.  Kept only for gcbench's
    frozen [mark_parallel.*] probe, and deleted with it. *)
