(** Typed-allocation chaos mutator.

    A seeded random soak that allocates exclusively through
    {!Cgc.Precise.allocate} with {!Cgc.Type_desc} layouts (cons cells,
    atomic blobs, embedded-link records, large arrays), maintains exact
    root providers as it links, unlinks and drops objects, and
    re-enacts the conservative soak repertoire (field reads and writes,
    explicit collects, trims) — the capability the untyped
    random mutator cannot provide, and the precondition for driving the
    precise collector through the chaos matrix.

    A {!trace} is a pure function of its seed: an op sequence over
    abstract object ids, generated against an internal reachability
    model so that no op ever touches an object the model has already
    collected.  A {!session} replays one trace against {e two} heaps in
    lockstep — the precise view under test (which may have a fault plan
    armed) and a plain conservative {e twin} on its own pristine memory
    — and checks the paper's directional invariant at every completed
    exact collect: precise retention never exceeds conservative
    retention on the same typed trace.  Scalar writes seed heap-looking
    values into non-pointer words, so the gap the twin opens up is
    exactly the misidentification the paper measures. *)

type kind = Cons | Link_cell | Blob | Record | Large_atomic | Large_array

type op =
  | Alloc of { id : int; kind : kind; rooted : bool; attach : (int * int) option }
      (** allocate object [id]; [attach = Some (parent, field)] links it
          from a live parent instead of rooting it *)
  | Link of { src : int; field : int; dst : int }
  | Unlink of { src : int; field : int }
  | Unroot of int
  | Reroot of int
  | Read of { src : int; word : int }
  | Write_scalar of { src : int; word : int; value : int }
      (** a scalar (non-pointer-map) word write; about half the values
          are heap-looking — the misidentification seed *)
  | Collect
  | Idle
      (** an idle step: neither side acts.  It keeps its share of the
          seeded op mix, so a seed's other ops stay what they are *)
  | Trim

val trace : seed:int -> steps:int -> op array
(** Deterministic in [seed]; at most [steps] ops (precondition-less
    steps are skipped).  Ops only ever reference objects the internal
    model still considers reachable, so exact liveness and model
    liveness coincide on the precise side. *)

type session

val make_session : config:Cgc.Config.t -> Cgc.Precise.t -> op array -> session
(** Build the differential session: registers an exact root provider on
    the precise view and constructs the conservative twin (own
    {!Mem.t}, same scenario [config] but serial marking and eager
    sweeps, never a fault plan). *)

val step : session -> op -> [ `Ok | `Oom | `Read_fault | `Write_fault | `Aborted ]
(** Apply one op to both sides.  The result classifies the {e precise}
    side: typed faults and {!Cgc.Precise.Mark_aborted} are caught and
    reported, never escaped.  An op the faulting side lost (a store
    that never landed, an allocation that never happened) is skipped on
    the twin as well — the twin replays the trace as executed, so the
    precise heap's edges and roots stay a subset of the twin's.
    [Collect] collects both sides and, when the exact mark completed,
    compares retention (the twin collects even when the precise mark
    aborted, keeping the sides in lockstep). *)

val issues : session -> string list
(** Differential violations recorded so far (empty when the invariant
    held at every completed collect). *)

val last_retention : session -> (int * int) option
(** [(precise_live, conservative_live)] at the most recent completed
    exact collect. *)

val twin_ooms : session -> int
(** Twin-side allocation failures.  Nonzero suspends the retention
    comparison (the subset argument needs every twin allocation to
    succeed); the chaos driver keeps twin pressure low enough that this
    stays 0. *)

val collects_completed : session -> int
