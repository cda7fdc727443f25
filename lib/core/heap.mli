(** The collector-managed heap region.

    One contiguous region of the simulated address space is reserved for
    the heap at creation time; pages inside it are committed on demand in
    address order (like [sbrk]).  Because the region is fixed, "the
    vicinity of the heap" of the paper's figure 2 — addresses that
    "could conceivably become valid object addresses as a result of
    later allocation" — is exactly this region, which is what the
    blacklist covers. *)

open Cgc_vm

type t

(** {1 The page table}

    One row per page, indexed by page number: each page's fields are one
    packed row of [row_stride] ints in [d_rows], beside pointer columns
    for its bitmap words, layout and large-object record.  A header-cache
    miss in {!Mark} reads one row — adjacent loads from one array, no
    variant match, no record pointer — and takes the page's bitmap words
    straight from the [d_alloc]/[d_mark] columns.  {!page} builds a
    {!Page.t} view of one on demand, sharing the words arrays and the
    large record, so writes through a view (bitset operations,
    [l_allocated], [l_marked]) reach the table.  Paths that run per
    collection, allocation miss or free read the rows through the
    accessors below, never a view, and change a page's kind only
    through {!carve_small}, {!place_large} and {!release}; {!set_page}
    serves audits and tests.  Which object an address names is answered
    in one place, {!find_object}. *)
type desc = {
  d_rows : int array;
      (** page [i]'s row is [d_rows.(i * row_stride + f)] for the field
          offsets [f] below *)
  d_alloc : int array array;  (** small pages: the alloc bitmap's words; [[||]] elsewhere *)
  d_mark : int array array;  (** small pages: the mark bitmap's words *)
  d_layout : Page.layout array;  (** small pages: their layout (a large head's is in its record) *)
  d_pointer_offsets : int array array;
      (** typed pages: their descriptor's [pointer_offsets]; [[||]] elsewhere *)
  d_large : Page.large array;  (** large heads: the object's record *)
}

val row_stride : int
(** 8: ints per row. *)

(** Field offsets within a row. *)

val row_kind : int
(** {!Page.kind_code} of the page. *)

val row_object_bytes : int
(** Small pages: the slot size; large heads: the object's size; 0 elsewhere. *)

val row_extent : int
(** {!scan_extent} of the page's layout and [row_object_bytes]. *)

val row_first_offset : int
val row_n_objects : int
(** Small pages: slots; large heads: 1; 0 elsewhere. *)

val row_recip_mul : int
(** Small pages: [(rel * mul) lsr shift = rel / object_bytes] for every
    [0 <= rel < page_size] (see {!reciprocal}); 0 elsewhere. *)

val row_recip_shift : int
val row_head : int
(** Large tail: its head page; otherwise the page itself. *)

val described : int
(** -1: the scan extent of a typed layout. *)

val scan_extent : Page.layout -> object_bytes:int -> int
(** What the marker scans of an object of the layout: a conservative
    object's [object_bytes] (every word), 0 for a pointer-free one
    (nothing), {!described} for a typed one (its pointer offsets, from
    [d_pointer_offsets]). *)

val desc : t -> desc

val reciprocal : page_size:int -> int -> int * int
(** [reciprocal ~page_size d] is the exact Granlund–Montgomery reciprocal
    [(m, s)] of the divisor [d]: [(rel * m) lsr s = rel / d] for every
    [0 <= rel < page_size], with no overflow for [page_size <= 2^30].  The
    mark fast path indexes objects with it instead of a hardware divide. *)

val page_shift : t -> int
(** [log2 (page_size t)]; [page_index t a = (a - base t) lsr page_shift t]. *)

val create : Mem.t -> config:Config.t -> base:Addr.t -> max_bytes:int -> t
(** Reserve [max_bytes] (rounded up to whole pages) at [base] and commit
    [config.initial_pages]. *)

val segment : t -> Segment.t

val mem : t -> Mem.t
(** The address space the heap lives in — the fault boundary scan loops
    and field accessors consult for injected read/write faults. *)

val base : t -> Addr.t
val limit_reserved : t -> Addr.t
(** One past the reserved region: any value in [\[base, limit_reserved)]
    is "in the vicinity of the heap". *)

val page_size : t -> int
val n_pages : t -> int
(** Total reserved pages. *)

val committed_pages : t -> int
val committed_bytes : t -> int

val contains : t -> Addr.t -> bool
(** Whether an address falls in the reserved region. *)

val page_index : t -> Addr.t -> int
(** Page number of an address inside the reserved region.  The caller
    must check {!contains} first. *)

val page_addr : t -> int -> Addr.t
(** Base address of page [i]. *)

val page : t -> int -> Page.t
(** A view of page [i]'s row, built on each call: for inspection,
    audits and tests, not for hot paths. *)

val set_page : t -> int -> Page.t -> unit
(** Write page [i]'s row from a view.  A small page's bitsets' words
    and a large head's record become the table's own.  For audits and
    tests that build a page table by hand. *)

val iter_committed : t -> (int -> Page.t -> unit) -> unit
(** Apply to a view of every committed page in address order. *)

(** {2 Row accessors}

    What per-collection, allocation-miss and free paths read of page [i]
    without a view: its {!Page.kind_code}; whether it is [Free] or
    [Uncommitted]; a small page's fields; a large head's record. *)

val kind : t -> int -> int
val vacant : t -> int -> bool
val object_bytes : t -> int -> int
val first_offset : t -> int -> int
val small_layout : t -> int -> Page.layout
val alloc_words : t -> int -> int array
val mark_words : t -> int -> int array
val large : t -> int -> Page.large

val slot : t -> int -> Addr.t -> int
(** Small page [i]: the index of the slot based at the address, or -1
    when the address is not one of the page's slot bases. *)

val find_object : t -> Addr.t -> int
(** The base of the allocated object whose bytes include the address,
    or -1: a small page's slot, or a large object from any of its pages
    (a tail resolves to its head).  The page it resolved is the base's,
    [page_index t base] — the head, for a large object.  Exact, with no
    pointer-validity policy: {!Mark.valid_base} applies the configured
    rules to it.  Reads rows only and allocates nothing. *)

(** {2 Page transitions} *)

val carve_small : t -> int -> object_bytes:int -> layout:Page.layout -> first_offset:int -> int
(** Make page [i] a small page of empty [object_bytes] slots from
    [first_offset] on; returns how many slots fit. *)

val place_large : t -> int -> object_bytes:int -> layout:Page.layout -> Addr.t
(** Write an allocated, unmarked large object of [object_bytes] at page
    [i]: its head there and a tail on each further page it needs.
    The pages must be committed and vacant.  Returns its base. *)

val release : t -> int -> int
(** Return small page [i], or the whole large run headed at [i] (its
    record marked unallocated), to [Free]; returns how many pages.
    @raise Invalid_argument on any other kind of page. *)

val find_run : t -> n:int -> ok:(first:bool -> int -> bool) -> int option
(** The lowest start of [n] consecutive vacant pages (committed-[Free]
    or uncommitted) whose first page passes [ok ~first:true] and whose
    other pages pass [ok ~first:false]; [None] when no such run fits in
    the reservation.  A run may extend past the committed watermark: the
    caller commits it ({!commit_through}).  Every placement, small page
    or large run, takes its pages from here.

    [ok ~first:true i] must imply [ok ~first:false i], so one left-to-right
    pass is exact and asks [ok] at most once per vacant page.  With no
    committed page [Free], the search starts at the watermark. *)

val uncommit_trailing_free : t -> int
(** Lower the committed watermark past any trailing [Free] pages,
    handing them back to the (simulated) OS; returns how many.  Each
    released page is refunded to the OS commit quota
    ({!Cgc_vm.Mem.uncommit}), so trimming can unblock a quota-starved
    later commit. *)

val commit_through : t -> int -> bool
(** Ensure pages [0 .. i] are committed; newly committed pages become
    [Free].  Returns false if [i] exceeds the reserved region.  Each
    page is charged to the simulated OS ({!Cgc_vm.Mem.commit}) before it
    is committed, one page at a time, so an injected fault surfaces as
    {!Cgc_vm.Mem.Commit_failed} while the already-committed prefix stays
    coherent (the watermark only ever covers fully committed pages). *)

val free_page_count : t -> int
(** Committed pages currently [Free]: a count every row write keeps, so
    O(1). *)

val clear_marks : t -> unit
(** Clear every mark bit in the committed heap. *)

type mark_snapshot

val mark_snapshot : unit -> mark_snapshot
(** An empty snapshot, for {!save_marks_into}. *)

val save_marks_into : t -> mark_snapshot -> unit
(** Copy every committed page's mark state into the snapshot, replacing
    what it held.  Its storage is reused, and grown only when the heap
    has outgrown it: a save into a snapshot that already held this
    heap's marks allocates nothing. *)

val restore_marks : t -> mark_snapshot -> unit
(** Put back the marks of the last {!save_marks_into}.  Only meaningful
    while the page table has not changed since the save: nothing
    allocated or swept. *)

val is_marked : t -> Addr.t -> bool
(** Whether the object based at the address is marked; [false] on a
    page that holds no object base. *)

val mark_object : t -> Addr.t -> bool
(** Set the mark bit of the allocated object based at the address;
    returns true when it was not already marked.  The address must be a
    valid object base. *)

val object_layout : t -> Addr.t -> int * Page.layout
(** [(size_bytes, layout)] of the allocated object based at the address
    (which must be a valid object base). *)

val live_bytes : t -> int
(** Sum of allocated object bytes over all committed pages (a full scan;
    meant for statistics and tests, not hot paths). *)

val pp : Format.formatter -> t -> unit
