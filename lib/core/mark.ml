open Cgc_vm

type classification =
  | Valid of { base : Addr.t; page : int }
  | False_in_heap of { page : int }
  | Outside

(* The paper's validity test as rules over the exact object map
   ([Heap.find_object]): an object's base is always valid; an interior
   address is valid on a small page when interior pointers are on or
   its displacement is registered, on a large head when they are on,
   and on a large tail when they are on everywhere.  For cold call
   sites (tracing, the generational dirty-page pass, the workloads);
   the kernel's [classify_row] is the fast form, and the differentials
   pin both to the test oracle's view-based classifier. *)
let classify heap (config : Config.t) value =
  if not (Heap.contains heap value) then Outside
  else begin
    let base = Heap.find_object heap value in
    let page = Heap.page_index heap value in
    let displacement = value - base in
    let head = Heap.page_index heap base in
    let valid =
      base >= 0
      && (displacement = 0
         || config.Config.interior_pointers
            && (head = page || config.Config.large_validity = Config.Anywhere)
         || head = page
            && Heap.kind heap page = Page.kind_small
            && List.mem displacement config.Config.valid_displacements)
    in
    if valid then Valid { base; page = head } else False_in_heap { page }
  end

type t = {
  heap : Heap.t;
  config : Config.t;
  blacklist : Blacklist.t;
  stats : Stats.t;
  mem : Mem.t;
      (* the fault boundary: while it arms read faults, range scans take
         the guarded loop, which probes it per word *)
  mutable reads_armed : bool;  (** [Mem.read_faults_armed mem] at the start of the trace *)
  mutable stack : int array;
      (* entries are (base, extent) pairs in consecutive slots; see [push] *)
  mutable sp : int;  (** the next free slot: twice the entry count *)
  mutable room : int;  (** slots [push] may fill inline: [min (length stack) (2 * stack_limit)] *)
  mutable overflowed : bool;
  stack_limit : int;  (** [Config.mark_stack_limit]; [max_int] = unbounded *)
  (* The trace's tallies, added to [stats] once as the trace ends
     ([flush_tallies]).  Only header-cache misses are counted: every
     in-heap word classified is exactly one valid or false reference,
     so the hits are [n_valid + n_false - n_misses]. *)
  mutable n_words : int;
  mutable n_valid : int;
  mutable n_false : int;
  mutable n_marked : int;
  mutable n_misses : int;
  (* Scan scalars hoisted out of the per-word path.  All are immutable
     copies of configuration/heap geometry that cannot change while the
     marker exists. *)
  rows : int array;  (** [Heap.desc]'s packed rows *)
  alloc_cols : int array array;  (** [Heap.desc]'s alloc words column *)
  mark_cols : int array array;  (** [Heap.desc]'s mark words column *)
  pointer_offsets : int array array;
  large : Page.large array;
  heap_seg : Segment.t;
  heap_bytes : Bytes.t;  (** the heap segment's backing store, based at [heap_lo] *)
  heap_little : bool;  (** the heap segment is little-endian *)
  heap_lo : int;
  heap_hi : int;  (** the reserved limit, which is also the heap segment's limit *)
  page_shift : int;
  page_mask : int;  (** [page_size - 1] *)
  alignment : int;
  alignment_shift : int;  (** [log2 alignment]: alignments are 1, 2 or 4 *)
  blocks : bool;
      (** unguarded scans read four words per step ([scan_blocks]):
          alignment 4 on a little-endian host, over a heap above address 0 *)
  interior : bool;
  tail_valid : bool;  (** interior pointers on and [large_validity = Anywhere] *)
  blacklisting : bool;
  disp_mask : int array;
  (* One-entry header cache (Boehm's HDR cache): a copy of the
     descriptor row of the page hit by the previous heap reference.
     Scanned pointers cluster heavily by page, so most lookups avoid
     even the row loads.  It serves classification only — a popped
     object's extent rides on its stack entry, so popping never evicts
     the row its children's lookups want.  [cache_page = -1] means
     empty; invalidated whenever the page table may have changed under
     us (at the start of every [trace]).  The bitmap words are pointers,
     and a store of a pointer into this long-lived record pays a write
     barrier (a C call), so a miss copies only the row's ints and reads
     the words from the columns; the words are cached on the row's
     first hit ([cache_words_page]). *)
  mutable cache_page : int;
  mutable cache_kind : int;
  mutable cache_object_bytes : int;
  mutable cache_first_offset : int;
  mutable cache_n_objects : int;
  mutable cache_recip_mul : int;
  mutable cache_recip_shift : int;
  mutable cache_head : int;
  mutable cache_extent : int;  (** what a small object of the row is pushed with *)
  mutable cache_words_page : int;  (** the page whose words the next two hold; -1 none *)
  mutable cache_alloc : int array;  (** the row's alloc bitmap words ([Bitset.t.words]) *)
  mutable cache_mark : int array;  (** the row's mark bitmap words *)
  stop_on_fault : bool;  (** end the trace at the first downgraded word *)
}

exception Stopped

(* The slots [push] may fill before its slow path must grow the stack or
   count an overflow.  [2 * limit] would wrap negative at [max_int]. *)
let room_of stack limit =
  if limit >= Array.length stack / 2 then Array.length stack else 2 * limit

let create ?(stop_on_fault = false) heap config blacklist stats =
  let stack = Array.make 2048 0 in
  let stack_limit = Option.value config.Config.mark_stack_limit ~default:max_int in
  {
    stop_on_fault;
    heap;
    config;
    blacklist;
    stats;
    mem = Heap.mem heap;
    reads_armed = false;
    stack;
    sp = 0;
    room = room_of stack stack_limit;
    overflowed = false;
    stack_limit;
    n_words = 0;
    n_valid = 0;
    n_false = 0;
    n_marked = 0;
    n_misses = 0;
    rows = (Heap.desc heap).Heap.d_rows;
    alloc_cols = (Heap.desc heap).Heap.d_alloc;
    mark_cols = (Heap.desc heap).Heap.d_mark;
    pointer_offsets = (Heap.desc heap).Heap.d_pointer_offsets;
    large = (Heap.desc heap).Heap.d_large;
    heap_seg = Heap.segment heap;
    heap_bytes = Segment.unsafe_bytes (Heap.segment heap);
    heap_little = Endian.equal (Segment.endian (Heap.segment heap)) Endian.Little;
    heap_lo = Addr.to_int (Heap.base heap);
    heap_hi = Addr.to_int (Heap.limit_reserved heap);
    page_shift = Heap.page_shift heap;
    page_mask = Heap.page_size heap - 1;
    alignment = config.Config.alignment;
    alignment_shift =
      (match config.Config.alignment with
      | 1 -> 0
      | 2 -> 1
      | 4 -> 2
      | _ -> invalid_arg "Mark.create: alignment must be 1, 2 or 4");
    blocks =
      config.Config.alignment = 4 && (not Sys.big_endian)
      && Addr.to_int (Heap.base heap) > 0;
    interior = config.Config.interior_pointers;
    tail_valid =
      config.Config.interior_pointers
      && (match config.Config.large_validity with
         | Config.Anywhere -> true
         | Config.First_page_only -> false);
    blacklisting = config.Config.blacklisting;
    disp_mask = Config.displacement_mask config;
    cache_page = -1;
    cache_kind = Page.kind_uncommitted;
    cache_object_bytes = 0;
    cache_first_offset = 0;
    cache_n_objects = 0;
    cache_recip_mul = 0;
    cache_recip_shift = 0;
    cache_head = 0;
    cache_extent = 0;
    cache_words_page = -1;
    cache_alloc = [||];
    cache_mark = [||];
  }

(* A stack entry is an object's base and its extent: a conservative
   small object's byte length (> 0), scanned inline by [drain]; 0 for a
   pointer-free object, whose pop does nothing; or [described] for an
   object [scan_object] scans from its descriptor row (typed and large
   objects).  Pointer-free objects are pushed all the same, so a
   bounded stack overflows at the same points whatever the layouts. *)
let described = -1

let push_slow t base extent =
  if t.sp lsr 1 >= t.stack_limit then begin
    (* the object IS marked; its children will be found by the
       overflow-recovery rescan *)
    if not t.overflowed then t.stats.Stats.mark_stack_overflows <- t.stats.Stats.mark_stack_overflows + 1;
    t.overflowed <- true
  end
  else begin
    let bigger = Array.make (2 * Array.length t.stack) 0 in
    Array.blit t.stack 0 bigger 0 t.sp;
    t.stack <- bigger;
    t.room <- room_of bigger t.stack_limit;
    bigger.(t.sp) <- base;
    bigger.(t.sp + 1) <- extent;
    t.sp <- t.sp + 2
  end

(* [sp] and [room] are even and [room <= length stack]. *)
let[@inline] push t base extent =
  let sp = t.sp in
  if sp < t.room then begin
    let stack = t.stack in
    Array.unsafe_set stack sp base;
    Array.unsafe_set stack (sp + 1) extent;
    t.sp <- sp + 2
  end
  else push_slow t base extent

(* --- the fast path ------------------------------------------------- *)

(* The hot loops below make no call into another compilation unit.  The
   default (dev) build compiles every module [-opaque], so an [@inline]
   on a function of [Bitset] or [Segment] does not reach this file: each
   would be a real call per scanned word or per bit test.  Heap words are
   read here through the bytes primitives [Segment] itself uses (and
   their 64-bit forms, for [scan_blocks]), and the alloc
   and mark bits are tested and set on the bitmap words directly, in the
   layout [Bitset.t] documents (62 members a word; the literal keeps the
   divisions by a constant).  Under [-opaque] another module's constant
   is a load from its module block too, so the kind codes and the row
   layout are literals here, tied to [Page] and [Heap] at module
   initialisation. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word_le bytes off =
  let v = get32u bytes off in
  let v = if Sys.big_endian then bswap32 v else v in
  Int32.to_int v land 0xFFFF_FFFF

let[@inline] word_be bytes off =
  let v = get32u bytes off in
  let v = if Sys.big_endian then v else bswap32 v in
  Int32.to_int v land 0xFFFF_FFFF

let bits_per_word = 62
let kind_small = 2
let kind_large_head = 3
let kind_large_tail = 4
let row_shift = 3
let row_kind = 0
let row_object_bytes = 1
let row_extent = 2
let row_first_offset = 3
let row_n_objects = 4
let row_recip_mul = 5
let row_recip_shift = 6
let row_head = 7

let () =
  assert (
    bits_per_word = Bitset.bits_per_word
    && kind_small = Page.kind_small
    && kind_large_head = Page.kind_large_head
    && kind_large_tail = Page.kind_large_tail
    && 1 lsl row_shift = Heap.row_stride
    && row_kind = Heap.row_kind
    && row_object_bytes = Heap.row_object_bytes
    && row_extent = Heap.row_extent
    && row_first_offset = Heap.row_first_offset
    && row_n_objects = Heap.row_n_objects
    && row_recip_mul = Heap.row_recip_mul
    && row_recip_shift = Heap.row_recip_shift
    && row_head = Heap.row_head
    && described = Heap.described)

(* Fill the header cache with page's descriptor row: eight adjacent
   int loads from one array, no variant match, no allocation, no write
   barrier.  [page] is in range by construction (every caller
   bounds-checks the address, and the rows span every reserved page).
   The row's extent is what a small object of the row is pushed with. *)
let load_header t page =
  let rows = t.rows and r = page lsl row_shift in
  t.cache_page <- page;
  t.cache_kind <- Array.unsafe_get rows (r + row_kind);
  t.cache_object_bytes <- Array.unsafe_get rows (r + row_object_bytes);
  t.cache_extent <- Array.unsafe_get rows (r + row_extent);
  t.cache_first_offset <- Array.unsafe_get rows (r + row_first_offset);
  t.cache_n_objects <- Array.unsafe_get rows (r + row_n_objects);
  t.cache_recip_mul <- Array.unsafe_get rows (r + row_recip_mul);
  t.cache_recip_shift <- Array.unsafe_get rows (r + row_recip_shift);
  t.cache_head <- Array.unsafe_get rows (r + row_head)

(* The cached row is hit again: keep its bitmap words too. *)
let cache_words t page =
  t.cache_words_page <- page;
  t.cache_alloc <- Array.unsafe_get t.alloc_cols page;
  t.cache_mark <- Array.unsafe_get t.mark_cols page

let[@inline] note_false t page =
  t.n_false <- t.n_false + 1;
  if t.blacklisting then Blacklist.note t.blacklist page

let[@inline] note_valid t = t.n_valid <- t.n_valid + 1

(* Classify-and-mark fused, against the cached descriptor row of [page]
   and its bitmap words [alloc_words] and [mark_words].  Mirrors
   [classify] exactly (the differential tests pin this), but never
   allocates: no classification constructor, no closure, no [Int32], and
   no divide — the object index comes from the row's exact reciprocal
   ([Heap.reciprocal]; [0 <= rel < page_size] holds here). *)
let[@inline] classify_row t value page alloc_words mark_words =
  let kind = t.cache_kind in
  if kind = kind_small then begin
    let rel = ((value - t.heap_lo) land t.page_mask) - t.cache_first_offset in
    if rel < 0 then note_false t page
    else begin
      let object_bytes = t.cache_object_bytes in
      let index = (rel * t.cache_recip_mul) lsr t.cache_recip_shift in
      let displacement = rel - (index * object_bytes) in
      let w = index / bits_per_word and bit = 1 lsl (index mod bits_per_word) in
      if index >= t.cache_n_objects then note_false t page
      else if Array.unsafe_get alloc_words w land bit = 0 then note_false t page
      else if
        displacement = 0 || t.interior
        || Config.displacement_in_mask t.disp_mask displacement
      then begin
        note_valid t;
        let marks = Array.unsafe_get mark_words w in
        if marks land bit = 0 then begin
          Array.unsafe_set mark_words w (marks lor bit);
          t.n_marked <- t.n_marked + 1;
          push t (value - displacement) t.cache_extent
        end
      end
      else note_false t page
    end
  end
  else if kind = kind_large_head then begin
    let l = Array.unsafe_get t.large page in
    if not l.Page.l_allocated then note_false t page
    else begin
      let off = (value - t.heap_lo) land t.page_mask in
      if off = 0 || (t.interior && off < l.Page.object_bytes) then begin
        note_valid t;
        if not l.Page.l_marked then begin
          l.Page.l_marked <- true;
          t.n_marked <- t.n_marked + 1;
          push t (value - off) described
        end
      end
      else note_false t page
    end
  end
  else if kind = kind_large_tail then begin
    if not t.tail_valid then note_false t page
    else begin
      let head = t.cache_head in
      let l = Array.unsafe_get t.large head in
      let head_addr = t.heap_lo + (head lsl t.page_shift) in
      if
        Array.unsafe_get t.rows ((head lsl row_shift) + row_kind) = kind_large_head
        && l.Page.l_allocated
        && value - head_addr < l.Page.object_bytes
      then begin
        note_valid t;
        if not l.Page.l_marked then begin
          l.Page.l_marked <- true;
          t.n_marked <- t.n_marked + 1;
          push t head_addr described
        end
      end
      else note_false t page
    end
  end
  else (* Free / Uncommitted *) note_false t page

(* One scanned word inside [heap_lo, heap_hi): a hit of the header
   cache classifies against the cached row (caching its words on the
   first hit), a miss copies the packed row and reads the words straight
   from the columns.  The scan loops test the bounds inline, so a word
   outside the heap costs no call.  Does NOT count the word into
   [n_words] — scans batch that per range. *)
let classify_in_heap t value =
  let page = (value - t.heap_lo) lsr t.page_shift in
  if page = t.cache_page then begin
    if t.cache_words_page <> page then cache_words t page;
    classify_row t value page t.cache_alloc t.cache_mark
  end
  else begin
    t.n_misses <- t.n_misses + 1;
    load_header t page;
    classify_row t value page (Array.unsafe_get t.alloc_cols page)
      (Array.unsafe_get t.mark_cols page)
  end

let[@inline] consider_heap t value =
  if value >= t.heap_lo && value < t.heap_hi then classify_in_heap t value

(* Guarded variant of the range scan, entered only while a fault plan
   arms reads: every word is probed against the plan first, and a word
   whose read faults (ECC trip or decayed region) is downgraded to "not
   a pointer" — counted, skipped, never retained, never a crash.  Kept
   out of [scan_words] so the fault-free loops stay closure-free. *)
let scan_words_guarded t seg ~lo ~hi =
  let bytes = Segment.unsafe_bytes seg in
  let sbase = Addr.to_int (Segment.base seg) in
  let alignment = t.alignment in
  let little = Endian.equal (Segment.endian seg) Endian.Little in
  let a = ref lo in
  while !a + 4 <= hi do
    (match Mem.probe_read t.mem (Addr.of_int !a) with
    | None ->
        let v =
          if little then word_le bytes (!a - sbase) else word_be bytes (!a - sbase)
        in
        consider_heap t v
    | Some _reason ->
        t.stats.Stats.read_faults <- t.stats.Stats.read_faults + 1;
        t.stats.Stats.mark_downgrades <- t.stats.Stats.mark_downgrades + 1;
        if t.stop_on_fault then raise_notrace Stopped);
    a := !a + alignment
  done

(* Closure-free scan of the words at [lo, lo + alignment, ...] with
   [addr + 4 <= hi], read straight out of [bytes] (the backing store of
   a segment based at [sbase]); [lo, hi) is already inside the segment
   and on the alignment grid.  One 32-bit load per word, specialized per
   byte order so the branch is hoisted out of the loop: the unguarded
   scan at alignments 1 and 2, and on a big-endian host. *)
let scan_each t bytes ~sbase ~little ~lo ~hi =
  let alignment = t.alignment and heap_lo = t.heap_lo and heap_hi = t.heap_hi in
  if little then begin
    let a = ref lo in
    while !a + 4 <= hi do
      let v = word_le bytes (!a - sbase) in
      if v >= heap_lo && v < heap_hi then classify_in_heap t v;
      a := !a + alignment
    done
  end
  else begin
    let a = ref lo in
    while !a + 4 <= hi do
      let v = word_be bytes (!a - sbase) in
      if v >= heap_lo && v < heap_hi then classify_in_heap t v;
      a := !a + alignment
    done
  end

(* The block scanner: the same words at alignment 4 on a little-endian
   host, read sixteen bytes at a time as two unaligned 64-bit loads.  A
   block whose loads are both zero holds no heap address (the heap lies
   above address 0) and costs one test.  Otherwise its four words are
   split out in address order — the low half of a little-endian load is
   the lower word; a big-endian segment's load is byte-swapped whole,
   which puts its lower word in the high half — and each gets the
   inline in-heap test.  The last 0-3 words are read one at a time.  The
   words and their order are [scan_each]'s, so the marks, tallies and
   pushes are too; every [Int64] stays unboxed ([test_gc] "mark
   allocates nothing per object" counts the minor words). *)
let[@inline] scan_blocks t bytes ~sbase ~little ~lo ~hi =
  let heap_lo = t.heap_lo and heap_hi = t.heap_hi in
  let stop = hi - sbase in
  let off = ref (lo - sbase) in
  while !off + 16 <= stop do
    let o = !off in
    let x0 = get64u bytes o and x1 = get64u bytes (o + 8) in
    if Int64.logor x0 x1 <> 0L then
      if little then begin
        let v = Int64.to_int x0 land 0xFFFF_FFFF in
        if v >= heap_lo && v < heap_hi then classify_in_heap t v;
        let v = Int64.to_int (Int64.shift_right_logical x0 32) in
        if v >= heap_lo && v < heap_hi then classify_in_heap t v;
        let v = Int64.to_int x1 land 0xFFFF_FFFF in
        if v >= heap_lo && v < heap_hi then classify_in_heap t v;
        let v = Int64.to_int (Int64.shift_right_logical x1 32) in
        if v >= heap_lo && v < heap_hi then classify_in_heap t v
      end
      else begin
        let x0 = bswap64 x0 and x1 = bswap64 x1 in
        let v = Int64.to_int (Int64.shift_right_logical x0 32) in
        if v >= heap_lo && v < heap_hi then classify_in_heap t v;
        let v = Int64.to_int x0 land 0xFFFF_FFFF in
        if v >= heap_lo && v < heap_hi then classify_in_heap t v;
        let v = Int64.to_int (Int64.shift_right_logical x1 32) in
        if v >= heap_lo && v < heap_hi then classify_in_heap t v;
        let v = Int64.to_int x1 land 0xFFFF_FFFF in
        if v >= heap_lo && v < heap_hi then classify_in_heap t v
      end;
    off := o + 16
  done;
  while !off + 4 <= stop do
    let v = if little then word_le bytes !off else word_be bytes !off in
    if v >= heap_lo && v < heap_hi then classify_in_heap t v;
    off := !off + 4
  done

(* The unguarded scan of a span, by blocks where [t.blocks] allows. *)
let[@inline] scan_unguarded t bytes ~sbase ~little ~lo ~hi =
  if t.blocks then scan_blocks t bytes ~sbase ~little ~lo ~hi
  else scan_each t bytes ~sbase ~little ~lo ~hi

(* A span's scan: the words-scanned count for the whole range is the
   loop-iteration count in closed form, added once; the guarded loop
   while reads are armed, the unguarded scan otherwise. *)
let scan_span t seg bytes ~sbase ~little ~lo ~hi =
  if lo + 4 <= hi then begin
    t.n_words <- t.n_words + (((hi - 4 - lo) lsr t.alignment_shift) + 1);
    if t.reads_armed then scan_words_guarded t seg ~lo ~hi
    else scan_unguarded t bytes ~sbase ~little ~lo ~hi
  end

(* A root range: one clamp to its segment, then the span scan. *)
let scan_words t seg ~lo ~hi =
  let lo, hi = Segment.clamp_words seg ~alignment:t.alignment ~lo ~hi in
  scan_span t seg (Segment.unsafe_bytes seg)
    ~sbase:(Addr.to_int (Segment.base seg))
    ~little:(Endian.equal (Segment.endian seg) Endian.Little)
    ~lo ~hi

(* Scan the words of a marked object, reading its kind and extent
   straight from the descriptor row (not through the header cache) and
   its words straight from the heap segment: the pop of a [described]
   entry (typed and large objects), every pop while reads are armed,
   and the overflow rescan.  The object's base is granule-aligned, hence
   on every alignment grid, and inside the heap; the one bounds check
   left is its end against the segment's limit.  A page that is no
   longer Small or Large_head was retired between the push and the pop
   and has nothing left to scan. *)
let scan_object t base =
  let page = (base - t.heap_lo) lsr t.page_shift in
  let r = page lsl row_shift in
  let kind = Array.unsafe_get t.rows (r + row_kind) in
  if kind = kind_small || kind = kind_large_head then begin
    let extent = Array.unsafe_get t.rows (r + row_extent) in
    if extent > 0 then begin
      let hi = base + extent in
      let hi = if hi < t.heap_hi then hi else t.heap_hi in
      scan_span t t.heap_seg t.heap_bytes ~sbase:t.heap_lo ~little:t.heap_little ~lo:base ~hi
    end
    else if extent = described then begin
      (* a typed object's pointer words: one one-word span each *)
      let offsets = Array.unsafe_get t.pointer_offsets page in
      for k = 0 to Array.length offsets - 1 do
        let lo = base + Array.unsafe_get offsets k in
        scan_span t t.heap_seg t.heap_bytes ~sbase:t.heap_lo ~little:t.heap_little ~lo ~hi:(lo + 4)
      done
    end
  end
  else t.stats.Stats.mark_downgrades <- t.stats.Stats.mark_downgrades + 1

(* Pop until the stack is empty.  A conservative entry's words are
   scanned right here by the unguarded scan: the object lies inside a
   small page, hence inside the heap segment, and its extent is at least
   one word.  Classifying a word may push, and growing the stack
   replaces [t.stack], so every pop reads it afresh.  While reads are
   armed every pop takes the guarded [scan_object]. *)
let drain t =
  if t.reads_armed then
    while t.sp > 0 do
      t.sp <- t.sp - 2;
      scan_object t (Array.unsafe_get t.stack t.sp)
    done
  else begin
    let bytes = t.heap_bytes and heap_lo = t.heap_lo and little = t.heap_little in
    let shift = t.alignment_shift in
    while t.sp > 0 do
      let sp = t.sp - 2 in
      t.sp <- sp;
      let base = Array.unsafe_get t.stack sp and extent = Array.unsafe_get t.stack (sp + 1) in
      if extent > 0 then begin
        t.n_words <- t.n_words + ((extent - 4) lsr shift) + 1;
        scan_unguarded t bytes ~sbase:heap_lo ~little ~lo:base ~hi:(base + extent)
      end
      else if extent < 0 then scan_object t base
    done
  end

let scan_range t ~mem range =
  let { Roots.lo; hi; label = _ } = range in
  match Mem.find mem lo with
  | None -> ()
  | Some seg -> scan_words t seg ~lo ~hi

(* Overflow recovery: rescan every already-marked object so dropped
   children get marked, until no push overflows.  The walk reads the
   rows, and marked objects are enumerated with the word-level
   [Bitset.iter_set_words] rather than probing every slot. *)
let recover_from_overflow t =
  while t.overflowed do
    t.overflowed <- false;
    for index = 0 to Heap.committed_pages t.heap - 1 do
      let r = index lsl row_shift and page_base = t.heap_lo + (index lsl t.page_shift) in
      let kind = t.rows.(r + row_kind) in
      if kind = kind_small then begin
        let base = page_base + t.rows.(r + row_first_offset) in
        let object_bytes = t.rows.(r + row_object_bytes) in
        Bitset.iter_set_words t.mark_cols.(index) (fun obj ->
            scan_object t (base + (obj * object_bytes)))
      end
      else if kind = kind_large_head && t.large.(index).Page.l_marked then scan_object t page_base;
      drain t
    done
  done

let trace_roots t roots ~mem extra =
  let scan range =
    scan_range t ~mem range;
    drain t
  in
  List.iter
    (fun (_, values) ->
      Array.iter
        (fun v ->
          t.n_words <- t.n_words + 1;
          consider_heap t v;
          drain t)
        values)
    (Roots.current_registers roots);
  List.iter scan (Roots.current_ranges roots);
  List.iter scan extra;
  recover_from_overflow t

let flush_tallies t =
  let s = t.stats in
  s.Stats.words_scanned <- s.Stats.words_scanned + t.n_words;
  s.Stats.valid_refs <- s.Stats.valid_refs + t.n_valid;
  s.Stats.false_refs <- s.Stats.false_refs + t.n_false;
  s.Stats.objects_marked <- s.Stats.objects_marked + t.n_marked;
  s.Stats.header_cache_hits <- s.Stats.header_cache_hits + t.n_valid + t.n_false - t.n_misses;
  t.n_words <- 0;
  t.n_valid <- 0;
  t.n_false <- 0;
  t.n_marked <- 0;
  t.n_misses <- 0

let trace ?(extra = []) t roots ~mem =
  t.sp <- 0;
  t.overflowed <- false;
  t.cache_page <- -1;
  t.cache_words_page <- -1;
  t.reads_armed <- Mem.read_faults_armed t.mem;
  match trace_roots t roots ~mem extra with
  | () | (exception Stopped) -> flush_tallies t
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      flush_tallies t;
      Printexc.raise_with_backtrace e bt

let run t roots ~mem =
  Heap.clear_marks t.heap;
  Blacklist.begin_cycle t.blacklist;
  trace t roots ~mem

(* The parallel tracer is gone; this stub is kept only for gcbench's
   frozen [mark_parallel.*] probe and goes with it. *)
module Parallel = struct
  type fallback = Tracer_removed
  type outcome = { fallback : fallback option; shards : Stats.t array }

  let run t roots ~mem =
    let s = t.stats and shard = Stats.create () in
    let w0 = s.Stats.words_scanned and v0 = s.Stats.valid_refs and f0 = s.Stats.false_refs in
    let o0 = s.Stats.objects_marked and h0 = s.Stats.header_cache_hits in
    run t roots ~mem;
    shard.Stats.words_scanned <- s.Stats.words_scanned - w0;
    shard.Stats.valid_refs <- s.Stats.valid_refs - v0;
    shard.Stats.false_refs <- s.Stats.false_refs - f0;
    shard.Stats.objects_marked <- s.Stats.objects_marked - o0;
    shard.Stats.header_cache_hits <- s.Stats.header_cache_hits - h0;
    { fallback = Some Tracer_removed; shards = [| shard |] }
end
