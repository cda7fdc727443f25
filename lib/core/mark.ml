open Cgc_vm

type classification =
  | Valid of { base : Addr.t; page : int }
  | False_in_heap of { page : int }
  | Outside

(* The reference classifier: a direct transcription of the paper's
   validity test against the [Page.t] variants.  Kept as the oracle for
   the fast path (the test-side reference marker builds on it) and for
   cold call sites ([Gc.find_object], tracing, the generational
   dirty-page pass) where clarity beats throughput. *)
let classify heap (config : Config.t) value =
  if not (Heap.contains heap value) then Outside
  else begin
    let page = Heap.page_index heap value in
    let invalid = False_in_heap { page } in
    match Heap.page heap page with
    | Page.Uncommitted | Page.Free -> invalid
    | Page.Small s ->
        let off_in_page = value - Addr.to_int (Heap.page_addr heap page) in
        let rel = off_in_page - s.Page.first_offset in
        if rel < 0 then invalid
        else begin
          let index = rel / s.Page.object_bytes in
          let displacement = rel mod s.Page.object_bytes in
          if index >= s.Page.n_objects then invalid
          else if not (Bitset.mem s.Page.alloc index) then invalid
          else if
            displacement = 0 || config.Config.interior_pointers
            || List.mem displacement config.Config.valid_displacements
          then
            Valid
              {
                base =
                  Addr.add (Heap.page_addr heap page)
                    (s.Page.first_offset + (index * s.Page.object_bytes));
                page;
              }
          else invalid
        end
    | Page.Large_head l ->
        if not l.Page.l_allocated then invalid
        else begin
          let off = value - Addr.to_int (Heap.page_addr heap page) in
          if off = 0 then Valid { base = Heap.page_addr heap page; page }
          else if
            config.Config.interior_pointers && off < l.Page.object_bytes
            (* any offset within the first page is within both regimes *)
          then Valid { base = Heap.page_addr heap page; page }
          else invalid
        end
    | Page.Large_tail { head_index } -> (
        if not config.Config.interior_pointers then invalid
        else
          match config.Config.large_validity with
          | Config.First_page_only -> invalid
          | Config.Anywhere -> (
              match Heap.page heap head_index with
              | Page.Large_head l when l.Page.l_allocated ->
                  let off = value - Addr.to_int (Heap.page_addr heap head_index) in
                  if off < l.Page.object_bytes then
                    Valid { base = Heap.page_addr heap head_index; page = head_index }
                  else invalid
              | Page.Large_head _ | Page.Uncommitted | Page.Free | Page.Small _
              | Page.Large_tail _ ->
                  invalid))
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
  desc : Heap.desc;
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
  (* One-entry header cache (Boehm's HDR cache): the descriptor row of
     the page hit by the previous heap reference.  Scanned pointers
     cluster heavily by page, so most lookups avoid even the flat-table
     loads.  It serves classification only — a popped object's extent
     rides on its stack entry, so popping never evicts the row its
     children's lookups want.  [cache_page = -1] means empty;
     invalidated whenever the page table may have changed under us (at
     the start of every [trace]).  The row's bitmap words are pointer
     columns, and a store of a pointer into this long-lived record pays
     a write barrier (a C call), so a miss loads only the int columns;
     the words are cached on the row's first hit ([cache_words_page]). *)
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
    desc = Heap.desc heap;
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
   divisions by a constant). *)
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
let () = assert (bits_per_word = Bitset.bits_per_word)

(* Fill the header cache with page's descriptor row, its int columns:
   straight-line loads from the flat table, no variant match, no
   allocation, no write barrier.  [page] is in range by construction
   (every caller bounds-checks the address, and the descriptor arrays
   span every reserved page).  The scan byte becomes the extent a small
   object of the row is pushed with. *)
let load_header t page =
  let d = t.desc in
  let object_bytes = Array.unsafe_get d.Heap.d_object_bytes page in
  t.cache_page <- page;
  t.cache_kind <- Char.code (Bytes.unsafe_get d.Heap.d_kind page);
  t.cache_object_bytes <- object_bytes;
  t.cache_extent <-
    (match Bytes.unsafe_get d.Heap.d_scan page with
    | '\000' -> object_bytes
    | '\001' -> 0
    | _ -> described);
  t.cache_first_offset <- Array.unsafe_get d.Heap.d_first_offset page;
  t.cache_n_objects <- Array.unsafe_get d.Heap.d_n_objects page;
  t.cache_recip_mul <- Array.unsafe_get d.Heap.d_recip_mul page;
  t.cache_recip_shift <- Array.unsafe_get d.Heap.d_recip_shift page;
  t.cache_head <- Array.unsafe_get d.Heap.d_head page

(* The cached row is hit again: keep its bitmap words too. *)
let cache_words t page =
  let d = t.desc in
  t.cache_words_page <- page;
  t.cache_alloc <- (Array.unsafe_get d.Heap.d_alloc page).Bitset.words;
  t.cache_mark <- (Array.unsafe_get d.Heap.d_mark page).Bitset.words

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
  if kind = Page.kind_small then begin
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
  else if kind = Page.kind_large_head then begin
    let l = Array.unsafe_get t.desc.Heap.d_large page in
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
  else if kind = Page.kind_large_tail then begin
    if not t.tail_valid then note_false t page
    else begin
      let head = t.cache_head in
      let l = Array.unsafe_get t.desc.Heap.d_large head in
      let head_addr = t.heap_lo + (head lsl t.page_shift) in
      if
        Char.code (Bytes.unsafe_get t.desc.Heap.d_kind head) = Page.kind_large_head
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
   first hit), a miss loads the row's int columns and reads the words
   from the table.  The scan loops test the bounds inline, so a word
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
    let d = t.desc in
    classify_row t value page (Array.unsafe_get d.Heap.d_alloc page).Bitset.words
      (Array.unsafe_get d.Heap.d_mark page).Bitset.words
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

(* Scan the words of a marked object, reading its size and layout
   straight from the descriptor row (not through the header cache) and
   its words straight from the heap segment: the pop of a [described]
   entry (typed and large objects), every pop while reads are armed,
   and the overflow rescan.  The object's base is granule-aligned, hence
   on every alignment grid, and inside the heap; the one bounds check
   left is its end against the segment's limit.  A page that is no
   longer Small or Large_head was retired between the push and the pop
   and has nothing left to scan. *)
let scan_object t base =
  let d = t.desc in
  let page = (base - t.heap_lo) lsr t.page_shift in
  let kind = Char.code (Bytes.unsafe_get d.Heap.d_kind page) in
  if kind = Page.kind_small || kind = Page.kind_large_head then begin
    let scan = Bytes.unsafe_get d.Heap.d_scan page in
    if scan = '\000' then begin
      let hi = base + Array.unsafe_get d.Heap.d_object_bytes page in
      let hi = if hi < t.heap_hi then hi else t.heap_hi in
      scan_span t t.heap_seg t.heap_bytes ~sbase:t.heap_lo ~little:t.heap_little ~lo:base ~hi
    end
    else if scan = Page.scan_typed then begin
      (* a typed object's pointer words: one one-word span each *)
      let offsets = Array.unsafe_get d.Heap.d_pointer_offsets page in
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
   children get marked, until no push overflows.  Marked objects are
   enumerated with the word-level [Bitset.iter_set] rather than probing
   every slot. *)
let recover_from_overflow t =
  while t.overflowed do
    t.overflowed <- false;
    Heap.iter_committed t.heap (fun index p ->
        (match p with
        | Page.Small s ->
            let base = Addr.to_int (Heap.page_addr t.heap index) + s.Page.first_offset in
            let object_bytes = s.Page.object_bytes in
            Bitset.iter_set s.Page.mark (fun obj -> scan_object t (base + (obj * object_bytes)))
        | Page.Large_head l ->
            if l.Page.l_marked then scan_object t (Addr.to_int (Heap.page_addr t.heap index))
        | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
        drain t)
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

(* --- the parallel tracer -------------------------------------------- *)

(* N marker domains over the same object graph, bit-identical to the
   serial fast path above.  The determinism argument, piece by piece:

   - The mark bitmap is the transitive closure of the roots, an
     order-independent set.  Mark bits live in *shadow* atomic tables
     during the trace ([Bitset.Atomic.test_and_set]); exactly one
     domain wins each bit and scans that object's body, so each object
     is scanned exactly once regardless of schedule.  After the domains
     join, the shadow is written back serially into the real
     (sweeper-visible) mark words — [Page], [Heap] and [Sweep] never
     see atomics.

   - The blacklist image is the bucket image of the set of false
     references, also schedule-independent.  Domains buffer notes in
     private plain bitsets (pre-bucketed, so hashed-bucket semantics
     are preserved bit-for-bit) merged into the current cycle at the
     end barrier.  Marking never *reads* the blacklist — only the
     allocator does, and the world is stopped — so deferral is
     invisible.

   - Stats shards: every root word is scanned by exactly one domain and
     every object body by exactly one domain, so the per-domain
     [words_scanned] / [valid_refs] / [false_refs] / [objects_marked]
     partition the serial totals and their sum is bit-identical —
     except after a mark-stack overflow, where the number of recovery
     rescan rounds (and thus re-counted words) is schedule-dependent in
     both the serial and parallel marker.

   - Work distribution is a Chase-Lev deque per domain (owner LIFO,
     thieves steal oldest) fed by a shared root-task queue claimed with
     fetch-and-add; overflow recovery generalizes the serial page
     rescan to "any idle domain claims the next committed page".

   [Mem.Fault] access plans are stateful trip streams (countdowns,
   seeded draws); racing them across domains would change which loads
   trip.  An armed access plan therefore forces the serial marker, with
   a typed note in the returned outcome. *)
module Parallel = struct
  type fallback =
    | Serial_configured
    | Access_plan_armed

  let fallback_to_string = function
    | Serial_configured -> "serial-configured"
    | Access_plan_armed -> "access-plan-armed"

  type outcome = {
    jobs_requested : int;
    domains_used : int;
    fallback : fallback option;
    shards : Stats.t array;
  }

  type root_task =
    | Registers of int array
    | Range_chunk of {
        seg : Segment.t;
        lo : int;
        start_hi : int; (* chunk boundary: scan while addr < start_hi *)
        hi : int; (* range end: and addr + 4 <= hi *)
      }

  (* Per-domain state: a private deque, a private header cache, a stats
     shard and a blacklist buffer, plus immutable copies of the scan
     scalars so the hot path never chases the shared record. *)
  type worker = {
    w_id : int;
    w_deque : Ws_deque.t;
    w_stats : Stats.t;
    w_black : Bitset.t;
    mutable w_black_notes : int;
    (* scan scalars (copied from the marker, immutable during the run) *)
    w_desc : Heap.desc;
    w_heap_bytes : Bytes.t;
    w_heap_little : bool;
    w_heap_lo : int;
    w_heap_hi : int;
    w_page_shift : int;
    w_page_mask : int;
    w_alignment : int;
    w_interior : bool;
    w_tail_valid : bool;
    w_blacklisting : bool;
    w_disp_mask : int array;
    w_stack_limit : int;  (* per-domain deque bound; max_int = unbounded *)
    (* private one-entry header cache *)
    mutable w_cache_page : int;
    mutable w_cache_kind : int;
    mutable w_cache_object_bytes : int;
    mutable w_cache_first_offset : int;
    mutable w_cache_n_objects : int;
    mutable w_cache_recip_mul : int;
    mutable w_cache_recip_shift : int;
    mutable w_cache_head : int;
    mutable w_cache_alloc : Bitset.t;
    mutable w_cache_shadow : Bitset.Atomic.t;
    mutable w_cache_large : Page.large;
  }

  type shared = {
    p_blacklist : Blacklist.t; (* bucket mapping only; never written during the trace *)
    p_shadow : Bitset.Atomic.t array; (* per-page shadow mark bits (small pages) *)
    p_shadow_large : Bitset.Atomic.t; (* large-head marked flags, one bit per page *)
    p_tasks : root_task array;
    p_next_task : int Atomic.t;
    p_mode : int Atomic.t; (* 0 = root tasks, 1 = overflow rescan *)
    p_next_rescan : int Atomic.t;
    p_committed : int;
    p_overflowed : bool Atomic.t;
    p_idle : int Atomic.t;
    p_jobs : int;
    p_workers : worker array;
    p_abandoned : bool Atomic.t;  (* a domain raised: everyone unwinds *)
    (* idle domains nap here instead of spinning (essential when domains
       outnumber cores); producers wake them on push, the last domain to
       go idle wakes them for termination *)
    p_lock : Mutex.t;
    p_cond : Condition.t;
    p_nappers : int Atomic.t;
    (* sense barrier between overflow-recovery rounds *)
    p_bar_lock : Mutex.t;
    p_bar_cond : Condition.t;
    mutable p_bar_count : int;
    mutable p_bar_gen : int;
  }

  let dummy_shadow = Bitset.Atomic.create 0

  let make_worker t id =
    {
      w_id = id;
      w_deque = Ws_deque.create ();
      w_stats = Stats.create ();
      w_black =
        (if t.blacklisting then Bitset.create (Blacklist.universe t.blacklist)
         else Bitset.create 0);
      w_black_notes = 0;
      w_desc = t.desc;
      w_heap_bytes = t.heap_bytes;
      w_heap_little = t.heap_little;
      w_heap_lo = t.heap_lo;
      w_heap_hi = t.heap_hi;
      w_page_shift = t.page_shift;
      w_page_mask = t.page_mask;
      w_alignment = t.alignment;
      w_interior = t.interior;
      w_tail_valid = t.tail_valid;
      w_blacklisting = t.blacklisting;
      w_disp_mask = t.disp_mask;
      w_stack_limit = t.stack_limit;
      w_cache_page = -1;
      w_cache_kind = Page.kind_uncommitted;
      w_cache_object_bytes = 0;
      w_cache_first_offset = 0;
      w_cache_n_objects = 0;
      w_cache_recip_mul = 0;
      w_cache_recip_shift = 0;
      w_cache_head = 0;
      w_cache_alloc = Bitset.create 0;
      w_cache_shadow = dummy_shadow;
      w_cache_large = Page.dummy_large;
    }

  let load_header sh w page =
    let d = w.w_desc in
    w.w_cache_page <- page;
    w.w_cache_kind <- Char.code (Bytes.unsafe_get d.Heap.d_kind page);
    w.w_cache_object_bytes <- Array.unsafe_get d.Heap.d_object_bytes page;
    w.w_cache_first_offset <- Array.unsafe_get d.Heap.d_first_offset page;
    w.w_cache_n_objects <- Array.unsafe_get d.Heap.d_n_objects page;
    w.w_cache_recip_mul <- Array.unsafe_get d.Heap.d_recip_mul page;
    w.w_cache_recip_shift <- Array.unsafe_get d.Heap.d_recip_shift page;
    w.w_cache_head <- Array.unsafe_get d.Heap.d_head page;
    w.w_cache_alloc <- Array.unsafe_get d.Heap.d_alloc page;
    w.w_cache_shadow <- Array.unsafe_get sh.p_shadow page;
    w.w_cache_large <- Array.unsafe_get d.Heap.d_large page

  let[@inline] ensure_header sh w page =
    if page = w.w_cache_page then
      w.w_stats.Stats.header_cache_hits <- w.w_stats.Stats.header_cache_hits + 1
    else load_header sh w page

  let[@inline] note_false sh w page =
    w.w_stats.Stats.false_refs <- w.w_stats.Stats.false_refs + 1;
    if w.w_blacklisting then begin
      Bitset.add w.w_black (Blacklist.bucket_index sh.p_blacklist page);
      w.w_black_notes <- w.w_black_notes + 1
    end

  let[@inline] note_valid w = w.w_stats.Stats.valid_refs <- w.w_stats.Stats.valid_refs + 1

  let wake_nappers sh =
    if Atomic.get sh.p_nappers > 0 then begin
      Mutex.lock sh.p_lock;
      Condition.broadcast sh.p_cond;
      Mutex.unlock sh.p_lock
    end

  let wake_all sh =
    Mutex.lock sh.p_lock;
    Condition.broadcast sh.p_cond;
    Mutex.unlock sh.p_lock

  (* Internal unwind of an abandoned trace; caught in [worker_main]. *)
  exception Gone

  let[@inline] abandoned sh = Atomic.get sh.p_abandoned

  (* Fail-stop: a domain that raises sets the flag before it re-raises,
     so every other domain unwinds with [Gone] at its next claim, nap or
     barrier.  Both condition variables are broadcast under their locks
     after the flag is set, and both wait loops re-check the flag under
     the same lock, so a napping domain or one parked at the
     overflow-round barrier either sees the flag or is woken. *)
  let abandon sh =
    Atomic.set sh.p_abandoned true;
    wake_all sh;
    Mutex.lock sh.p_bar_lock;
    Condition.broadcast sh.p_bar_cond;
    Mutex.unlock sh.p_bar_lock

  (* The object IS shadow-marked before any push, so on overflow its
     children are found by the rescan rounds — exactly the serial
     contract.  One overflow episode is counted per recovery round,
     matching the serial [push]/[recover_from_overflow] pair. *)
  let push sh w base =
    if Ws_deque.size w.w_deque >= w.w_stack_limit then begin
      if not (Atomic.exchange sh.p_overflowed true) then
        w.w_stats.Stats.mark_stack_overflows <- w.w_stats.Stats.mark_stack_overflows + 1
    end
    else begin
      Ws_deque.push w.w_deque base;
      wake_nappers sh
    end

  (* [consider_heap] against shadow mark state: mirrors the serial fast
     path line for line, with the test and set of the real mark word
     replaced by one [Bitset.Atomic.unsafe_test_and_set] on the shadow —
     the winner counts the object and scans it. *)
  let consider sh w value =
    if value >= w.w_heap_lo && value < w.w_heap_hi then begin
      let page = (value - w.w_heap_lo) lsr w.w_page_shift in
      ensure_header sh w page;
      let kind = w.w_cache_kind in
      if kind = Page.kind_small then begin
        let rel = ((value - w.w_heap_lo) land w.w_page_mask) - w.w_cache_first_offset in
        if rel < 0 then note_false sh w page
        else begin
          let object_bytes = w.w_cache_object_bytes in
          let index = (rel * w.w_cache_recip_mul) lsr w.w_cache_recip_shift in
          let displacement = rel - (index * object_bytes) in
          if index >= w.w_cache_n_objects then note_false sh w page
          else if not (Bitset.unsafe_mem w.w_cache_alloc index) then note_false sh w page
          else if
            displacement = 0 || w.w_interior
            || Config.displacement_in_mask w.w_disp_mask displacement
          then begin
            note_valid w;
            if Bitset.Atomic.unsafe_test_and_set w.w_cache_shadow index then begin
              w.w_stats.Stats.objects_marked <- w.w_stats.Stats.objects_marked + 1;
              push sh w (value - displacement)
            end
          end
          else note_false sh w page
        end
      end
      else if kind = Page.kind_large_head then begin
        let l = w.w_cache_large in
        if not l.Page.l_allocated then note_false sh w page
        else begin
          let off = (value - w.w_heap_lo) land w.w_page_mask in
          if off = 0 || (w.w_interior && off < l.Page.object_bytes) then begin
            note_valid w;
            if Bitset.Atomic.unsafe_test_and_set sh.p_shadow_large page then begin
              w.w_stats.Stats.objects_marked <- w.w_stats.Stats.objects_marked + 1;
              push sh w (value - off)
            end
          end
          else note_false sh w page
        end
      end
      else if kind = Page.kind_large_tail then begin
        if not w.w_tail_valid then note_false sh w page
        else begin
          let head = w.w_cache_head in
          let l = Array.unsafe_get w.w_desc.Heap.d_large head in
          let head_addr = w.w_heap_lo + (head lsl w.w_page_shift) in
          if
            Char.code (Bytes.unsafe_get w.w_desc.Heap.d_kind head) = Page.kind_large_head
            && l.Page.l_allocated
            && value - head_addr < l.Page.object_bytes
          then begin
            note_valid w;
            if Bitset.Atomic.unsafe_test_and_set sh.p_shadow_large head then begin
              w.w_stats.Stats.objects_marked <- w.w_stats.Stats.objects_marked + 1;
              push sh w head_addr
            end
          end
          else note_false sh w page
        end
      end
      else (* Free / Uncommitted *) note_false sh w page
    end

  (* Scan [lo, start_hi) ∩ [lo, hi - 4] out of [bytes], based at [sbase],
     already on the range's alignment grid.  The closed-form word count
     tiles exactly: summed over a range's chunks it equals the serial
     [((hi - 4 - lo) / alignment) + 1]. *)
  let scan_span sh w bytes ~sbase ~little ~lo ~start_hi ~hi =
    let e = if start_hi < hi - 3 then start_hi else hi - 3 in
    if lo < e then begin
      let alignment = w.w_alignment in
      w.w_stats.Stats.words_scanned <-
        w.w_stats.Stats.words_scanned + ((e - lo + alignment - 1) / alignment);
      if little then begin
        let a = ref lo in
        while !a < e do
          consider sh w (Segment.unsafe_word_le bytes (!a - sbase));
          a := !a + alignment
        done
      end
      else begin
        let a = ref lo in
        while !a < e do
          consider sh w (Segment.unsafe_word_be bytes (!a - sbase));
          a := !a + alignment
        done
      end
    end

  let scan_chunk sh w seg ~lo ~start_hi ~hi =
    scan_span sh w (Segment.unsafe_bytes seg)
      ~sbase:(Addr.to_int (Segment.base seg))
      ~little:(Endian.equal (Segment.endian seg) Endian.Little)
      ~lo ~start_hi ~hi

  (* Scan a marked object's body straight from the descriptor row, as
     the serial [scan_object] does, typed layouts included.  The
     fault-free precondition holds by construction: access plans force
     the serial marker. *)
  let scan_object sh w base =
    let d = w.w_desc in
    let page = (base - w.w_heap_lo) lsr w.w_page_shift in
    let kind = Char.code (Bytes.unsafe_get d.Heap.d_kind page) in
    if kind = Page.kind_small || kind = Page.kind_large_head then begin
      let scan = Bytes.unsafe_get d.Heap.d_scan page in
      if scan = '\000' then begin
        let hi = base + Array.unsafe_get d.Heap.d_object_bytes page in
        let hi = if hi < w.w_heap_hi then hi else w.w_heap_hi in
        scan_span sh w w.w_heap_bytes ~sbase:w.w_heap_lo ~little:w.w_heap_little ~lo:base
          ~start_hi:hi ~hi
      end
      else if scan = Page.scan_typed then begin
        let offsets = Array.unsafe_get d.Heap.d_pointer_offsets page in
        for k = 0 to Array.length offsets - 1 do
          let lo = base + Array.unsafe_get offsets k in
          scan_span sh w w.w_heap_bytes ~sbase:w.w_heap_lo ~little:w.w_heap_little ~lo
            ~start_hi:(lo + 4) ~hi:(lo + 4)
        done
      end
    end
    else
      (* retired between push and pop: only possible with pre-existing
         decayed pages; mirror the serial downgrade *)
      w.w_stats.Stats.mark_downgrades <- w.w_stats.Stats.mark_downgrades + 1

  (* Overflow recovery, parallel form of the serial page walk: idle
     domains claim committed pages with fetch-and-add and rescan the
     bodies of their shadow-marked objects.  The shadow traversal is a
     per-word snapshot; an object marked after the snapshot was pushed
     by its marking domain, so its children are never lost — at worst
     the push overflows again and another round runs.  Reads the
     descriptor directly, leaving the header cache to classification. *)
  let rescan_page sh w page =
    let d = w.w_desc in
    let kind = Char.code (Bytes.unsafe_get d.Heap.d_kind page) in
    let page_addr = w.w_heap_lo + (page lsl w.w_page_shift) in
    if kind = Page.kind_small then begin
      let base = page_addr + Array.unsafe_get d.Heap.d_first_offset page in
      let object_bytes = Array.unsafe_get d.Heap.d_object_bytes page in
      Bitset.Atomic.iter_set (Array.unsafe_get sh.p_shadow page) (fun obj ->
          scan_object sh w (base + (obj * object_bytes)))
    end
    else if kind = Page.kind_large_head && Bitset.Atomic.mem sh.p_shadow_large page then
      scan_object sh w page_addr

  (* Deques hold bare object base addresses; root tasks and rescan
     pages are claimed from the shared counters. *)
  type work =
    | Obj of int
    | Task of int  (* index into p_tasks *)
    | Rescan of int

  let try_steal sh w =
    let n = Array.length sh.p_workers in
    let rec go k =
      if k >= n then None
      else begin
        let victim = Array.unsafe_get sh.p_workers ((w.w_id + k) mod n) in
        match Ws_deque.steal victim.w_deque with
        | Some v -> Some (Obj v)
        | None -> go (k + 1)
      end
    in
    go 1

  let try_obtain sh w =
    match Ws_deque.pop w.w_deque with
    | Some v -> Some (Obj v)
    | None ->
        if Atomic.get sh.p_mode = 0 then begin
          let i = Atomic.fetch_and_add sh.p_next_task 1 in
          if i < Array.length sh.p_tasks then Some (Task i) else try_steal sh w
        end
        else begin
          let p = Atomic.fetch_and_add sh.p_next_rescan 1 in
          if p < sh.p_committed then Some (Rescan p) else try_steal sh w
        end

  let work_visible sh =
    (if Atomic.get sh.p_mode = 0 then Atomic.get sh.p_next_task < Array.length sh.p_tasks
     else Atomic.get sh.p_next_rescan < sh.p_committed)
    || Array.exists (fun v -> not (Ws_deque.is_empty v.w_deque)) sh.p_workers

  let execute sh w = function
    | Obj base -> scan_object sh w base
    | Task i -> (
        match Array.unsafe_get sh.p_tasks i with
        | Registers values ->
            w.w_stats.Stats.words_scanned <- w.w_stats.Stats.words_scanned + Array.length values;
            Array.iter (fun v -> consider sh w v) values
        | Range_chunk { seg; lo; start_hi; hi } -> scan_chunk sh w seg ~lo ~start_hi ~hi)
    | Rescan page -> rescan_page sh w page

  let terminated sh = Atomic.get sh.p_idle = sh.p_jobs

  (* Bounded spin, then sleep on the condition.  The napper count is
     raised under the lock *before* the final work re-check, and
     producers read it after publishing their push (both SC atomics), so
     one side always sees the other: no lost wakeups.  The abandonment
     flag is part of the predicate for the same reason — [abandon] sets
     it before its broadcast. *)
  let nap sh =
    Mutex.lock sh.p_lock;
    Atomic.incr sh.p_nappers;
    if (not (work_visible sh)) && (not (terminated sh)) && not (abandoned sh) then
      Condition.wait sh.p_cond sh.p_lock;
    Atomic.decr sh.p_nappers;
    Mutex.unlock sh.p_lock

  (* Termination: only owners push to their own deques, so a domain
     counted idle has an empty deque and is executing nothing — when
     [idle = jobs] there is no work anywhere and nobody can create any.
     A domain must leave the idle count *before* attempting a grab, and
     re-enter it if the grab loses the race.  A domain that raises never
     joins the idle count, so termination cannot fire past a failure;
     the flag [abandon] sets ends the wait instead. *)
  let quiesce sh =
    Atomic.incr sh.p_idle;
    if terminated sh then wake_all sh;
    let spins = ref 0 in
    let result = ref None in
    while !result = None do
      if abandoned sh then raise Gone;
      if terminated sh then result := Some true
      else if work_visible sh then begin
        Atomic.decr sh.p_idle;
        result := Some false
      end
      else if !spins >= 64 then begin
        nap sh;
        spins := 0
      end
      else begin
        Domain.cpu_relax ();
        incr spins
      end
    done;
    Option.get !result

  let phase_loop sh w =
    let finished = ref false in
    while not !finished do
      if abandoned sh then raise Gone;
      match try_obtain sh w with
      | Some work -> execute sh w work
      | None -> if quiesce sh then finished := true
    done

  let barrier sh =
    Mutex.lock sh.p_bar_lock;
    let gen = sh.p_bar_gen in
    sh.p_bar_count <- sh.p_bar_count + 1;
    if sh.p_bar_count >= sh.p_jobs then begin
      sh.p_bar_count <- 0;
      sh.p_bar_gen <- gen + 1;
      Condition.broadcast sh.p_bar_cond
    end
    else
      while sh.p_bar_gen = gen && not (abandoned sh) do
        Condition.wait sh.p_bar_cond sh.p_bar_lock
      done;
    Mutex.unlock sh.p_bar_lock;
    if abandoned sh then raise Gone

  let worker_main sh w =
    try
      phase_loop sh w;
      (* recovery rounds: everyone meets, samples the overflow flag on a
         stable snapshot (nobody writes it between the two barriers), and
         either runs a rescan round or exits together *)
      let continue_rounds = ref true in
      while !continue_rounds do
        barrier sh;
        let again = Atomic.get sh.p_overflowed in
        barrier sh;
        if again then begin
          if w.w_id = 0 then begin
            Atomic.set sh.p_overflowed false;
            Atomic.set sh.p_next_rescan 0;
            Atomic.set sh.p_idle 0;
            Atomic.set sh.p_mode 1
          end;
          barrier sh;
          phase_loop sh w
        end
        else continue_rounds := false
      done
    with
    | Gone -> ()
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        abandon sh;
        Printexc.raise_with_backtrace e bt

  (* Root tasks: one per register array, and clamped ranges cut into
     chunks on the range's alignment grid so big static/stack areas
     spread across domains.  Built serially (root providers and
     [Mem.find] run exactly once, like the serial marker). *)
  let chunk_words = 2048

  let build_tasks t roots ~mem =
    let tasks = ref [] in
    List.iter
      (fun (_, values) -> tasks := Registers values :: !tasks)
      (Roots.current_registers roots);
    List.iter
      (fun { Roots.lo; hi; label = _ } ->
        match Mem.find mem lo with
        | None -> ()
        | Some seg ->
            let lo, hi = Segment.clamp_words seg ~alignment:t.alignment ~lo ~hi in
            if lo + 4 <= hi then begin
              let span = chunk_words * t.alignment in
              let a = ref lo in
              while !a + 4 <= hi do
                let start_hi = if !a + span < hi then !a + span else hi in
                tasks := Range_chunk { seg; lo = !a; start_hi; hi } :: !tasks;
                a := !a + span
              done
            end)
      (Roots.current_ranges roots);
    Array.of_list (List.rev !tasks)

  (* Spawn, trace and join every domain, then re-raise the first
     exception (the leader's, or a failed spawn's, before the helpers'
     in spawn order).  The shadow tables, shards and blacklist buffers
     are private to this attempt, and the blacklist's cycle rotation
     happens in the success epilogue — marking never reads the
     blacklist, so rotating it after the trace is invisible — so a
     failed attempt leaves the blacklist and statistics untouched and
     the mark bits cleared. *)
  let run_domains t roots ~mem ~jobs =
    Heap.clear_marks t.heap;
    let n_pages = Heap.n_pages t.heap in
    let shadow = Array.make n_pages dummy_shadow in
    Heap.iter_committed t.heap (fun i p ->
        match p with
        | Page.Small s -> shadow.(i) <- Bitset.Atomic.create s.Page.n_objects
        | Page.Uncommitted | Page.Free | Page.Large_head _ | Page.Large_tail _ -> ());
    let workers = Array.init jobs (make_worker t) in
    let sh =
      {
        p_blacklist = t.blacklist;
        p_shadow = shadow;
        p_shadow_large = Bitset.Atomic.create n_pages;
        p_tasks = build_tasks t roots ~mem;
        p_next_task = Atomic.make 0;
        p_mode = Atomic.make 0;
        p_next_rescan = Atomic.make 0;
        p_committed = Heap.committed_pages t.heap;
        p_overflowed = Atomic.make false;
        p_idle = Atomic.make 0;
        p_jobs = jobs;
        p_workers = workers;
        p_abandoned = Atomic.make false;
        p_lock = Mutex.create ();
        p_cond = Condition.create ();
        p_nappers = Atomic.make 0;
        p_bar_lock = Mutex.create ();
        p_bar_cond = Condition.create ();
        p_bar_count = 0;
        p_bar_gen = 0;
      }
    in
    let helpers = ref [] in
    let first =
      match
        for k = 1 to jobs - 1 do
          helpers := Domain.spawn (fun () -> worker_main sh workers.(k)) :: !helpers
        done;
        worker_main sh workers.(0)
      with
      | () -> None
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          abandon sh;
          Some (e, bt)
    in
    let first =
      List.fold_left
        (fun first d ->
          match Domain.join d with
          | () -> first
          | exception e ->
              if Option.is_none first then Some (e, Printexc.get_raw_backtrace ()) else first)
        first (List.rev !helpers)
    in
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) first;
    (* Serial epilogue: snapshot the shards for the outcome *before*
       merging (merging transfers, i.e. zeroes, the shard counters),
       publish shadow marks into the real mark words, rotate the
       blacklist cycle, merge blacklist buffers and stats shards. *)
    let shards = Array.map (fun w -> Stats.copy w.w_stats) workers in
    Heap.iter_committed t.heap (fun i p ->
        match p with
        | Page.Small s -> Bitset.Atomic.blit_to shadow.(i) ~dst:s.Page.mark
        | Page.Large_head l -> l.Page.l_marked <- Bitset.Atomic.mem sh.p_shadow_large i
        | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
    Blacklist.begin_cycle t.blacklist;
    Array.iter
      (fun w ->
        Stats.merge_marking ~into:t.stats w.w_stats;
        if t.blacklisting then Blacklist.merge_noted t.blacklist w.w_black ~notes:w.w_black_notes)
      workers;
    t.stats.Stats.parallel_marks <- t.stats.Stats.parallel_marks + 1;
    shards

  let run t roots ~mem ~jobs =
    if jobs <= 1 then begin
      run t roots ~mem;
      { jobs_requested = jobs; domains_used = 1; fallback = Some Serial_configured; shards = [||] }
    end
    else if Mem.access_faults_armed mem then begin
      (* trip streams are stateful: serialize faultable loads *)
      t.stats.Stats.mark_serial_fallbacks <- t.stats.Stats.mark_serial_fallbacks + 1;
      run t roots ~mem;
      { jobs_requested = jobs; domains_used = 1; fallback = Some Access_plan_armed; shards = [||] }
    end
    else
      let shards = run_domains t roots ~mem ~jobs in
      { jobs_requested = jobs; domains_used = jobs; fallback = None; shards }
end
