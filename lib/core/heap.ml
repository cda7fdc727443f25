open Cgc_vm

(* The page table: one packed row of ints per page, plus pointer
   columns.  [page] builds a [Page.t] view of a row on demand;
   [set_page] writes a view back as a row.  The allocators and the
   sweep change a page's kind only through [carve_small], [place_large]
   and [release]. *)
type desc = {
  d_rows : int array;  (** [row_stride] ints per page, fields at the [row_*] offsets *)
  d_alloc : int array array;  (** small pages: the alloc bitmap's words *)
  d_mark : int array array;  (** small pages: the mark bitmap's words *)
  d_layout : Page.layout array;  (** small pages: their layout *)
  d_pointer_offsets : int array array;  (** typed pages: the layout's pointer offsets *)
  d_large : Page.large array;  (** large heads: the object's record *)
}

let row_stride = 8
let row_kind = 0
let row_object_bytes = 1
let row_extent = 2
let row_first_offset = 3
let row_n_objects = 4
let row_recip_mul = 5
let row_recip_shift = 6
let row_head = 7

let described = -1

let scan_extent (layout : Page.layout) ~object_bytes =
  match layout with
  | Page.Conservative -> object_bytes
  | Page.Pointer_free -> 0
  | Page.Typed _ -> described

type t = {
  mem : Mem.t;
  seg : Segment.t;
  base : Addr.t;
  page_size : int;
  page_shift : int;
  n_pages : int;
  desc : desc;
  mutable committed : int; (* pages [0, committed) are committed *)
  mutable free_pages : int; (* committed pages that are [Free]; kept by [write_row] *)
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Granlund-Montgomery: with [n = log2 page_size] and [2^(c-1) < d <= 2^c],
   take [s = n + c] and [m = ceil (2^s / d)], so [m * d = 2^s + e] with
   [0 <= e < d].  Then [rel * m / 2^s = rel / d + rel * e / (d * 2^s)], and
   the error term stays below [1 / d] because [rel * e < 2^n * 2^c = 2^s]:
   the floor is exact for every [rel < page_size].  [m <= 2^(n+1)], so the
   product [rel * m < 2^(2n+1)] fits an OCaml int while [n <= 30]. *)
let reciprocal ~page_size d =
  if d < 1 then invalid_arg "Heap.reciprocal: divisor must be positive";
  let s = log2 page_size + log2 ((2 * d) - 1) in
  (((1 lsl s) + d - 1) / d, s)

(* Words column entry for a page that carries no small objects. *)
let empty_words = [||]

let make_desc n_pages =
  let rows = Array.make (n_pages * row_stride) 0 in
  for i = 0 to n_pages - 1 do
    rows.((i * row_stride) + row_kind) <- Page.kind_uncommitted;
    rows.((i * row_stride) + row_head) <- i
  done;
  {
    d_rows = rows;
    d_alloc = Array.make n_pages empty_words;
    d_mark = Array.make n_pages empty_words;
    d_layout = Array.make n_pages Page.Pointer_free;
    d_pointer_offsets = Array.make n_pages [||];
    d_large = Array.make n_pages Page.dummy_large;
  }

(* Write page [i]'s row: every field, so no value of an earlier kind
   survives a transition, and every column, keeping the free-page
   count.  Every page transition ends here. *)
let write_row t i ~kind:k ~object_bytes ~layout ~first_offset ~n_objects ~head ~alloc ~mark ~large =
  let d = t.desc in
  let r = i * row_stride and rows = d.d_rows in
  let was_free = rows.(r + row_kind) = Page.kind_free in
  t.free_pages <- t.free_pages - Bool.to_int was_free + Bool.to_int (k = Page.kind_free);
  let recip_mul, recip_shift =
    if k = Page.kind_small then reciprocal ~page_size:t.page_size object_bytes else (0, 0)
  in
  rows.(r + row_kind) <- k;
  rows.(r + row_object_bytes) <- object_bytes;
  rows.(r + row_extent) <- scan_extent layout ~object_bytes;
  rows.(r + row_first_offset) <- first_offset;
  rows.(r + row_n_objects) <- n_objects;
  rows.(r + row_recip_mul) <- recip_mul;
  rows.(r + row_recip_shift) <- recip_shift;
  rows.(r + row_head) <- head;
  d.d_alloc.(i) <- alloc;
  d.d_mark.(i) <- mark;
  d.d_layout.(i) <- (if k = Page.kind_small then layout else Page.Pointer_free);
  d.d_large.(i) <- large;
  d.d_pointer_offsets.(i) <-
    (match layout with Page.Typed desc -> desc.Type_desc.pointer_offsets | _ -> [||])

let write_vacant t i k =
  write_row t i ~kind:k ~object_bytes:0 ~layout:Page.Pointer_free ~first_offset:0 ~n_objects:0
    ~head:i ~alloc:empty_words ~mark:empty_words ~large:Page.dummy_large

let write_small t i ~object_bytes ~layout ~first_offset ~n_objects ~alloc ~mark =
  write_row t i ~kind:Page.kind_small ~object_bytes ~layout ~first_offset ~n_objects ~head:i ~alloc
    ~mark ~large:Page.dummy_large

let write_large_head t i (l : Page.large) =
  write_row t i ~kind:Page.kind_large_head ~object_bytes:l.Page.object_bytes ~layout:l.Page.l_layout
    ~first_offset:0 ~n_objects:1 ~head:i ~alloc:empty_words ~mark:empty_words ~large:l

let write_tail t i ~head =
  write_row t i ~kind:Page.kind_large_tail ~object_bytes:0 ~layout:Page.Pointer_free
    ~first_offset:0 ~n_objects:0 ~head ~alloc:empty_words ~mark:empty_words
    ~large:Page.dummy_large

let kind t i = t.desc.d_rows.((i * row_stride) + row_kind)

let set_page t i (p : Page.t) =
  match p with
  | Page.Uncommitted | Page.Free -> write_vacant t i (Page.kind_code p)
  | Page.Small s ->
      write_small t i ~object_bytes:s.Page.object_bytes ~layout:s.Page.layout
        ~first_offset:s.Page.first_offset ~n_objects:s.Page.n_objects ~alloc:s.Page.alloc.Bitset.words
        ~mark:s.Page.mark.Bitset.words
  | Page.Large_head l -> write_large_head t i l
  | Page.Large_tail { head_index } -> write_tail t i ~head:head_index

let field t i f = t.desc.d_rows.((i * row_stride) + f)
let object_bytes t i = field t i row_object_bytes
let first_offset t i = field t i row_first_offset
let n_objects t i = field t i row_n_objects
let small_layout t i = t.desc.d_layout.(i)
let alloc_words t i = t.desc.d_alloc.(i)
let mark_words t i = t.desc.d_mark.(i)
let large t i = t.desc.d_large.(i)

let page t i : Page.t =
  let k = kind t i in
  if k = Page.kind_small then begin
    let n = n_objects t i in
    Page.Small
      {
        object_bytes = object_bytes t i;
        layout = small_layout t i;
        first_offset = first_offset t i;
        n_objects = n;
        alloc = Bitset.of_words ~n (alloc_words t i);
        mark = Bitset.of_words ~n (mark_words t i);
      }
  end
  else if k = Page.kind_large_head then Page.Large_head (large t i)
  else if k = Page.kind_large_tail then Page.Large_tail { head_index = field t i row_head }
  else if k = Page.kind_free then Page.Free
  else Page.Uncommitted

let page_addr t i = Addr.add t.base (i * t.page_size)

(* Pages are charged to the simulated OS one at a time, and the
   watermark advances with each success, so an injected commit failure
   partway through a run leaves a coherent prefix: every page below the
   watermark is committed-[Free], everything above stays [Uncommitted],
   and the fault propagates to the allocation ladder. *)
let commit_through t i =
  if i >= t.n_pages then false
  else begin
    for j = t.committed to i do
      Mem.commit t.mem ~addr:(page_addr t j) ~bytes:t.page_size;
      write_vacant t j Page.kind_free;
      t.committed <- j + 1
    done;
    true
  end

let create mem ~config ~base ~max_bytes =
  Config.validate config;
  let page_size = config.Config.page_size in
  if not (Addr.is_aligned base page_size) then
    invalid_arg "Heap.create: base must be page-aligned";
  if page_size > 1 lsl 30 then invalid_arg "Heap.create: page_size must be <= 2^30";
  let n_pages = (max_bytes + page_size - 1) / page_size in
  if n_pages < config.Config.initial_pages then
    invalid_arg "Heap.create: reserved region smaller than initial_pages";
  let seg =
    Mem.map mem ~name:"heap" ~kind:Segment.Heap ~base ~size:(n_pages * page_size)
  in
  let t =
    {
      mem;
      seg;
      base;
      page_size;
      page_shift = log2 page_size;
      n_pages;
      desc = make_desc n_pages;
      committed = 0;
      free_pages = 0;
    }
  in
  ignore (commit_through t (config.Config.initial_pages - 1) : bool);
  t

let segment t = t.seg
let mem t = t.mem
let base t = t.base
let limit_reserved t = Addr.add t.base (t.n_pages * t.page_size)
let page_size t = t.page_size
let n_pages t = t.n_pages
let committed_pages t = t.committed
let committed_bytes t = t.committed * t.page_size
let contains t a = Addr.in_range a ~lo:t.base ~hi:(limit_reserved t)
let page_index t a = Addr.diff a t.base asr t.page_shift
let desc t = t.desc
let page_shift t = t.page_shift

let iter_committed t f =
  for i = 0 to t.committed - 1 do
    f i (page t i)
  done

let vacant t i =
  let k = kind t i in
  k = Page.kind_free || k = Page.kind_uncommitted

(* One pass, first fit.  A page that breaks a run cannot start one
   either ([ok ~first:true] implies [ok ~first:false]), and every start
   between the run's and it would span it, so the scan resumes past it.
   Committed [Free] pages all lie below the watermark, so with none the
   search starts there. *)
let find_run t ~n ~ok =
  let rec scan start run i =
    if run = n then Some start
    else if i >= t.n_pages then None
    else if vacant t i && ok ~first:(run = 0) i then
      scan (if run = 0 then i else start) (run + 1) (i + 1)
    else scan 0 0 (i + 1)
  in
  scan 0 0 (if t.free_pages = 0 then t.committed else 0)

let uncommit_trailing_free t =
  let released = ref 0 in
  while t.committed > 0 && kind t (t.committed - 1) = Page.kind_free do
    let i = t.committed - 1 in
    write_vacant t i Page.kind_uncommitted;
    t.committed <- i;
    Mem.uncommit t.mem ~addr:(page_addr t i) ~bytes:t.page_size;
    incr released
  done;
  !released

let free_page_count t = t.free_pages

let clear_marks t =
  for i = 0 to t.committed - 1 do
    let k = kind t i in
    if k = Page.kind_small then Bitset.clear_words (mark_words t i)
    else if k = Page.kind_large_head then (large t i).Page.l_marked <- false
  done

(* A mark snapshot copies the committed pages' mark words and large
   mark flags.  Only pages that are still small pages or large heads are
   restored, so restoring is only meaningful while nothing allocates or
   sweeps. *)
type mark_snapshot = int array array * bool array

let save_marks t =
  ( Array.init t.committed (fun i -> Array.copy (mark_words t i)),
    Array.init t.committed (fun i -> (large t i).Page.l_marked) )

let restore_marks t (words, flags) =
  Array.iteri
    (fun i saved ->
      let k = kind t i in
      if k = Page.kind_small then Array.blit saved 0 (mark_words t i) 0 (Array.length saved)
      else if k = Page.kind_large_head then (large t i).Page.l_marked <- flags.(i))
    words

let slot t i a =
  let object_bytes = object_bytes t i in
  let rel = Addr.diff a (page_addr t i) - first_offset t i in
  let obj = rel / object_bytes in
  if rel < 0 || obj * object_bytes <> rel || obj >= n_objects t i then -1 else obj

(* The exact object map: the slot or large run covering [a], from the
   row of [a]'s page (a large tail's row names its head). *)
let find_object t a =
  if not (contains t a) then -1
  else begin
    let i = page_index t a in
    let k = kind t i in
    if k = Page.kind_small then begin
      let object_bytes = object_bytes t i in
      let rel = Addr.diff a (page_addr t i) - first_offset t i in
      let obj = rel / object_bytes in
      if rel >= 0 && obj < n_objects t i && Bitset.mem_words (alloc_words t i) obj then
        a - (rel - (obj * object_bytes))
      else -1
    end
    else begin
      let head = field t i row_head in
      let l = large t head in
      if
        (k = Page.kind_large_head || k = Page.kind_large_tail)
        && l.Page.l_allocated
        && Addr.diff a (page_addr t head) < l.Page.object_bytes
      then page_addr t head
      else -1
    end
  end

let carve_small t i ~object_bytes ~layout ~first_offset =
  let n_objects = (t.page_size - first_offset) / object_bytes in
  write_small t i ~object_bytes ~layout ~first_offset ~n_objects
    ~alloc:(Bitset.create n_objects).Bitset.words ~mark:(Bitset.create n_objects).Bitset.words;
  n_objects

let place_large t start ~object_bytes ~layout =
  let n_pages = (object_bytes + t.page_size - 1) / t.page_size in
  write_large_head t start
    { Page.n_pages; object_bytes; l_layout = layout; l_allocated = true; l_marked = false };
  for j = start + 1 to start + n_pages - 1 do
    write_tail t j ~head:start
  done;
  page_addr t start

let release t i =
  let k = kind t i in
  if k = Page.kind_small then begin
    write_vacant t i Page.kind_free;
    1
  end
  else if k = Page.kind_large_head then begin
    let l = large t i in
    l.Page.l_allocated <- false;
    for j = i to i + l.Page.n_pages - 1 do
      write_vacant t j Page.kind_free
    done;
    l.Page.n_pages
  end
  else invalid_arg "Heap.release: not a small page or a large head"

let is_marked t base =
  let i = page_index t base in
  let k = kind t i in
  if k = Page.kind_small then
    let obj = slot t i base in
    obj >= 0 && Bitset.mem_words (mark_words t i) obj
  else k = Page.kind_large_head && (large t i).Page.l_marked

let mark_object t base =
  let i = page_index t base in
  let k = kind t i in
  if not ((k = Page.kind_small && slot t i base >= 0) || k = Page.kind_large_head) then
    invalid_arg "Heap.mark_object: not an object base";
  let fresh = not (is_marked t base) in
  if k = Page.kind_small then Bitset.add_words (mark_words t i) (slot t i base)
  else (large t i).Page.l_marked <- true;
  fresh

let object_layout t base =
  let i = page_index t base in
  let k = kind t i in
  if k = Page.kind_small then (object_bytes t i, small_layout t i)
  else if k = Page.kind_large_head then ((large t i).Page.object_bytes, (large t i).Page.l_layout)
  else invalid_arg "Heap.object_layout: not an object base"

let live_bytes t =
  let total = ref 0 in
  for i = 0 to t.committed - 1 do
    let k = kind t i in
    if k = Page.kind_small then
      total := !total + (Bitset.count_words (alloc_words t i) * object_bytes t i)
    else if k = Page.kind_large_head && (large t i).Page.l_allocated then
      total := !total + (large t i).Page.object_bytes
  done;
  !total

let pp ppf t =
  Format.fprintf ppf "heap %a..%a (%d/%d pages committed, %d free)" Addr.pp t.base Addr.pp
    (limit_reserved t) t.committed t.n_pages (free_page_count t)
