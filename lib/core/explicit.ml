open Cgc_vm

exception Out_of_memory of string

type t = {
  max_small : int;  (** [Config.max_small_bytes] *)
  heap : Heap.t;
  free_lists : Free_list.t;
  mutable live_bytes : int;
  mutable live_objects : int;
}

let create ?(page_size = 4096) ?(policy = Free_list.Address_ordered) mem ~base ~max_bytes () =
  let config =
    {
      Config.default with
      Config.page_size;
      blacklisting = false;
      initial_pages = 1;
    }
  in
  let heap = Heap.create mem ~config ~base ~max_bytes in
  let max_small = Config.max_small_bytes config in
  let free_lists = Free_list.create ~n_classes:(max_small / Config.granule) policy in
  { max_small; heap; free_lists; live_bytes = 0; live_objects = 0 }

let page_of t a = Heap.page_index t.heap a

let granule = 4 (* [Config.granule]; a literal divisor is a shift under [-opaque] *)
let () = assert (granule = Config.granule)

let carve_page t index ~granules =
  let object_bytes = granules * granule in
  let n_objects =
    Heap.carve_small t.heap index ~object_bytes ~layout:Page.Conservative ~first_offset:0
  in
  let base = Addr.to_int (Heap.page_addr t.heap index) in
  let slots = List.init n_objects (fun i -> base + (i * object_bytes)) in
  Free_list.prepend_block t.free_lists ~granules slots

(* Commit faults injected by a plan are absorbed into the allocator's
   own typed failure: unlike the conservative collector there is no
   escalation ladder to climb, so the caller sees [Out_of_memory] rather
   than a leaking [Mem.Commit_failed]. *)
let refused reason =
  Out_of_memory
    ("explicit allocator: simulated OS refused the commit ("
    ^ Mem.Fault.reason_to_string reason
    ^ ")")

(* The lowest run of [n] vacant pages, committed. *)
let claim t ~n ~none =
  match Heap.find_run t.heap ~n ~ok:(fun ~first:_ _ -> true) with
  | None -> raise (Out_of_memory ("explicit allocator: " ^ none))
  | Some start -> (
      match Heap.commit_through t.heap (start + n - 1) with
      | (_ : bool) -> start
      | exception Mem.Commit_failed { reason; _ } -> raise (refused reason))

let malloc_small t ~granules =
  let take () = Free_list.take t.free_lists ~granules in
  match take () with
  | Some a -> a
  | None -> (
      carve_page t (claim t ~n:1 ~none:"reserved region exhausted") ~granules;
      match take () with
      | Some a -> a
      | None ->
          (* a freshly carved page always populates this class's free
             list; reaching here means the page table is corrupted *)
          raise (Out_of_memory "explicit allocator: freshly carved page yielded no slot"))

let malloc_large t bytes =
  let page_size = Heap.page_size t.heap in
  let n = (bytes + page_size - 1) / page_size in
  let start = claim t ~n ~none:"no free run for large object" in
  Heap.place_large t.heap start ~object_bytes:bytes ~layout:Page.Conservative

let malloc t bytes =
  if bytes <= 0 then invalid_arg "Explicit.malloc: non-positive size";
  let base, rounded =
    if bytes <= t.max_small then begin
      let granules = (bytes + granule - 1) / granule in
      let a = malloc_small t ~granules in
      let index = page_of t a in
      (* a free slot on a page that is not a small-object page is heap
         corruption, reported typed instead of tripping an assertion *)
      if Heap.kind t.heap index <> Page.kind_small then
        invalid_arg "Explicit.malloc: free slot landed on a non-small page";
      Bitset.add_words (Heap.alloc_words t.heap index) (Heap.slot t.heap index a);
      (a, granules * granule)
    end
    else (malloc_large t bytes, bytes)
  in
  t.live_bytes <- t.live_bytes + rounded;
  t.live_objects <- t.live_objects + 1;
  base

let free t a =
  if not (Heap.contains t.heap a) then invalid_arg "Explicit.free: address outside the heap";
  let index = page_of t a in
  let kind = Heap.kind t.heap index in
  if kind = Page.kind_small then begin
    (* the row's fields read in place, not one accessor call each: the
       round trip is footnote 3's baseline, and the calls cost it ~10% *)
    let rows = (Heap.desc t.heap).Heap.d_rows and r = index * Heap.row_stride in
    let object_bytes = rows.(r + Heap.row_object_bytes) and alloc = Heap.alloc_words t.heap index in
    let rel = Addr.diff a (Heap.page_addr t.heap index) - rows.(r + Heap.row_first_offset) in
    let obj = rel / object_bytes in
    if rel < 0 || obj * object_bytes <> rel then invalid_arg "Explicit.free: not an object base";
    if obj >= rows.(r + Heap.row_n_objects) || not (Bitset.mem_words alloc obj) then
      invalid_arg "Explicit.free: double free or wild pointer";
    Bitset.remove_words alloc obj;
    Free_list.add t.free_lists ~granules:(object_bytes / granule) (Addr.to_int a);
    t.live_bytes <- t.live_bytes - object_bytes;
    t.live_objects <- t.live_objects - 1
  end
  else if kind = Page.kind_large_head then begin
    let l = Heap.large t.heap index in
    if not (Addr.equal a (Heap.page_addr t.heap index)) || not l.Page.l_allocated then
      invalid_arg "Explicit.free: double free or wild pointer";
    let (_ : int) = Heap.release t.heap index in
    t.live_bytes <- t.live_bytes - l.Page.object_bytes;
    t.live_objects <- t.live_objects - 1
  end
  else invalid_arg "Explicit.free: not an allocated object"

let is_allocated t a = Addr.equal (Heap.find_object t.heap a) a

let live_bytes t = t.live_bytes
let live_objects t = t.live_objects
let committed_bytes t = Heap.committed_bytes t.heap

let release_empty_pages t =
  let released = ref 0 in
  for i = 0 to Heap.committed_pages t.heap - 1 do
    if Heap.kind t.heap i = Page.kind_small && Bitset.count_words (Heap.alloc_words t.heap i) = 0
    then begin
      Free_list.drop_in_page t.free_lists ~granules:(Heap.object_bytes t.heap i / granule)
        ~page_of:(page_of t) ~page:i;
      released := !released + Heap.release t.heap i
    end
  done;
  !released

let heap t = t.heap

(* Field accessors consult the fault boundary like the collector's: a
   faulted access surfaces as the typed [Mem.Read_fault]/[Write_fault]. *)
let get_field t base i =
  let a = Addr.add base (4 * i) in
  Mem.guard_read (Heap.mem t.heap) a;
  Segment.read_word (Heap.segment t.heap) a

let set_field t base i v =
  let a = Addr.add base (4 * i) in
  Mem.guard_write (Heap.mem t.heap) ~bytes:4 a;
  Segment.write_word (Heap.segment t.heap) a v
