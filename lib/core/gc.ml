open Cgc_vm

type t = {
  mem : Mem.t;
  config : Config.t;
  heap : Heap.t;
  blacklist : Blacklist.t;
  (* what the hit path reads of the heap, so that it calls into no
     other module: the descriptor table, and the heap's base, page
     shift and backing bytes *)
  desc : Heap.desc;
  heap_base : int;
  page_shift : int;
  heap_bytes : Bytes.t;
  max_small : int; (* the largest request served from size-class pages *)
  (* allocation cursors, indexed by [slot_of]; -1 = no page *)
  mutable cursor_page : int array; (* the page the class allocates from *)
  mutable cursor_slot : int array; (* first slot of [cursor_page] not yet probed *)
  mutable chain : int array; (* the next page of the class's chain *)
  mutable typed : (int * Page.layout) array;
      (* typed layouts with their granules, in registration order;
         [typed.(k)] owns cursor slot [typed_base + k] *)
  typed_base : int;
  next_open : int array; (* per page: the page after it in its class's chain *)
  roots : Roots.t;
  finalize : Finalize.t;
  stats : Stats.t;
  marker : Mark.t;
  decayed_pages : Bitset.t;
      (* pages quarantined after their memory decayed under the
         allocator: every placement path excludes them, and sweeps never
         refund their slots *)
  mutable allocated_since_gc : int;
  mutable budget : int;
      (* committed bytes / [space_divisor]: the allocation budget between
         budget-triggered collections, refreshed wherever committed
         bytes change ([commit_through] and [trim]) *)
  mutable auto_collect : bool;
  mutable collect_hook : (unit -> unit) option;
      (* when set, the budget check in [maybe_collect] and the ladder's
         Collect rung invoke this instead of the conservative [collect]:
         a wrapper imposing its own liveness discipline (the precise
         view) substitutes its exact collection without the wrapped
         heap ever being marked conservatively behind its back *)
  mutable last_mark_outcome : Mark.Parallel.outcome option;
      (* how the most recent [Internal.run_mark_parallel] ran: parallel,
         or serial with a typed fallback note; [None] until the first *)
}

(* --- the allocation escalation ladder --- *)

type rung =
  | Collect
  | Trim
  | Grow
  | Relax_first_page
  | Relax_black

let rung_to_string = function
  | Collect -> "collect"
  | Trim -> "trim"
  | Grow -> "grow"
  | Relax_first_page -> "relax-first-page"
  | Relax_black -> "relax-black"

type oom_diagnosis = {
  request_bytes : int;
  request_pages : int;
  small : bool;
  pointer_free : bool;
  pages_reserved : int;
  pages_committed : int;
  pages_free : int;
  pages_blacklisted : int;
  rungs : rung list;
  blacklist_starved : bool;
  os_refused : bool;
  pages_decayed : int;
  memory_decayed : bool;
}

exception Out_of_memory of oom_diagnosis

let pp_oom_diagnosis ppf d =
  Format.fprintf ppf
    "out of memory: %d bytes (%d page%s, %s): %d/%d pages committed, %d free, %d blacklisted; \
     rungs [%s]%s%s"
    d.request_bytes d.request_pages
    (if d.request_pages = 1 then "" else "s")
    (if d.small then if d.pointer_free then "small atomic" else "small" else "large")
    d.pages_committed d.pages_reserved d.pages_free d.pages_blacklisted
    (String.concat "; " (List.map rung_to_string d.rungs))
    (if d.blacklist_starved then "; blacklist-starved" else "")
    (if d.os_refused then "; os-refused" else "");
  if d.memory_decayed || d.pages_decayed > 0 then
    Format.fprintf ppf "; memory-decayed (%d page%s quarantined)" d.pages_decayed
      (if d.pages_decayed = 1 then "" else "s")

let oom_message d = Format.asprintf "%a" pp_oom_diagnosis d

(* Tiers of blacklist strictness the ladder may fall through (only with
   [Config.relax_blacklist]): the configured regime, then first-page-only
   cleanliness for large objects (observation 7's escape hatch), then
   placement on blacklisted pages outright, counted as overrides. *)
type tier =
  | Tier_strict
  | Tier_first_page
  | Tier_any

let create ?(config = Config.default) mem ~base ~max_bytes () =
  Config.validate config;
  let heap = Heap.create mem ~config ~base ~max_bytes in
  let blacklist =
    let representation =
      match config.Config.blacklist_buckets with
      | None -> Blacklist.Exact
      | Some buckets -> Blacklist.Hashed buckets
    in
    Blacklist.create ~representation ~n_pages:(Heap.n_pages heap)
      ~refresh:config.Config.blacklist_refresh ()
  in
  let max_small = Config.max_small_bytes config in
  let n_class_slots = 2 * ((max_small / Config.granule) + 1) in
  let stats = Stats.create () in
  let marker = Mark.create heap config blacklist stats in
  let seg = Heap.segment heap in
  let t =
    {
      mem;
      config;
      heap;
      blacklist;
      desc = Heap.desc heap;
      heap_base = Addr.to_int (Segment.base seg);
      page_shift = Heap.page_shift heap;
      heap_bytes = Segment.unsafe_bytes seg;
      max_small;
      cursor_page = Array.make n_class_slots (-1);
      cursor_slot = Array.make n_class_slots 0;
      chain = Array.make n_class_slots (-1);
      typed = [||];
      typed_base = n_class_slots;
      next_open = Array.make (Heap.n_pages heap) (-1);
      roots = Roots.create ();
      finalize = Finalize.create ();
      stats;
      marker;
      decayed_pages = Bitset.create (Heap.n_pages heap);
      allocated_since_gc = 0;
      budget = Heap.committed_bytes heap / config.Config.space_divisor;
      auto_collect = true;
      collect_hook = None;
      last_mark_outcome = None;
    }
  in
  t

let config t = t.config
let mem t = t.mem
let stats t = t.stats
let heap t = t.heap
let blacklist t = t.blacklist
let blacklisted_pages t = Blacklist.count t.blacklist
let live_bytes t = t.stats.Stats.live_bytes
let auto_collect t = t.auto_collect
let set_auto_collect t b = t.auto_collect <- b
let set_collect_hook t h = t.collect_hook <- h

(* --- roots --- *)

let add_static_root t ~lo ~hi ~label = Roots.add t.roots (Roots.Static_range { lo; hi; label })
let add_dynamic_roots t ~label f = Roots.add t.roots (Roots.Dynamic_ranges (label, f))
let add_register_roots t ~label f = Roots.add t.roots (Roots.Register_file (label, f))
let exclude_roots t ~lo ~hi ~label = Roots.exclude t.roots ~lo ~hi ~label
let clear_roots t = Roots.clear t.roots

(* --- collection --- *)

let quarantined t i = Bitset.mem t.decayed_pages i

(* --- the allocation cursors ---

   The page alloc bitmaps are the free lists.  Each (size class,
   pointer_free) pair, and each typed layout, has a cursor (page, slot)
   that finds the next clear alloc bit a word at a time.  (A typed
   layout has one size, so one cursor; it is registered on first use,
   after the size-class slots.)  After a sweep, [reopen] links each
   class's open small pages into an address-ordered chain; the cursor
   walks its chain, then a freshly carved page.  So allocation hands out
   the lowest free address first across the class's pages, then the new
   page's slots in ascending order. *)

(* The registry index of a typed descriptor, or -1.  The descriptor an
   allocation or a page carries is the registered value itself, so a
   first pass by [==] finds it without a structural comparison (a call
   out of the hit path). *)
let rec find_typed t ~same desc k =
  if k = Array.length t.typed then -1
  else
    match t.typed.(k) with
    | _, Page.Typed d when same d desc -> k
    | _, (Page.Typed _ | Page.Conservative | Page.Pointer_free) -> find_typed t ~same desc (k + 1)

let typed_index t desc =
  let k = find_typed t ~same:( == ) desc 0 in
  if k >= 0 then k else find_typed t ~same:( = ) desc 0

(* The registered layout value of a typed descriptor, which every page
   of the layout carries; registered, with a cursor, on first use. *)
let typed_layout t desc =
  let k = typed_index t desc in
  if k >= 0 then snd t.typed.(k)
  else begin
    let granules = (desc.Type_desc.size_bytes + Config.granule - 1) / Config.granule in
    let layout = Page.Typed desc in
    t.typed <- Array.append t.typed [| (granules, layout) |];
    t.cursor_page <- Array.append t.cursor_page [| -1 |];
    t.cursor_slot <- Array.append t.cursor_slot [| 0 |];
    t.chain <- Array.append t.chain [| -1 |];
    layout
  end

let slot_of t ~granules = function
  | Page.Conservative -> 2 * granules
  | Page.Pointer_free -> (2 * granules) + 1
  | Page.Typed desc -> t.typed_base + typed_index t desc

let page_slot t (s : Page.small) = slot_of t ~granules:s.Page.granules s.Page.layout

(* Relink every class's chain over the open small pages: those neither
   quarantined nor [closed].  Every cursor starts over at the head of
   its chain. *)
let reopen ?(closed = fun _ -> false) t =
  Array.fill t.cursor_page 0 (Array.length t.cursor_page) (-1);
  Array.fill t.chain 0 (Array.length t.chain) (-1);
  for i = Heap.committed_pages t.heap - 1 downto 0 do
    match Heap.page t.heap i with
    | Page.Small s when not (quarantined t i || closed i) ->
        let c = page_slot t s in
        t.next_open.(i) <- t.chain.(c);
        t.chain.(c) <- i
    | Page.Small _ | Page.Uncommitted | Page.Free | Page.Large_head _ | Page.Large_tail _ -> ()
  done

(* Close page [i] to its class's cursor: the cursor leaves it, and the
   rest of the chain lies past it already. *)
let close_page t i (s : Page.small) =
  let c = page_slot t s in
  if t.cursor_page.(c) = i then t.cursor_page.(c) <- -1

(* Move class [c]'s cursor to the next page of its chain; [false] once
   the chain is exhausted.  Every page of a chain is still a small page
   of its class: only a sweep releases or recarves a small page, and
   every sweep relinks the chains.  (A fault quarantines only the page
   a cursor is on, which its chain already lies past, and
   [close_page] moves that cursor off it.) *)
let advance t c =
  let p = t.chain.(c) in
  if p < 0 then begin
    t.cursor_page.(c) <- -1;
    false
  end
  else begin
    t.chain.(c) <- t.next_open.(p);
    t.cursor_page.(c) <- p;
    t.cursor_slot.(c) <- 0;
    true
  end

(* --- the hit path ---

   The hit path makes one call into another compilation unit,
   [Mem.access_faults_armed].  The default (dev) build compiles every
   module [-opaque], so a [Bitset], [Heap] or [Segment] function would
   be a real call however small.  The cursor reads its page's row of the
   flat descriptor table, as the marker does, and finds and sets alloc
   bits on the bitmap words in the layout [Bitset.t] documents (62
   members a word; the literal keeps the divisions by a constant). *)

let bits_per_word = 62
let () = assert (bits_per_word = Bitset.bits_per_word && Config.granule = 4)

(* Trailing zeros of a non-zero word below 2^62: the population count
   of the ones below its lowest set bit, by [Bitset.popcount]'s SWAR
   sums. *)
let ntz x =
  let y = (x land -x) - 1 in
  let y = y - ((y lsr 1) land 0x1555_5555_5555_5555) in
  let y = (y land 0x3333_3333_3333_3333) + ((y lsr 2) land 0x3333_3333_3333_3333) in
  let y = (y + (y lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (y * 0x0101_0101_0101_0101) lsr 56

(* The lowest clear bit [j >= i], [j < n], of an alloc bitmap's words,
   or -1: the bit at [i] itself, else the word's next clear bit, else
   the next word's. *)
let rec first_clear words n i =
  if i >= n then -1
  else begin
    let w = i / bits_per_word in
    let b = i - (w * bits_per_word) in
    let word = Array.unsafe_get words w in
    if word land (1 lsl b) = 0 then i
    else begin
      let clear = lnot word land max_int land (-1 lsl b) in
      if clear = 0 then first_clear words n ((w + 1) * bits_per_word)
      else
        let j = (w * bits_per_word) + ntz clear in
        if j < n then j else -1
    end
  end

(* Claim the next clear alloc bit of the cursor's page and return its
   address, or -1 when the page has no free slot left (or the class has
   no page).  Builds nothing on the OCaml heap. *)
let take_slot t c =
  let p = t.cursor_page.(c) in
  if p < 0 then -1
  else begin
    let d = t.desc in
    let words = d.Heap.d_alloc.(p).Bitset.words in
    let obj = first_clear words d.Heap.d_n_objects.(p) t.cursor_slot.(c) in
    if obj < 0 then -1
    else begin
      let w = obj / bits_per_word in
      Array.unsafe_set words w (Array.unsafe_get words w lor (1 lsl (obj - (w * bits_per_word))));
      t.cursor_slot.(c) <- obj + 1;
      t.heap_base + (p lsl t.page_shift) + d.Heap.d_first_offset.(p) + (obj * d.Heap.d_object_bytes.(p))
    end
  end

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* Zero bytes [off, stop) (a multiple of 4) with 64-bit stores. *)
let rec zero_bytes bytes off stop =
  if off + 8 <= stop then begin
    set64u bytes off 0L;
    zero_bytes bytes (off + 8) stop
  end
  else if off < stop then set32u bytes off 0l

(* Zero the [len] bytes of an object at heap address [base]: the
   allocator's write when no access fault can trip, so there is nothing
   to guard. *)
let zero_words t base len =
  let off = base - t.heap_base in
  zero_bytes t.heap_bytes off (off + len)

(* Take a slot from the cursor's page, moving along the chain until a
   page yields one; -1 once the chain is exhausted. *)
let rec take_from_chain t c =
  let a = take_slot t c in
  if a >= 0 || not (advance t c) then a else take_from_chain t c

let refresh_budget t = t.budget <- Heap.committed_bytes t.heap / t.config.Config.space_divisor

(* Every commit and uncommit of the heap goes through [commit_through]
   and [trim], so the budget follows committed bytes.  A commit cut
   short by [Mem.Commit_failed] keeps the pages it committed. *)
let commit_through t i =
  match Heap.commit_through t.heap i with
  | ok ->
      refresh_budget t;
      ok
  | exception (Mem.Commit_failed _ as e) ->
      refresh_budget t;
      raise e

let collect t =
  let t0 = Stats.now_s () in
  t.stats.Stats.collections <- t.stats.Stats.collections + 1;
  Mark.run t.marker t.roots ~mem:t.mem;
  let t1 = Stats.now_s () in
  let (_ : Sweep.result) = Sweep.run t.heap t.finalize t.stats in
  reopen t;
  Stats.add_cycle_time t.stats ~t0 ~t1 ~t2:(Stats.now_s ());
  t.allocated_since_gc <- 0

let trim t =
  let released = Heap.uncommit_trailing_free t.heap in
  refresh_budget t;
  released

let maybe_collect t =
  match t.collect_hook with
  | Some hook ->
      (* A wrapper owns the liveness discipline: the same allocation
         budget triggers collection, but through the wrapper's exact
         collect.  The hook resets the budget via
         [Internal.note_collected], also when its collection aborts,
         so an aborted exact mark retries a budget later. *)
      if t.allocated_since_gc >= t.budget then hook ()
  | None ->
      if t.auto_collect then begin
        (* the paper's startup collection, before the first allocation *)
        if t.stats.Stats.collections = 0 then collect t;
        if t.allocated_since_gc >= t.budget then collect t
      end

(* --- page acquisition --- *)

(* Whether the blacklist permits giving page [i] to this allocation.
   [Tier_any] accepts any page; overrides are counted at placement. *)
let page_ok t ~layout ~small ~tier i =
  if Bitset.mem t.decayed_pages i then false
  else if not t.config.Config.blacklisting then true
  else begin
    t.stats.Stats.blacklist_alloc_checks <- t.stats.Stats.blacklist_alloc_checks + 1;
    match tier with
    | Tier_any -> true
    | Tier_strict | Tier_first_page ->
        if Blacklist.is_black t.blacklist i then begin
          if small && layout = Page.Pointer_free && t.config.Config.atomic_on_black_pages then true
          else begin
            t.stats.Stats.blacklist_rejected_pages <- t.stats.Stats.blacklist_rejected_pages + 1;
            false
          end
        end
        else true
  end

(* A relaxation tier placed the request on blacklisted page(s): record
   each override so the trade of space guarantee for availability stays
   observable. *)
let count_overrides t ~lo ~hi =
  for i = lo to hi - 1 do
    if Blacklist.is_black t.blacklist i then Blacklist.note_override t.blacklist
  done

let first_offset_for t page_index =
  match t.config.Config.avoid_trailing_zeros with
  | None -> 0
  | Some k ->
      let addr = Heap.page_addr t.heap page_index in
      if Addr.trailing_zeros addr >= k then Config.granule else 0

let carve_small_page t index ~granules ~layout =
  let first_offset = first_offset_for t index in
  let object_bytes = granules * Config.granule in
  let n_objects = (Heap.page_size t.heap - first_offset) / object_bytes in
  Heap.set_page t.heap index
    (Page.make_small ~granules ~object_bytes ~layout ~first_offset ~n_objects);
  let c = slot_of t ~granules layout in
  t.cursor_page.(c) <- index;
  t.cursor_slot.(c) <- 0

(* Lowest uncommitted page acceptable to [ok], committing through it. *)
let commit_fresh_page t ~ok =
  let rec go i =
    if i >= Heap.n_pages t.heap then None
    else
      match Heap.page t.heap i with
      | Page.Uncommitted when ok i ->
          if commit_through t i then begin
            t.stats.Stats.heap_expansions <- t.stats.Stats.heap_expansions + 1;
            Some i
          end
          else None
      | Page.Uncommitted | Page.Free | Page.Small _ | Page.Large_head _ | Page.Large_tail _ ->
          go (i + 1)
  in
  go (Heap.committed_pages t.heap)

let try_acquire_small_page t ~granules ~layout ~tier ~note_fault =
  let ok = page_ok t ~layout ~small:true ~tier in
  let found =
    match Heap.find_free_page t.heap ~ok with
    | Some i -> Some i
    | None -> (
        match commit_fresh_page t ~ok with
        | index -> index
        | exception Mem.Commit_failed _ ->
            note_fault ();
            None)
  in
  match found with
  | None -> false
  | Some i ->
      if tier = Tier_any then count_overrides t ~lo:i ~hi:(i + 1);
      carve_small_page t i ~granules ~layout;
      true

(* Ladder rung: grow the committed heap by a batch of pages, halving the
   batch each time the (simulated) OS refuses a commit — capped backoff
   from [max_expand_pages] down to the least that could serve the
   request.  Partial progress is kept: a fault mid-batch leaves the
   already-committed prefix as [Free] pages. *)
let grow_with_backoff t ~need_pages ~note_fault =
  let limit = Heap.n_pages t.heap in
  let rec attempt want =
    let committed = Heap.committed_pages t.heap in
    let room = limit - committed in
    if room <= 0 then false
    else begin
      let want = min want room in
      t.stats.Stats.ladder_expansions <- t.stats.Stats.ladder_expansions + 1;
      match commit_through t (committed + want - 1) with
      | (_ : bool) -> true
      | exception Mem.Commit_failed _ ->
          note_fault ();
          let floor_pages = max 1 (min need_pages room) in
          if want <= floor_pages then false
          else begin
            t.stats.Stats.ladder_backoffs <- t.stats.Stats.ladder_backoffs + 1;
            attempt (max floor_pages (want / 2))
          end
    end
  in
  attempt (max need_pages t.config.Config.max_expand_pages)

(* Drive one request up the escalation ladder.  [attempt ~tier ~note_fault]
   makes one complete placement attempt at the given blacklist
   strictness; the ladder runs it first at [Tier_strict], then after
   each rung that changed something: collect, trim + retry, grow with capped backoff, blacklist relaxation
   (opt-in, [Config.relax_blacklist]), and finally a structured raise
   carrying the diagnosis. *)
let run_ladder t ~request_bytes ~request_pages ~small ~layout ~attempt =
  let stats = t.stats in
  let rungs = ref [] in
  let faults = ref 0 in
  let note_fault () =
    incr faults;
    stats.Stats.commit_faults <- stats.Stats.commit_faults + 1
  in
  let rung r = rungs := r :: !rungs in
  let relaxable = t.config.Config.relax_blacklist && t.config.Config.blacklisting in
  let steps =
    [
      ((fun () -> true), Tier_strict) (* the request as it stands *);
      ( (fun () ->
          (t.auto_collect || Option.is_some t.collect_hook)
          && begin
               rung Collect;
               stats.Stats.ladder_collects <- stats.Stats.ladder_collects + 1;
               (match t.collect_hook with Some f -> f () | None -> collect t);
               true
             end),
        Tier_strict );
      ( (fun () ->
          trim t > 0
          && begin
               rung Trim;
               stats.Stats.ladder_trims <- stats.Stats.ladder_trims + 1;
               true
             end),
        Tier_strict );
      ( (fun () ->
          rung Grow;
          grow_with_backoff t ~need_pages:request_pages ~note_fault),
        Tier_strict );
      ( (fun () ->
          relaxable && (not small)
          && t.config.Config.interior_pointers
          && t.config.Config.large_validity = Config.Anywhere
          && begin
               rung Relax_first_page;
               stats.Stats.ladder_relax_first_page <- stats.Stats.ladder_relax_first_page + 1;
               true
             end),
        Tier_first_page );
      ( (fun () ->
          relaxable
          && begin
               rung Relax_black;
               stats.Stats.ladder_relax_black <- stats.Stats.ladder_relax_black + 1;
               true
             end),
        Tier_any );
    ]
  in
  let rec go = function
    | [] -> None
    | (prep, tier) :: rest -> (
        if not (prep ()) then go rest
        else
          match attempt ~tier ~note_fault with
          | Some a -> Some a
          | None -> go rest)
  in
  match go steps with
  | Some a -> a
  | None ->
      let free = Heap.free_page_count t.heap in
      let room_ignoring_blacklist =
        if small then free > 0 || Heap.committed_pages t.heap < Heap.n_pages t.heap
        else
          Heap.find_free_run t.heap ~n:request_pages
            ~ok:(fun i -> not (Bitset.mem t.decayed_pages i))
          <> None
      in
      stats.Stats.oom_raised <- stats.Stats.oom_raised + 1;
      raise
        (Out_of_memory
           {
             request_bytes;
             request_pages;
             small;
             pointer_free = layout = Page.Pointer_free;
             pages_reserved = Heap.n_pages t.heap;
             pages_committed = Heap.committed_pages t.heap;
             pages_free = free;
             pages_blacklisted = Blacklist.count t.blacklist;
             rungs = List.rev !rungs;
             blacklist_starved = t.config.Config.blacklisting && room_ignoring_blacklist;
             os_refused = !faults > 0;
             pages_decayed = Bitset.count t.decayed_pages;
             memory_decayed = false;
           })

(* Zeroing a fresh object is the collector's write into simulated
   memory: one guarded access per object, so a write-fault plan bites
   the allocator here.  @raise Mem.Write_fault when the plan trips. *)
let zero_object t base bytes =
  Mem.guard_write t.mem ~bytes base;
  Segment.zero_range (Heap.segment t.heap) base ~len:bytes

let mark_page_decayed t i =
  if not (Bitset.mem t.decayed_pages i) then begin
    Bitset.add t.decayed_pages i;
    t.stats.Stats.pages_decayed <- t.stats.Stats.pages_decayed + 1
  end

(* Withdraw a freshly allocated object whose memory decayed under the
   allocator: the object is deallocated, its small page is closed to
   the cursor (nothing else may land on rotted memory), a large run's
   pages return to [Free], and the page(s) join [decayed_pages] —
   excluded by every placement path from here on. *)
let quarantine_object t base =
  let index = Heap.page_index t.heap base in
  (match Heap.page t.heap index with
  | Page.Small s ->
      let rel = Addr.diff base (Heap.page_addr t.heap index) - s.Page.first_offset in
      let obj = rel / s.Page.object_bytes in
      Bitset.remove s.Page.alloc obj;
      Bitset.remove s.Page.mark obj;
      close_page t index s
  | Page.Large_head l ->
      for j = index to index + l.Page.n_pages - 1 do
        Heap.set_page t.heap j Page.Free;
        mark_page_decayed t j
      done
  | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
  mark_page_decayed t index

(* The miss path: the cursor's page is used up, so walk the rest of the
   chain, then carve a page, climbing the ladder as needed. *)
let allocate_small_miss t ~granules ~layout c =
  let attempt ~tier ~note_fault =
    let a = take_from_chain t c in
    if a >= 0 then Some a
    else if try_acquire_small_page t ~granules ~layout ~tier ~note_fault then begin
      let a = take_slot t c in
      if a >= 0 then Some a else None
    end
    else None
  in
  run_ladder t ~request_bytes:(granules * Config.granule) ~request_pages:1 ~small:true ~layout
    ~attempt

(* Blacklist acceptability for one page of a large object: when interior
   pointers are recognized everywhere (and the tier is strict), no page
   of the object may be black; otherwise only the first page matters;
   [Tier_any] accepts anything. *)
let large_page_ok t ~tier ~start i =
  if Bitset.mem t.decayed_pages i then false
  else if not t.config.Config.blacklisting then true
  else begin
    t.stats.Stats.blacklist_alloc_checks <- t.stats.Stats.blacklist_alloc_checks + 1;
    match tier with
    | Tier_any -> true
    | Tier_strict | Tier_first_page ->
        let must_be_clean =
          i = start
          || (tier = Tier_strict
             && t.config.Config.interior_pointers
             && t.config.Config.large_validity = Config.Anywhere)
        in
        if must_be_clean && Blacklist.is_black t.blacklist i then begin
          t.stats.Stats.blacklist_rejected_pages <- t.stats.Stats.blacklist_rejected_pages + 1;
          false
        end
        else true
  end

let allocate_large t ~bytes ~layout =
  let page_size = Heap.page_size t.heap in
  let n = (bytes + page_size - 1) / page_size in
  (* find_free_run probes pages left to right, so the "start" of the
     run under consideration is not known to [ok]; conservatively treat
     every page of the run as needing cleanliness when interiors are
     recognized, and retry with a first-page-only constraint otherwise
     by scanning candidate starts explicitly. *)
  let whole_run_clean tier =
    tier = Tier_strict
    && t.config.Config.interior_pointers
    && t.config.Config.large_validity = Config.Anywhere
  in
  let find ~tier =
    if tier = Tier_any || whole_run_clean tier || not t.config.Config.blacklisting then
      Heap.find_free_run t.heap ~n ~ok:(fun i -> large_page_ok t ~tier ~start:i i)
    else begin
      (* only the first page must be clean: try successive starts *)
      let rec go start =
        if start + n > Heap.n_pages t.heap then None
        else begin
          let usable i =
            (not (Bitset.mem t.decayed_pages i))
            &&
            match Heap.page t.heap i with
            | Page.Free | Page.Uncommitted -> true
            | Page.Small _ | Page.Large_head _ | Page.Large_tail _ -> false
          in
          let rec run_ok i = i >= start + n || (usable i && run_ok (i + 1)) in
          if large_page_ok t ~tier ~start start && usable start && run_ok (start + 1) then
            Some start
          else go (start + 1)
        end
      in
      go 0
    end
  in
  let place ~tier ~note_fault =
    match find ~tier with
    | None -> None
    | Some start -> (
        match commit_through t (start + n - 1) with
        | false -> None
        | true ->
            if start + n - 1 >= Heap.committed_pages t.heap - 1 then
              t.stats.Stats.heap_expansions <- t.stats.Stats.heap_expansions + 1;
            if tier <> Tier_strict then count_overrides t ~lo:start ~hi:(start + n);
            Heap.set_page t.heap start
              (Page.make_large ~n_pages:n ~object_bytes:bytes ~layout);
            for j = start + 1 to start + n - 1 do
              Heap.set_page t.heap j (Page.Large_tail { head_index = start })
            done;
            Some (Heap.page_addr t.heap start)
        | exception Mem.Commit_failed _ ->
            (* the committed prefix of the run stays [Free]: coherent *)
            note_fault ();
            None)
  in
  run_ladder t ~request_bytes:bytes ~request_pages:n ~small:false ~layout ~attempt:place

(* Place a request of [rounded] bytes (its size-class size when small)
   by any path: the cursor, its chain, a carved page, the ladder. *)
let place t ~small ~bytes ~rounded ~layout =
  if small then begin
    let granules = rounded / Config.granule in
    let c = slot_of t ~granules layout in
    let a = take_slot t c in
    if a >= 0 then a else allocate_small_miss t ~granules ~layout c
  end
  else allocate_large t ~bytes ~layout

(* Zero the new object, retrying a transient write fault in place up to
   [transient_left] times; [false] when the memory decayed or kept
   refusing.  Memory that did so quarantines the object's page(s) and
   sends the request back up the ladder, which now excludes them; a
   ladder that then runs dry reports a [memory_decayed] diagnosis. *)
let rec zeroed t base rounded transient_left =
  match zero_object t base rounded with
  | () -> true
  | exception Mem.Write_fault _ ->
      t.stats.Stats.write_faults <- t.stats.Stats.write_faults + 1;
      (not (Mem.range_decayed t.mem base ~bytes:rounded))
      && transient_left > 0
      && zeroed t base rounded (transient_left - 1)

(* Zero the object just placed at [base] through the guarded write, or
   quarantine it and place the request again. *)
let rec settle t base ~small ~bytes ~rounded ~layout =
  if zeroed t base rounded 2 then base
  else begin
    t.stats.Stats.decay_retries <- t.stats.Stats.decay_retries + 1;
    quarantine_object t base;
    match settle t (place t ~small ~bytes ~rounded ~layout) ~small ~bytes ~rounded ~layout with
    | b -> b
    | exception Out_of_memory d -> raise (Out_of_memory { d with memory_decayed = true })
  end

(* The hit path is a small request whose cursor has a free slot while no
   access fault can trip: it is served and zeroed without leaving this
   module.  Anything else (a miss, a large request, an armed plan or
   decayed memory) takes [place] and the guarded [settle]. *)
let allocate_layout ?finalizer t ~layout bytes =
  if bytes <= 0 then invalid_arg "Gc.allocate: non-positive size";
  maybe_collect t;
  let small = bytes <= t.max_small in
  (* 4-byte granules (asserted above), so literal shifts and masks *)
  let rounded = if small then (bytes + 3) land lnot 3 else bytes in
  let a = if small then take_slot t (slot_of t ~granules:(rounded lsr 2) layout) else -1 in
  let base =
    if a >= 0 && not (Mem.access_faults_armed t.mem) then begin
      zero_words t a rounded;
      a
    end
    else
      settle t
        (if a >= 0 then a else place t ~small ~bytes ~rounded ~layout)
        ~small ~bytes ~rounded ~layout
  in
  t.stats.Stats.bytes_allocated <- t.stats.Stats.bytes_allocated + rounded;
  t.stats.Stats.objects_allocated <- t.stats.Stats.objects_allocated + 1;
  t.allocated_since_gc <- t.allocated_since_gc + rounded;
  (match finalizer with
  | Some token -> Finalize.register t.finalize base ~token
  | None -> ());
  base

let allocate ?(pointer_free = false) ?finalizer t bytes =
  allocate_layout ?finalizer t
    ~layout:(if pointer_free then Page.Pointer_free else Page.Conservative)
    bytes

(* An atomic descriptor has nothing to read: it allocates pointer-free. *)
let allocate_typed ?finalizer t desc =
  let layout =
    if Type_desc.is_atomic desc then Page.Pointer_free else typed_layout t desc
  in
  allocate_layout ?finalizer t ~layout desc.Type_desc.size_bytes

(* --- object access and exact queries --- *)

(* Field accessors go straight to the heap segment for speed, so they
   consult the fault boundary themselves; a faulted access surfaces to
   the mutator as the typed exception after being counted. *)
let get_field t base i =
  let a = Addr.add base (4 * i) in
  (match Mem.probe_read t.mem a with
  | None -> ()
  | Some reason ->
      t.stats.Stats.read_faults <- t.stats.Stats.read_faults + 1;
      raise (Mem.Read_fault { addr = a; value = Mem.poison_word; reason }));
  Segment.read_word (Heap.segment t.heap) a

let set_field t base i v =
  let a = Addr.add base (4 * i) in
  (match Mem.probe_write t.mem a with
  | None -> ()
  | Some reason ->
      t.stats.Stats.write_faults <- t.stats.Stats.write_faults + 1;
      raise (Mem.Write_fault { addr = a; bytes = 4; reason }));
  Segment.write_word (Heap.segment t.heap) a v

let exact_config = { Config.default with Config.interior_pointers = true; large_validity = Config.Anywhere }

let find_object t addr =
  match Mark.classify t.heap exact_config addr with
  | Mark.Valid { base; page = _ } -> Some base
  | Mark.False_in_heap _ | Mark.Outside -> None

let is_allocated t addr =
  match find_object t addr with
  | Some base -> Addr.equal base addr
  | None -> false

let object_size t addr =
  if is_allocated t addr then Some (fst (Heap.object_layout t.heap addr)) else None

(* --- finalization --- *)

let add_finalizer t addr ~token = Finalize.register t.finalize addr ~token
let drain_finalized t = Finalize.drain t.finalize

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a@,%a@]" Heap.pp t.heap Blacklist.pp t.blacklist Stats.pp t.stats

module Internal = struct
  let decayed_pages t = t.decayed_pages
  let finalize t = t.finalize
  let roots t = t.roots
  let marker t = t.marker
  let reopen = reopen

  let allocate_typed = allocate_typed

  let cursor_pages t =
    let pages = ref [] in
    Array.iteri
      (fun c p ->
        if p >= 0 then
          let granules, layout =
            if c >= t.typed_base then t.typed.(c - t.typed_base)
            else (c / 2, if c mod 2 = 1 then Page.Pointer_free else Page.Conservative)
          in
          pages := (granules, layout, p) :: !pages)
      t.cursor_page;
    List.rev !pages

  let run_sweep t =
    let r = Sweep.run t.heap t.finalize t.stats in
    reopen t;
    r
  let run_mark t = Mark.run t.marker t.roots ~mem:t.mem
  let note_collected t = t.allocated_since_gc <- 0

  let run_mark_parallel t ~jobs =
    let outcome = Mark.Parallel.run t.marker t.roots ~mem:t.mem ~jobs in
    t.last_mark_outcome <- Some outcome;
    outcome

  let last_mark_outcome t = t.last_mark_outcome

  let is_marked t addr =
    match find_object t addr with None -> false | Some base -> Heap.is_marked t.heap base
end
