open Cgc_vm

type class_row = {
  object_bytes : int;
  pointer_free : bool;
  pages : int;
  live_objects : int;
  free_slots : int;
  live_bytes : int;
}

type summary = {
  committed_pages : int;
  free_pages : int;
  blacklisted_pages : int;
  large_objects : int;
  large_bytes : int;
  classes : class_row list;
}

let summarize gc =
  let heap = Gc.heap gc in
  let table : (int * bool, class_row) Hashtbl.t = Hashtbl.create 16 in
  let large_objects = ref 0 in
  let large_bytes = ref 0 in
  Heap.iter_committed heap (fun _ p ->
      match p with
      | Page.Small s ->
          let pointer_free = s.Page.layout = Page.Pointer_free in
          let key = (s.Page.object_bytes, pointer_free) in
          let live = Bitset.count s.Page.alloc in
          let row =
            match Hashtbl.find_opt table key with
            | Some r -> r
            | None ->
                {
                  object_bytes = s.Page.object_bytes;
                  pointer_free;
                  pages = 0;
                  live_objects = 0;
                  free_slots = 0;
                  live_bytes = 0;
                }
          in
          Hashtbl.replace table key
            {
              row with
              pages = row.pages + 1;
              live_objects = row.live_objects + live;
              free_slots = row.free_slots + (s.Page.n_objects - live);
              live_bytes = row.live_bytes + (live * s.Page.object_bytes);
            }
      | Page.Large_head l ->
          if l.Page.l_allocated then begin
            incr large_objects;
            large_bytes := !large_bytes + l.Page.object_bytes
          end
      | Page.Free | Page.Uncommitted | Page.Large_tail _ -> ());
  let classes =
    Hashtbl.fold (fun _ row acc -> row :: acc) table []
    |> List.sort (fun a b ->
           match compare a.object_bytes b.object_bytes with
           | 0 -> compare a.pointer_free b.pointer_free
           | c -> c)
  in
  {
    committed_pages = Heap.committed_pages heap;
    free_pages = Heap.free_page_count heap;
    blacklisted_pages = Gc.blacklisted_pages gc;
    large_objects = !large_objects;
    large_bytes = !large_bytes;
    classes;
  }

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>%d pages committed (%d free, %d blacklisted)@," s.committed_pages
    s.free_pages s.blacklisted_pages;
  Format.fprintf ppf "%-8s %-7s %6s %10s %10s %10s@," "size" "kind" "pages" "live objs" "free slots"
    "live bytes";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-8d %-7s %6d %10d %10d %10d@," r.object_bytes
        (if r.pointer_free then "atomic" else "normal")
        r.pages r.live_objects r.free_slots r.live_bytes)
    s.classes;
  if s.large_objects > 0 then
    Format.fprintf ppf "plus %d large object(s), %d bytes@," s.large_objects s.large_bytes;
  Format.fprintf ppf "@]"

let pp_page_map ppf gc =
  let heap = Gc.heap gc in
  let blacklist = Gc.blacklist gc in
  let n = Heap.n_pages heap in
  Format.fprintf ppf "@[<v>";
  for i = 0 to n - 1 do
    let c =
      if Blacklist.is_black blacklist i then '#'
      else
        match Heap.page heap i with
        | Page.Free | Page.Uncommitted -> '.'
        | Page.Small s ->
            if s.Page.layout = Page.Pointer_free then 'A'
            else if Bitset.count s.Page.alloc = s.Page.n_objects then 'S'
            else 's'
        | Page.Large_head _ | Page.Large_tail _ -> 'L'
    in
    Format.pp_print_char ppf c;
    if (i + 1) mod 64 = 0 then Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "@]"
