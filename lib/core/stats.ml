type t = {
  mutable collections : int;
  mutable words_scanned : int;
  mutable valid_refs : int;
  mutable false_refs : int;
  mutable objects_marked : int;
  mutable header_cache_hits : int;
  mutable bytes_allocated : int;
  mutable objects_allocated : int;
  mutable bytes_freed : int;
  mutable objects_freed : int;
  mutable live_bytes : int;
  mutable live_objects : int;
  mutable heap_expansions : int;
  mutable mark_stack_overflows : int;
  mutable blacklist_alloc_checks : int;
  mutable blacklist_rejected_pages : int;
  mutable ladder_collects : int;
  mutable ladder_trims : int;
  mutable ladder_expansions : int;
  mutable ladder_backoffs : int;
  mutable ladder_relax_first_page : int;
  mutable ladder_relax_black : int;
  mutable commit_faults : int;
  mutable read_faults : int;
  mutable write_faults : int;
  mutable mark_downgrades : int;
  mutable pages_decayed : int;
  mutable decay_retries : int;
  mutable oom_raised : int;
  mutable precise_collections : int;
  mutable precise_mark_aborts : int;
  mutable precise_stale_roots : int;
  mutable mark_seconds : float;
  mutable sweep_seconds : float;
  mutable total_gc_seconds : float;
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () =
  {
    collections = 0;
    words_scanned = 0;
    valid_refs = 0;
    false_refs = 0;
    objects_marked = 0;
    header_cache_hits = 0;
    bytes_allocated = 0;
    objects_allocated = 0;
    bytes_freed = 0;
    objects_freed = 0;
    live_bytes = 0;
    live_objects = 0;
    heap_expansions = 0;
    mark_stack_overflows = 0;
    blacklist_alloc_checks = 0;
    blacklist_rejected_pages = 0;
    ladder_collects = 0;
    ladder_trims = 0;
    ladder_expansions = 0;
    ladder_backoffs = 0;
    ladder_relax_first_page = 0;
    ladder_relax_black = 0;
    commit_faults = 0;
    read_faults = 0;
    write_faults = 0;
    mark_downgrades = 0;
    pages_decayed = 0;
    decay_retries = 0;
    oom_raised = 0;
    precise_collections = 0;
    precise_mark_aborts = 0;
    precise_stale_roots = 0;
    mark_seconds = 0.;
    sweep_seconds = 0.;
    total_gc_seconds = 0.;
  }

let add_cycle_time t ~t0 ~t1 ~t2 =
  t.mark_seconds <- t.mark_seconds +. (t1 -. t0);
  t.sweep_seconds <- t.sweep_seconds +. (t2 -. t1);
  t.total_gc_seconds <- t.total_gc_seconds +. (t2 -. t0)

let copy t = { t with collections = t.collections }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>collections     %d@,\
     words scanned   %d@,\
     valid refs      %d@,\
     false refs      %d@,\
     objects marked  %d@,\
     header cache    %d hits@,\
     allocated       %d objects / %d bytes@,\
     freed           %d objects / %d bytes@,\
     live            %d objects / %d bytes@,\
     heap expansions %d@,\
     mark overflows  %d@,\
     blacklist       %d alloc checks, %d pages rejected@,\
     ladder          %d collects, %d trims, %d grows (%d backoffs)@,\
     relaxation      %d first-page, %d on-black@,\
     faults          %d commit faults, %d OOM raised@,\
     access faults   %d reads (%d mark downgrades), %d writes@,\
     decay           %d pages quarantined, %d alloc retries@,\
     precise         %d collects, %d mark aborts, %d stale roots@,\
     gc time         %.6fs (mark %.6fs, sweep %.6fs)@]"
    t.collections t.words_scanned t.valid_refs t.false_refs t.objects_marked t.header_cache_hits
    t.objects_allocated
    t.bytes_allocated t.objects_freed t.bytes_freed t.live_objects t.live_bytes t.heap_expansions
    t.mark_stack_overflows t.blacklist_alloc_checks t.blacklist_rejected_pages
    t.ladder_collects t.ladder_trims t.ladder_expansions t.ladder_backoffs
    t.ladder_relax_first_page t.ladder_relax_black
    t.commit_faults t.oom_raised
    t.read_faults t.mark_downgrades t.write_faults
    t.pages_decayed t.decay_retries
    t.precise_collections t.precise_mark_aborts t.precise_stale_roots
    t.total_gc_seconds t.mark_seconds t.sweep_seconds
