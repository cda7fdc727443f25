exception Address_space_exhausted of { requested : int }

(* --- fault injection ------------------------------------------------ *)

module Fault = struct
  type reason =
    | Countdown
    | Chance
    | Address
    | Quota
    | Decayed

  let reason_to_string = function
    | Countdown -> "countdown"
    | Chance -> "chance"
    | Address -> "address"
    | Quota -> "quota"
    | Decayed -> "decayed"

  type target = Commits | Reads | Writes | Access

  type plan = {
    mutable countdown : int;
        (* > 0: charges remaining before the next injected failure *)
    rearm : int;  (* 0 = one-shot; > 0: period to re-arm the countdown *)
    probability : float;
    rng : Rng.t option;
    addr_pred : (Addr.t -> bool) option;
    mutable quota_bytes : int;  (* < 0 = unlimited *)
    mutable charged_bytes : int;  (* commits minus refunds since install *)
    mutable injected : int;
    commits : bool;  (* plan applies to commit/map charges *)
    reads : bool;  (* plan applies to guarded word/byte reads *)
    writes : bool;  (* plan applies to guarded word/byte writes *)
    decay_bytes : int;
        (* 0 = transient ECC corruption; > 0: a tripped access permanently
           decays the aligned region of this many bytes around it *)
    mutable decayed_bytes : int;  (* bytes this plan has decayed *)
    mutable read_faults : int;
    mutable write_faults : int;
  }

  let plan ?(countdown = 0) ?(rearm = false) ?probability ?addr_pred ?quota_bytes
      ?(target = Commits) ?(decay_bytes = 0) () =
    if countdown < 0 then invalid_arg "Mem.Fault.plan: negative countdown";
    (match quota_bytes with
    | Some q when q < 0 -> invalid_arg "Mem.Fault.plan: negative quota"
    | Some _ | None -> ());
    if decay_bytes < 0 || (decay_bytes > 0 && decay_bytes mod 4 <> 0) then
      invalid_arg "Mem.Fault.plan: decay_bytes must be a non-negative word multiple";
    let probability, rng =
      match probability with
      | None -> (0., None)
      | Some (p, seed) ->
          if p < 0. || p > 1. then invalid_arg "Mem.Fault.plan: probability out of [0,1]";
          (p, Some (Rng.create seed))
    in
    let commits, reads, writes =
      match target with
      | Commits -> (true, false, false)
      | Reads -> (false, true, false)
      | Writes -> (false, false, true)
      | Access -> (false, true, true)
    in
    {
      countdown;
      rearm = (if rearm then countdown else 0);
      probability;
      rng;
      addr_pred;
      quota_bytes = Option.value quota_bytes ~default:(-1);
      charged_bytes = 0;
      injected = 0;
      commits;
      reads;
      writes;
      decay_bytes;
      decayed_bytes = 0;
      read_faults = 0;
      write_faults = 0;
    }

  let injected p = p.injected
  let charged_bytes p = p.charged_bytes
  let read_faults p = p.read_faults
  let write_faults p = p.write_faults

  let decayed_bytes p = p.decayed_bytes

  let pp ppf p =
    let targets =
      String.concat "+"
        (List.filter_map
           (fun (armed, name) -> if armed then Some name else None)
           [ (p.commits, "commits"); (p.reads, "reads"); (p.writes, "writes") ])
    in
    Format.fprintf ppf
      "fault plan[%s]: countdown=%d%s p=%.3f quota=%s charged=%d injected=%d"
      targets p.countdown
      (if p.rearm > 0 then Format.sprintf " (rearm %d)" p.rearm else "")
      p.probability
      (if p.quota_bytes < 0 then "none" else string_of_int p.quota_bytes)
      p.charged_bytes p.injected;
    if p.reads || p.writes then
      Format.fprintf ppf " reads=%d writes=%d" p.read_faults p.write_faults;
    if p.decay_bytes > 0 then
      Format.fprintf ppf " decay=%dB (%d decayed)" p.decay_bytes p.decayed_bytes
end

exception
  Commit_failed of {
    op : string;
    addr : Addr.t;
    bytes : int;
    reason : Fault.reason;
  }

exception Read_fault of { addr : Addr.t; value : int; reason : Fault.reason }
exception Write_fault of { addr : Addr.t; bytes : int; reason : Fault.reason }

(* The pattern a decayed region returns: 0xDE in every byte, so raw
   (unguarded) scanners observe the same poison the typed faults report.
   Chosen well outside any simulated heap so a conservative scan
   classifies it as "not a pointer". *)
let poison_byte = '\xDE'
let poison_word = 0xDEDEDEDE

type t = {
  endian : Endian.t;
  mutable segs : Segment.t array; (* sorted by base, non-overlapping *)
  mutable fault_plan : Fault.plan option;
  mutable faults_injected : int;  (* across all plans ever installed *)
  mutable decayed : (int * (int, unit) Hashtbl.t) list;
      (* decayed memory, whichever plan rotted it: per block size, the
         starts of the aligned blocks of that size that have decayed *)
  mutable guarded : bool;
      (* a plan arms reads or writes, or some region has decayed: the
         one test the access probes make on the fault-free path *)
}

let create ?(endian = Endian.Little) () =
  { endian; segs = [||]; fault_plan = None; faults_injected = 0; decayed = []; guarded = false }

let endian t = t.endian

let set_fault_plan t plan =
  t.fault_plan <- plan;
  t.guarded <-
    t.decayed <> []
    || match plan with Some p -> p.Fault.reads || p.Fault.writes | None -> false

let fault_plan t = t.fault_plan
let faults_injected t = t.faults_injected

let inject t (p : Fault.plan) ~op ~addr ~bytes reason =
  p.Fault.injected <- p.Fault.injected + 1;
  t.faults_injected <- t.faults_injected + 1;
  raise (Commit_failed { op; addr; bytes; reason })

(* One consulted operation against the plan's shared trip state
   (countdown stream, seeded probability, address predicate).  Guarded
   reads and writes draw from the same streams, so a plan armed for
   [Access] keeps one deterministic schedule across both.  A fired trip
   aborts evaluation, matching the pre-access-fault behavior where
   [inject] raised before later checks could draw. *)
let consult (p : Fault.plan) ~addr : Fault.reason option =
  let fired = ref None in
  if p.Fault.countdown > 0 then begin
    p.Fault.countdown <- p.Fault.countdown - 1;
    if p.Fault.countdown = 0 then begin
      p.Fault.countdown <- p.Fault.rearm;
      fired := Some Fault.Countdown
    end
  end;
  (if !fired = None then
     match p.Fault.rng with
     | Some rng when Rng.chance rng p.Fault.probability -> fired := Some Fault.Chance
     | Some _ | None -> ());
  (if !fired = None then
     match p.Fault.addr_pred with
     | Some pred when pred addr -> fired := Some Fault.Address
     | Some _ | None -> ());
  !fired

(* Consult the installed plan for one chargeable operation.  The quota
   is checked last so a countdown or predicate failure never debits it;
   a successful charge debits [bytes] against the quota. *)
let charge t ~op ~addr ~bytes ~against_quota =
  match t.fault_plan with
  | None -> ()
  | Some p when not p.Fault.commits -> ()
  | Some p ->
      (match consult p ~addr with
      | Some reason -> inject t p ~op ~addr ~bytes reason
      | None -> ());
      if against_quota then begin
        if p.Fault.quota_bytes >= 0 && p.Fault.charged_bytes + bytes > p.Fault.quota_bytes then
          inject t p ~op ~addr ~bytes Fault.Quota;
        p.Fault.charged_bytes <- p.Fault.charged_bytes + bytes
      end

let commit t ~addr ~bytes = charge t ~op:"commit" ~addr ~bytes ~against_quota:true

let uncommit t ~addr ~bytes =
  ignore addr;
  match t.fault_plan with
  | None -> ()
  | Some p -> p.Fault.charged_bytes <- max 0 (p.Fault.charged_bytes - bytes)

(* --- read/write access faults --------------------------------------- *)

let plan_arms t dir =
  match t.fault_plan with
  | Some p -> ( match dir with `Read -> p.Fault.reads | `Write -> p.Fault.writes)
  | None -> false

let read_faults_armed t = t.decayed <> [] || plan_arms t `Read
let write_faults_armed t = t.decayed <> [] || plan_arms t `Write
let access_faults_armed t = t.guarded

(* A fault is counted on the installed plan, if any: a decayed word hit
   with no plan installed surfaces as the typed fault but counts as no
   injection. *)
let note_access_fault t dir =
  match t.fault_plan with
  | None -> ()
  | Some p ->
      (match dir with
      | `Read -> p.Fault.read_faults <- p.Fault.read_faults + 1
      | `Write -> p.Fault.write_faults <- p.Fault.write_faults + 1);
      p.Fault.injected <- p.Fault.injected + 1;
      t.faults_injected <- t.faults_injected + 1

(* Decayed regions are aligned blocks, so overlap reduces to membership
   of each covered block start — O(bytes/n) per block size, not a scan
   of every region ever decayed. *)
let range_in_decay t a bytes =
  List.exists
    (fun (n, tbl) ->
      let first = a - (a mod n) and last_byte = a + bytes - 1 in
      let last = last_byte - (last_byte mod n) in
      let rec probe s = s <= last && (Hashtbl.mem tbl s || probe (s + n)) in
      probe first)
    t.decayed

(* Permanently decay the aligned [decay_bytes] region containing [addr]:
   record it in the address space (so every further guarded access
   reports [Decayed], with or without a plan installed) and physically
   overwrite the mapped bytes with the poison pattern, so raw scanners —
   the mark fast path reads segment bytes directly — see exactly what
   the typed fault reports. *)
let decay_region t (p : Fault.plan) addr =
  let a = Addr.to_int addr in
  let n = p.Fault.decay_bytes in
  let lo = a - (a mod n) in
  let hi = lo + n in
  let tbl =
    match List.assoc_opt n t.decayed with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        t.decayed <- (n, tbl) :: t.decayed;
        tbl
  in
  Hashtbl.replace tbl lo ();
  p.Fault.decayed_bytes <- p.Fault.decayed_bytes + n;
  t.guarded <- true;
  Array.iter
    (fun seg ->
      let slo = max lo (Addr.to_int (Segment.base seg))
      and shi = min hi (Addr.to_int (Segment.limit seg)) in
      if slo < shi then Segment.fill seg (Addr.of_int slo) ~len:(shi - slo) poison_byte)
    t.segs

(* Consult the plan for one guarded access of [bytes] at [addr] without
   raising.  Returns the fault reason when the access must fail; the
   caller decides how to surface it (the marker downgrades, [guard_read]
   and [guard_write] raise the typed exceptions). *)
let probe_access t dir ~addr ~bytes =
  if not t.guarded then None
  else if range_in_decay t (Addr.to_int addr) bytes then begin
    note_access_fault t dir;
    Some Fault.Decayed
  end
  else
    match t.fault_plan with
    | Some p when plan_arms t dir -> (
        match consult p ~addr with
        | None -> None
        | Some reason ->
            if p.Fault.decay_bytes > 0 then decay_region t p addr;
            note_access_fault t dir;
            Some reason)
    | Some _ | None -> None

(* Pure query: does [addr, addr+bytes) overlap a decayed region?  No
   trip state is consumed and nothing is counted, so callers can
   distinguish "that memory rotted" from a transient refusal without
   perturbing the plan. *)
let range_decayed t addr ~bytes = range_in_decay t (Addr.to_int addr) bytes

let probe_read t addr = probe_access t `Read ~addr ~bytes:4
let probe_write t addr = probe_access t `Write ~addr ~bytes:4

let guard_read t addr =
  match probe_read t addr with
  | None -> ()
  | Some reason -> raise (Read_fault { addr; value = poison_word; reason })

let guard_write t ~bytes addr =
  match probe_access t `Write ~addr ~bytes with
  | None -> ()
  | Some reason -> raise (Write_fault { addr; bytes; reason })

let overlaps a b =
  Addr.to_int (Segment.base a) < Addr.to_int (Segment.limit b)
  && Addr.to_int (Segment.base b) < Addr.to_int (Segment.limit a)

let insert t seg =
  Array.iter
    (fun existing ->
      if overlaps seg existing then
        invalid_arg
          (Format.asprintf "Mem.map: %a overlaps %a" Segment.pp seg Segment.pp existing))
    t.segs;
  let segs = Array.append t.segs [| seg |] in
  Array.sort (fun a b -> Addr.compare (Segment.base a) (Segment.base b)) segs;
  t.segs <- segs

let map t ~name ~kind ~base ~size =
  (* Mapping reserves address space; it does not count against the
     commit quota (pages are charged as the heap commits them). *)
  charge t ~op:"map" ~addr:base ~bytes:size ~against_quota:false;
  let seg = Segment.create ~name ~kind ~endian:t.endian ~base ~size in
  insert t seg;
  seg

let page = 0x1000

let map_anywhere t ~name ~kind ?(above = Addr.of_int page) ~size () =
  let size_rounded = (size + page - 1) / page * page in
  let candidate = ref (Addr.to_int (Addr.align_up above page)) in
  Array.iter
    (fun seg ->
      let lo = Addr.to_int (Segment.base seg) and hi = Addr.to_int (Segment.limit seg) in
      if !candidate + size_rounded > lo && !candidate < hi then
        candidate := Addr.to_int (Addr.align_up (Addr.of_int hi) page))
    t.segs;
  if !candidate + size_rounded > Addr.space_size then
    raise (Address_space_exhausted { requested = size });
  map t ~name ~kind ~base:(Addr.of_int !candidate) ~size

let unmap t seg =
  t.segs <- Array.of_list (List.filter (fun s -> s != seg) (Array.to_list t.segs))

let find t a =
  (* Binary search for the last segment with base <= a. *)
  let segs = t.segs in
  let n = Array.length segs in
  let rec go lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let seg = segs.(mid) in
      if Addr.to_int a < Addr.to_int (Segment.base seg) then go lo mid
      else if Segment.contains seg a then Some seg
      else go (mid + 1) hi
    end
  in
  go 0 n

let is_mapped t a = Option.is_some (find t a)

let get t a =
  match find t a with
  | Some seg -> seg
  | None -> invalid_arg (Printf.sprintf "Mem: unmapped address %s" (Addr.to_string a))

let read_word t a =
  guard_read t a;
  Segment.read_word (get t a) a

let write_word t a v =
  guard_write t ~bytes:4 a;
  Segment.write_word (get t a) a v

let read_u8 t a =
  (match probe_access t `Read ~addr:a ~bytes:1 with
  | None -> ()
  | Some reason -> raise (Read_fault { addr = a; value = Char.code poison_byte; reason }));
  Segment.read_u8 (get t a) a

let write_u8 t a v =
  guard_write t ~bytes:1 a;
  Segment.write_u8 (get t a) a v

let pp ppf t =
  Format.fprintf ppf "@[<v>address space (%s-endian):@," (Endian.to_string t.endian);
  Array.iter (fun s -> Format.fprintf ppf "  %a@," Segment.pp s) t.segs;
  (match t.fault_plan with
  | Some p -> Format.fprintf ppf "  %a@," Fault.pp p
  | None -> ());
  Format.fprintf ppf "@]"
