(* The promoted-garbage model: a static prediction of the section 3.1
   ceiling, the way {!Model.predict} statically predicts retention.

   The generational collector promotes page-wise: a page whose objects
   survive [promote_after] consecutive minor collections is tenured.
   The object-grained approximation here is: an object that the
   conservative root scan would consider live ([Apparent.apparent]) at
   [promote_after] consecutive GC points is predicted promoted — it
   kept its page occupied through that many sweeps.  Among the
   predicted-promoted, those outside the precise set at the last GC
   point are predicted {e promoted garbage}: dead data no minor
   collection will ever reclaim.

   The model is object-grained where the collector is page-grained, so
   agreement with the measured figure is banded, not exact: a garbage
   object sharing a page with a live survivor promotes in reality even
   if its own apparent streak is short, and page rejuvenation can delay
   a predicted promotion.  {!agrees} allows the larger of one page or a
   quarter of the predicted figure. *)

module ISet = Liveness.ISet

type prediction = {
  pr_promote_after : int;
  pr_promoted : (int * int) list;  (** (id, bytes), predicted promoted *)
  pr_promoted_bytes : int;
  pr_garbage : (int * int) list;
      (** predicted-promoted objects precisely dead at the last GC point *)
  pr_garbage_bytes : int;
}

let predict ?(promote_after = 2) (p : Ir.program) =
  let liveness = Liveness.analyze p in
  let ap = Apparent.analyze p liveness in
  let snapshots = ap.Apparent.snapshots in
  (* consecutive-apparent streaks per object, in snapshot order *)
  let streak : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let promoted = ref ISet.empty in
  List.iter
    (fun (snap : Apparent.gc_snapshot) ->
      let seen = snap.Apparent.apparent in
      (* a snapshot where the object is not apparent resets its streak:
         its page was swept (or at least emptied of it) *)
      Hashtbl.iter (fun id _ -> if not (ISet.mem id seen) then Hashtbl.remove streak id)
      @@ Hashtbl.copy streak;
      ISet.iter
        (fun id ->
          let s = (match Hashtbl.find_opt streak id with Some s -> s | None -> 0) + 1 in
          Hashtbl.replace streak id s;
          if s >= promote_after then promoted := ISet.add id !promoted)
        seen)
    snapshots;
  let precise_end =
    match List.rev snapshots with
    | last :: _ -> last.Apparent.precise
    | [] -> ISet.empty
  in
  let bytes_of id =
    match Hashtbl.find_opt ap.Apparent.objects id with
    | Some o -> o.Apparent.o_bytes
    | None -> 0
  in
  let promoted_list =
    ISet.fold (fun id acc -> (id, bytes_of id) :: acc) !promoted [] |> List.rev
  in
  let garbage_list = List.filter (fun (id, _) -> not (ISet.mem id precise_end)) promoted_list in
  let sum l = List.fold_left (fun acc (_, b) -> acc + b) 0 l in
  {
    pr_promote_after = promote_after;
    pr_promoted = promoted_list;
    pr_promoted_bytes = sum promoted_list;
    pr_garbage = garbage_list;
    pr_garbage_bytes = sum garbage_list;
  }

(* One page of slack, or a quarter of the predicted figure — whichever
   is larger.  Page-grained promotion can over- or under-shoot the
   object-grained model by co-residents of a page, never by more than a
   page per boundary in the scenarios this gates. *)
let tolerance pr = max 4096 (pr.pr_garbage_bytes / 4)
let agrees pr ~measured = abs (measured - pr.pr_garbage_bytes) <= tolerance pr
