(* The reference walk: crash exploration as it was first written, where
   a risk-ordered schedule replays a fresh prefix into a new state for
   every boundary it checks. Crash_explore.run walks the trace forward
   instead (twice for risk-ordered schedules); its outcome must equal
   this one field by field (see the differential property in
   test_faultinject.ml). The schedule is copied here too, so the
   reference depends on nothing but the plan and the image check. *)

module FI = Faultinject
module CE = FI.Crash_explore
open CE

(* Positions into [plan.boundary_indexes] in exploration order. The
   strategy type is abstract: any strategy but [exhaustive] is
   [guided]. *)
let schedule plan strategy =
  let n = Array.length plan.boundary_indexes in
  let order = Array.init n Fun.id in
  if strategy <> exhaustive then begin
    let risks = Infer.Risk.scores (plan_invariants plan) (plan_events plan) in
    let risk_of pos =
      let ev = plan.boundary_events.(pos) in
      if ev >= 0 && ev < Array.length risks then risks.(ev) else 0.0
    in
    (* Highest risk first; trace order breaks ties, so an unbounded
       guided run visits every boundary exhaustive does. *)
    let cmp a b =
      let c = compare (risk_of b) (risk_of a) in
      if c <> 0 then c else compare a b
    in
    Array.sort cmp order
  end;
  order

let is_monotone order =
  let ok = ref true in
  for i = 1 to Array.length order - 1 do
    if order.(i) <= order.(i - 1) then ok := false
  done;
  !ok

let run ?(stop_at_first = false) ~recovery plan strategy =
  let order = schedule plan strategy in
  let boundaries_checked = ref 0 and images_checked = ref 0 and failures = ref [] in
  let explored = ref 0 and stop = ref false in
  let budget_left () = match plan.budget with None -> max_int | Some b -> b - !images_checked in
  (* Checks one boundary against the image budget; flips [stop] when the
     budget is exhausted (before spending anything) or on a failure
     under [stop_at_first]. *)
  let check_at st index =
    if budget_left () <= 0 then stop := true
    else begin
      let allowance = min plan.max_images (budget_left ()) in
      incr boundaries_checked;
      incr explored;
      let failing, checked = Pmem.State.check_crash_images st ~max_images:allowance ~recovery in
      images_checked := !images_checked + checked;
      if failing > 0 then begin
        failures :=
          { index; step = plan.steps.(index); failing_images = failing; images_checked = checked }
          :: !failures;
        if stop_at_first then stop := true
      end
    end
  in
  if is_monotone order then begin
    (* A trace-ordered schedule runs as one forward replay. *)
    let st = Pmem.State.create () in
    let m = Array.length order in
    let next = ref 0 and i = ref 0 in
    let n = Array.length plan.steps in
    while (not !stop) && !i < n && !next < m do
      FI.Replay.apply st plan.steps.(!i);
      if plan.boundary_indexes.(order.(!next)) = !i then begin
        check_at st !i;
        incr next
      end;
      incr i
    done
  end
  else begin
    (* Risk-ordered schedules jump around the trace: each boundary gets
       its own prefix replay into a fresh state. Costlier per boundary,
       but guided runs exist to check far fewer boundaries. *)
    let m = Array.length order in
    let k = ref 0 in
    while (not !stop) && !k < m do
      let index = plan.boundary_indexes.(order.(!k)) in
      if budget_left () <= 0 then stop := true
      else begin
        let st = Pmem.State.create () in
        for j = 0 to index do
          FI.Replay.apply st plan.steps.(j)
        done;
        check_at st index
      end;
      incr k
    done
  end;
  let failures = List.sort (fun a b -> compare a.index b.index) !failures in
  let skipped = Array.length order - !explored in
  {
    result =
      {
        boundaries_checked = !boundaries_checked;
        images_checked = !images_checked;
        failures;
      };
    scheduled = Array.length order;
    explored = !explored;
    skipped;
  }

