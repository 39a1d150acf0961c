type boundaries = Every_op | Fences_only

type failure = {
  index : int;
  step : Replay.step;
  failing_images : int;
  images_checked : int;
}

type result = {
  boundaries_checked : int;
  images_checked : int;
  failures : failure list;
}

let is_boundary boundaries step =
  match boundaries with
  | Fences_only -> Replay.is_fence step
  | Every_op -> Replay.is_store step || Replay.is_clf step || Replay.is_fence step

(* ------------------------------------------------------------------ *)
(* Exploration plans                                                   *)
(* ------------------------------------------------------------------ *)

type plan = {
  steps : Replay.step array;
  boundary_kind : boundaries;
  boundary_indexes : int array;
  boundary_events : int array;
  max_images : int;
  budget : int option;
  invariants : Infer.Invariant.report option;
}

let make_plan ?(boundaries = Every_op) ?(max_images = 64) ?budget ?invariants steps =
  if max_images < 1 then invalid_arg "Crash_explore.make_plan: max_images must be >= 1";
  let idx = ref [] and evs = ref [] in
  let event_count = ref 0 in
  Array.iteri
    (fun i step ->
      if Replay.event_of_step step <> None then incr event_count;
      if is_boundary boundaries step then begin
        idx := i :: !idx;
        (* Every boundary step (store/CLF/fence) projects to an event,
           so the running event count is >= 1 here. *)
        evs := (!event_count - 1) :: !evs
      end)
    steps;
  {
    steps;
    boundary_kind = boundaries;
    boundary_indexes = Array.of_list (List.rev !idx);
    boundary_events = Array.of_list (List.rev !evs);
    max_images;
    budget;
    invariants;
  }

let plan_events plan = Replay.events_of_steps plan.steps

let plan_invariants plan =
  match plan.invariants with Some r -> r | None -> Infer.Analyze.infer (plan_events plan)

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

type strategy = Exhaustive | Guided

let exhaustive = Exhaustive
let guided = Guided

(* The strategy's exploration order as positions into
   [plan.boundary_indexes]: a permutation of [0 .. n-1]. *)
let schedule plan strategy =
  let n = Array.length plan.boundary_indexes in
  match strategy with
  | Exhaustive -> Array.init n Fun.id
  | Guided ->
      let risks = Infer.Risk.scores (plan_invariants plan) (plan_events plan) in
      let order = Array.init n Fun.id in
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
      Array.sort cmp order;
      order

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

type outcome = {
  result : result;
  scheduled : int;
  explored : int;
  skipped : int;
}

let is_monotone order =
  let ok = ref true in
  for i = 1 to Array.length order - 1 do
    if order.(i) <= order.(i - 1) then ok := false
  done;
  !ok

(* Replays the plan's steps once, forward, into a fresh state and calls
   [f j st] right after the boundary at [positions.(j)] ([positions]
   ascend, as positions into [plan.boundary_indexes]); the walk ends
   when [f] returns false. *)
let walk plan positions f =
  let st = Pmem.State.create () in
  let n = Array.length plan.steps and m = Array.length positions in
  let rec go i j =
    if i < n && j < m then begin
      Replay.apply st plan.steps.(i);
      if plan.boundary_indexes.(positions.(j)) <> i then go (i + 1) j else if f j st then go (i + 1) (j + 1)
    end
  in
  go 0 0

let run ?(stop_at_first = false) ?(metrics = Obs.Metrics.disabled) ~recovery plan strategy =
  let order = schedule plan strategy in
  let m = Array.length order in
  let budget = Option.value plan.budget ~default:max_int in
  (* [checks.(k)]: the (failing, checked) image counts of the k-th
     boundary of [order]. The boundaries checked are always a prefix
     of [order]: the image budget is spent in schedule order. *)
  let checks = Array.make m None in
  let check st k allowance =
    let counts = Pmem.State.check_crash_images st ~max_images:allowance ~recovery in
    checks.(k) <- Some counts;
    counts
  in
  if is_monotone order then begin
    (* A trace-ordered schedule spends the budget and stops as it
       walks. *)
    let left = ref budget in
    walk plan order (fun k st ->
        !left > 0
        &&
        let failing, checked = check st k (min plan.max_images !left) in
        left := !left - checked;
        not (stop_at_first && failing > 0))
  end
  else begin
    (* Risk-ordered schedules jump around the trace, and still walk it
       forward: a boundary's image count is a function of its
       undrained-line count and its allowance, so a first walk that
       only counts undrained lines lets the budget be spent in risk
       order before any image is derived; a second walk checks the
       boundaries the budget reaches, in trace order. *)
    let rank = Array.make (Array.length plan.boundary_indexes) 0 in
    Array.iteri (fun k pos -> rank.(pos) <- k) order;
    let in_trace_order = Array.copy order in
    Array.sort compare in_trace_order;
    let allowance = Array.make m plan.max_images in
    if plan.budget <> None then begin
      let undrained = Array.make m 0 in
      walk plan in_trace_order (fun j st ->
          undrained.(rank.(in_trace_order.(j))) <- Pmem.State.undrained_lines st;
          true);
      let left = ref budget in
      Array.iteri
        (fun k n ->
          let a = max 0 (min plan.max_images !left) in
          allowance.(k) <- a;
          if a > 0 then left := !left - Pmem.State.crash_image_count ~undrained:n ~max_images:a)
        undrained
    end;
    let chosen = Array.of_list (List.filter (fun pos -> allowance.(rank.(pos)) > 0) (Array.to_list in_trace_order)) in
    walk plan chosen (fun j st ->
        let k = rank.(chosen.(j)) in
        ignore (check st k allowance.(k));
        true)
  end;
  (* Read the checks out in schedule order; under [stop_at_first] the
     run ends at the first failure in that order, which for a
     risk-ordered schedule is only known after the walk. *)
  let boundaries_checked = ref 0 and images_checked = ref 0 and failures = ref [] in
  let rec read k =
    match if k < m then checks.(k) else None with
    | None -> ()
    | Some (failing, checked) ->
        incr boundaries_checked;
        images_checked := !images_checked + checked;
        if failing > 0 then begin
          let index = plan.boundary_indexes.(order.(k)) in
          failures := { index; step = plan.steps.(index); failing_images = failing; images_checked = checked } :: !failures
        end;
        if not (stop_at_first && failing > 0) then read (k + 1)
  in
  read 0;
  let failures = List.sort (fun a b -> compare a.index b.index) !failures in
  let skipped = m - !boundaries_checked in
  Obs.Metrics.inc metrics ~by:!boundaries_checked "crash_explore_prefixes_replayed_total";
  Obs.Metrics.inc metrics ~by:!images_checked "crash_explore_images_tested_total";
  Obs.Metrics.inc metrics ~by:(List.length failures) "explore_bugs_found_total";
  Obs.Metrics.inc metrics ~by:skipped "explore_skipped_low_risk_total";
  {
    result = { boundaries_checked = !boundaries_checked; images_checked = !images_checked; failures };
    scheduled = m;
    explored = !boundaries_checked;
    skipped;
  }

(* Transient windows make failure non-monotone in the prefix length: a
   prefix can fail and a longer one pass once a fence closes the window.
   Only checking every boundary in order proves a prefix minimal. *)
let minimal_failing_prefix ?max_images ?metrics ~recovery steps =
  let plan = make_plan ?max_images steps in
  match (run ~stop_at_first:true ?metrics ~recovery plan exhaustive).result.failures with
  | f :: _ -> Some f
  | [] -> None
