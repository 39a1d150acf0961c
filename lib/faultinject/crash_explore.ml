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
  seed : int;
  invariants : Infer.Invariant.report option;
}

let make_plan ?(boundaries = Every_op) ?(max_images = 64) ?budget ?(seed = 0x5eed) ?invariants steps =
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
    seed;
    invariants;
  }

let plan_events plan = Replay.events_of_steps plan.steps

let plan_invariants plan =
  match plan.invariants with Some r -> r | None -> Infer.Analyze.infer (plan_events plan)

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

type strategy = Exhaustive | Guided | Sampled

let exhaustive = Exhaustive
let guided = Guided
let sampled = Sampled

let strategy_name = function Exhaustive -> "exhaustive" | Guided -> "guided" | Sampled -> "sampled"

(* The strategy's exploration order as positions into
   [plan.boundary_indexes] (a subsequence, possibly a permutation, of
   [0 .. n-1]), the boundaries it drops up front, and the invariant
   report it ranked with. *)
let schedule plan strategy =
  let n = Array.length plan.boundary_indexes in
  match strategy with
  | Exhaustive -> (Array.init n Fun.id, 0, None)
  | Guided ->
      let report = plan_invariants plan in
      let risks = Infer.Risk.scores report (plan_events plan) in
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
      (order, 0, Some report)
  | Sampled ->
      let k =
        match plan.budget with
        | None -> n
        | Some b -> min n (max 1 (b / max 1 plan.max_images))
      in
      if k >= n then (Array.init n Fun.id, 0, None)
      else begin
        (* Classic reservoir over boundary positions, seeded — a uniform
           k-subset kept in trace order. *)
        let rng = Random.State.make [| plan.seed; n; k |] in
        let res = Array.init k Fun.id in
        for i = k to n - 1 do
          let j = Random.State.int rng (i + 1) in
          if j < k then res.(j) <- i
        done;
        Array.sort compare res;
        (res, n - k, None)
      end

let strategy_of_string = function
  | "exhaustive" -> Ok exhaustive
  | "guided" -> Ok guided
  | "sampled" -> Ok sampled
  | s -> Error (Printf.sprintf "unknown strategy %S (expected exhaustive|guided|sampled)" s)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

type outcome = {
  result : result;
  strategy : string;
  scheduled : int;
  explored : int;
  skipped : int;
  invariants_used : Infer.Invariant.report option;
}

let is_monotone order =
  let ok = ref true in
  for i = 1 to Array.length order - 1 do
    if order.(i) <= order.(i - 1) then ok := false
  done;
  !ok

let run ?(stop_at_first = false) ?(metrics = Obs.Metrics.disabled) ~recovery plan strategy =
  let order, dropped, invariants_used = schedule plan strategy in
  let name = strategy_name strategy in
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
    (* Trace-ordered schedules (exhaustive, sampled) run as one forward
       replay. *)
    let st = Pmem.State.create () in
    let m = Array.length order in
    let next = ref 0 and i = ref 0 in
    let n = Array.length plan.steps in
    while (not !stop) && !i < n && !next < m do
      Replay.apply st plan.steps.(!i);
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
          Replay.apply st plan.steps.(j)
        done;
        check_at st index
      end;
      incr k
    done
  end;
  let failures = List.sort (fun a b -> compare a.index b.index) !failures in
  let skipped = dropped + (Array.length order - !explored) in
  Obs.Metrics.inc metrics ~by:!boundaries_checked "crash_explore_prefixes_replayed_total";
  Obs.Metrics.inc metrics ~by:!images_checked "crash_explore_images_tested_total";
  Obs.Metrics.inc metrics ~by:!images_checked ~labels:[ ("strategy", name) ] "explore_images_total";
  Obs.Metrics.inc metrics ~by:(List.length failures) "explore_bugs_found_total";
  Obs.Metrics.inc metrics ~by:skipped "explore_skipped_low_risk_total";
  {
    result =
      {
        boundaries_checked = !boundaries_checked;
        images_checked = !images_checked;
        failures;
      };
    strategy = name;
    scheduled = Array.length order;
    explored = !explored;
    skipped;
    invariants_used;
  }

(* Transient windows make failure non-monotone in the prefix length: a
   prefix can fail and a longer one pass once a fence closes the window.
   Only checking every boundary in order proves a prefix minimal. *)
let minimal_failing_prefix ?max_images ?metrics ~recovery steps =
  let plan = make_plan ?max_images steps in
  match (run ~stop_at_first:true ?metrics ~recovery plan exhaustive).result.failures with
  | f :: _ -> Some f
  | [] -> None
