(* Output checks. Each returns [true] when the program's output is
   right; the self-tests feed them perturbed outputs to show they fire. *)

open Pmtrace
module CE = Faultinject.Crash_explore

let canonical (r : Bug.report) = Bug.render_canonical { r with Bug.bugs = List.sort Bug.compare_canonical r.Bug.bugs }

(* replay_*: a streamed (or sharded) report against the in-memory one. *)
let same_report ~expected r = canonical r = expected

(* The bytes a daemon session's report travels as. *)
let wire_bytes r = Obs.Json.to_string ~indent:false (Serve.Wire.report_to_json r)

(* serve: an [ok] session whose report is byte-identical to the
   offline replay of the same trace. *)
let session_ok ~expected_bytes = function
  | Ok { Serve.Wire.status = Serve.Status.Ok; report = Some r; _ } -> wire_bytes r = expected_bytes
  | Ok _ | Error _ -> false

let failing_indexes (o : CE.outcome) = List.map (fun (f : CE.failure) -> f.CE.index) o.CE.result.CE.failures

(* explore: exactly the hand-derived failing boundaries. *)
let failures_equal ~expected o = failing_indexes o = expected

(* explore: a budgeted strategy may miss failures but never invents one. *)
let failures_subset ~of_ o = List.for_all (fun i -> List.mem i of_) (failing_indexes o)

(* Set-up guard: Table 6 exact (78/78 bugs, no false positive). *)
let bugbench_exact (r : Bugbench.Eval.result) =
  r.Bugbench.Eval.detected_total = 78 && r.Bugbench.Eval.case_total = 78 && r.Bugbench.Eval.false_positives = []
