(* Self-tests of the benchmark: every declared metric is emitted with
   its unit, and every output check fires on a perturbed output. *)

open Pmtrace
open Perfbench
module CE = Faultinject.Crash_explore

let declared section =
  let doc = match Obs.Json.of_file "../BENCHMARK.json" with Ok j -> j | Error e -> failwith e in
  match Obs.Json.member section doc with
  | Some (Obs.Json.List ms) ->
      List.map
        (fun m ->
          let field k = Option.get (Option.bind (Obs.Json.member k m) Obs.Json.to_str) in
          (field "name", field "unit"))
        ms
  | _ -> failwith ("BENCHMARK.json: no " ^ section)

let run_explore ~trace =
  let out = Filename.concat (Sys.getcwd ()) "selftest-out" in
  let dir = Filename.concat out (if trace then "traced" else "untraced") in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ out; dir ];
  let cfg = { Wl.workload = "explore"; seed = 7; seconds = 0.3; dir; spans = Spans.create ~on:trace } in
  Wl.run ~trace cfg

let emitted r = List.map (fun (name, _, unit) -> (name, unit)) r.Wl.metrics

let sorted l = List.sort compare l

let test_metrics section ~trace () =
  let r = run_explore ~trace in
  Alcotest.(check (list (pair string string))) "names and units" (sorted (declared section)) (sorted (emitted r));
  Alcotest.(check int) "no failed check" 0 r.Wl.tally.Layers.failed;
  List.iter (fun (name, v, _) -> Alcotest.(check bool) (name ^ " is finite") true (Float.is_finite v)) r.Wl.metrics;
  match Obs.Json.of_string (Wl.result_line r) with
  | Ok j ->
      List.iter
        (fun k -> Alcotest.(check bool) ("result has " ^ k) true (Obs.Json.member k j <> None))
        [ "correct"; "attempted"; "failed"; "metrics" ]
  | Error e -> Alcotest.fail ("result line is not JSON: " ^ e)

(* A strict trace with findings, and its canonical report. *)
let kv_report =
  lazy
    (let trace = Recorder.record (fun e -> Workloads.Memcached.spec.Workloads.Workload.run (Workloads.Workload.params ~n:100 ()) e) in
     Recorder.replay trace (Pmdebugger.Detector.sink (Pmdebugger.Detector.create ())))

let drop_one (r : Bug.report) = { r with Bug.bugs = List.tl r.Bug.bugs }

let test_same_report () =
  let r = Lazy.force kv_report in
  Alcotest.(check bool) "has findings" true (List.length r.Bug.bugs > 1);
  let expected = Checks.canonical r in
  Alcotest.(check bool) "identical report passes" true (Checks.same_report ~expected r);
  Alcotest.(check bool) "one finding dropped fails" false (Checks.same_report ~expected (drop_one r))

(* Change one digit of the report's wire bytes, as a corrupted session
   would. *)
let flip_one_digit s =
  let b = Bytes.of_string s in
  let i = ref (Bytes.length b / 2) in
  while not (Bytes.get b !i >= '0' && Bytes.get b !i <= '8') do incr i done;
  Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) + 1));
  Bytes.to_string b

let test_session () =
  let r = Lazy.force kv_report in
  let expected_bytes = Checks.wire_bytes r in
  let frame ?(status = Serve.Status.Ok) report = Ok (Serve.Wire.result_frame ~report status) in
  Alcotest.(check bool) "identical session passes" true (Checks.session_ok ~expected_bytes (frame r));
  let corrupted =
    match Result.bind (Obs.Json.of_string (flip_one_digit expected_bytes)) Serve.Wire.report_of_json with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "one byte changed fails" false (Checks.session_ok ~expected_bytes (frame corrupted));
  Alcotest.(check bool) "finding dropped fails" false (Checks.session_ok ~expected_bytes (frame (drop_one r)));
  Alcotest.(check bool) "non-ok status fails" false
    (Checks.session_ok ~expected_bytes (frame ~status:Serve.Status.Evicted r));
  Alcotest.(check bool) "transport error fails" false (Checks.session_ok ~expected_bytes (Error "closed"))

let test_explore () =
  let p = Gen.planted_input ~seed:3 0 in
  let o = CE.run ~recovery:Gen.planted_recovery (CE.make_plan ~max_images:Gen.planted_max_images p.Gen.steps) CE.exhaustive in
  Alcotest.(check bool) "hand-derived planted failures" true (Checks.failures_equal ~expected:p.Gen.expected o);
  let with_failures failures = { o with CE.result = { o.CE.result with CE.failures } } in
  let fs = o.CE.result.CE.failures in
  Alcotest.(check bool) "one failure dropped fails" false
    (Checks.failures_equal ~expected:p.Gen.expected (with_failures (List.tl fs)));
  Alcotest.(check bool) "subset passes" true (Checks.failures_subset ~of_:p.Gen.expected (with_failures (List.tl fs)));
  let extra = { (List.hd fs) with CE.index = 0 } in
  Alcotest.(check bool) "invented failure fails" false
    (Checks.failures_subset ~of_:p.Gen.expected (with_failures (extra :: fs)));
  let b = CE.run ~recovery:Gen.btree_recovery (CE.make_plan ~max_images:Gen.exhaustive_max_images (Gen.btree_input ~seed:5 0)) CE.exhaustive in
  Alcotest.(check bool) "hand-derived b_tree failures" true (Checks.failures_equal ~expected:Gen.btree_expected_failures b)

let test_bugbench () =
  let r = Bugbench.Eval.evaluate Bugbench.Eval.PMDebugger in
  Alcotest.(check bool) "78/78, no false positive" true (Checks.bugbench_exact r);
  Alcotest.(check bool) "a false positive fails" false
    (Checks.bugbench_exact { r with Bugbench.Eval.false_positives = [ "clean_case" ] });
  Alcotest.(check bool) "a missed bug fails" false
    (Checks.bugbench_exact { r with Bugbench.Eval.detected_total = 77 })

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "end-to-end metrics emitted with units" `Quick (test_metrics "end_to_end" ~trace:false);
          Alcotest.test_case "per-layer metrics emitted with units" `Quick (test_metrics "per_layer" ~trace:true);
        ] );
      ( "checks",
        [
          Alcotest.test_case "replay report check fires" `Quick test_same_report;
          Alcotest.test_case "serve session check fires" `Quick test_session;
          Alcotest.test_case "explore failure checks fire" `Quick test_explore;
          Alcotest.test_case "bugbench guard fires" `Quick test_bugbench;
        ] );
    ]
