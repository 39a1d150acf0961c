open Pmtrace

(* The headline reproduction check: the Table 6 matrix and Sec 7.3
   rates must come out exactly as in the paper. *)

let paper_counts =
  [
    (Bug.No_durability, 44);
    (Bug.Multiple_overwrites, 2);
    (Bug.No_order_guarantee, 4);
    (Bug.Redundant_flush, 6);
    (Bug.Flush_nothing, 3);
    (Bug.Redundant_logging, 5);
    (Bug.Lack_durability_in_epoch, 4);
    (Bug.Redundant_epoch_fence, 4);
    (Bug.Lack_ordering_in_strands, 2);
    (Bug.Cross_failure_semantic, 4);
  ]

let test_dataset_shape () =
  Alcotest.(check int) "78 buggy cases" 78 (List.length Bugbench.Cases.buggy);
  List.iter
    (fun (kind, expected) ->
      Alcotest.(check int) (Bug.kind_name kind ^ " case count") expected (Bugbench.Cases.count_by_kind kind))
    paper_counts;
  (* Case ids are unique. *)
  let ids = List.map (fun (c : Bugbench.Cases.t) -> c.Bugbench.Cases.id) Bugbench.Cases.all in
  Alcotest.(check int) "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let results = lazy (Bugbench.Eval.evaluate_all ())

let find_result tool = List.find (fun r -> r.Bugbench.Eval.tool = tool) (Lazy.force results)

let check_tool tool ~detected ~kinds ~fn_rate =
  let r = find_result tool in
  Alcotest.(check int) (Baselines.Tool.label tool ^ " detections") detected r.Bugbench.Eval.detected_total;
  Alcotest.(check int) (Baselines.Tool.label tool ^ " kinds") kinds r.Bugbench.Eval.kinds_covered;
  Alcotest.(check (float 0.005)) (Baselines.Tool.label tool ^ " FN rate") fn_rate r.Bugbench.Eval.false_negative_rate;
  Alcotest.(check (list string)) (Baselines.Tool.label tool ^ " no false positives") [] r.Bugbench.Eval.false_positives

(* Paper: PMDebugger 78 bugs / 10 types / no false negatives. *)
let test_pmdebugger_row () = check_tool Bugbench.Eval.PMDebugger ~detected:78 ~kinds:10 ~fn_rate:0.0

(* Paper: Pmemcheck 55 bugs / 4 types / 29.5% FN. *)
let test_pmemcheck_row () = check_tool Bugbench.Eval.Pmemcheck ~detected:55 ~kinds:4 ~fn_rate:0.295

(* Paper: PMTest 61 bugs / 5 types / 21.8% FN. *)
let test_pmtest_row () = check_tool Bugbench.Eval.PMTest ~detected:61 ~kinds:5 ~fn_rate:0.218

(* Paper: XFDetector 65 bugs / 6 types / 16.7% FN. *)
let test_xfdetector_row () = check_tool Bugbench.Eval.XFDetector ~detected:65 ~kinds:6 ~fn_rate:0.167

let test_per_kind_columns () =
  (* Table 6 checkmark pattern: which kinds each tool covers at all. *)
  let covered tool kind =
    let r = find_result tool in
    let _, d, _ = List.find (fun (k, _, _) -> k = kind) r.Bugbench.Eval.per_kind in
    d > 0
  in
  let expect tool kind yes =
    Alcotest.(check bool)
      (Printf.sprintf "%s x %s" (Baselines.Tool.label tool) (Bug.kind_name kind))
      yes (covered tool kind)
  in
  let open Bugbench.Eval in
  (* Pmemcheck row of Table 6. *)
  expect Pmemcheck Bug.No_durability true;
  expect Pmemcheck Bug.Multiple_overwrites true;
  expect Pmemcheck Bug.No_order_guarantee false;
  expect Pmemcheck Bug.Redundant_flush true;
  expect Pmemcheck Bug.Flush_nothing true;
  expect Pmemcheck Bug.Redundant_logging false;
  expect Pmemcheck Bug.Cross_failure_semantic false;
  (* PMTest row. *)
  expect PMTest Bug.No_order_guarantee true;
  expect PMTest Bug.Flush_nothing false;
  expect PMTest Bug.Redundant_logging true;
  expect PMTest Bug.Cross_failure_semantic false;
  (* XFDetector row. *)
  expect XFDetector Bug.No_order_guarantee true;
  expect XFDetector Bug.Flush_nothing false;
  expect XFDetector Bug.Cross_failure_semantic true;
  (* Relaxed-model kinds are PMDebugger-only. *)
  List.iter
    (fun kind ->
      expect PMDebugger kind true;
      expect Pmemcheck kind false;
      expect PMTest kind false;
      expect XFDetector kind false)
    [ Bug.Lack_durability_in_epoch; Bug.Redundant_epoch_fence; Bug.Lack_ordering_in_strands ]

let test_every_case_single_expected_kind_detected () =
  (* PMDebugger must flag each case with its ground-truth kind, not just
     any bug. *)
  List.iter
    (fun (c : Bugbench.Cases.t) ->
      let r = Bugbench.Eval.run_case Bugbench.Eval.PMDebugger c in
      Alcotest.(check bool) (c.Bugbench.Cases.id ^ " detected as expected kind") true (Bugbench.Eval.detected c r))
    Bugbench.Cases.buggy

let test_clean_cases_pass_extension_tools () =
  (* The clean controls must also satisfy the two Table 1 tools that
     sit outside the Table 6 matrix. *)
  List.iter
    (fun (c : Bugbench.Cases.t) ->
      let engine = Pmtrace.Engine.create () in
      let pi = Baselines.Persistence_inspector.create () in
      let sink = Baselines.Persistence_inspector.sink pi in
      Pmtrace.Engine.attach engine sink;
      c.Bugbench.Cases.run engine;
      Pmtrace.Engine.program_end engine;
      let r = sink.Pmtrace.Sink.finish () in
      Alcotest.(check int) (c.Bugbench.Cases.id ^ " clean under inspector") 0 (List.length r.Bug.bugs))
    Bugbench.Cases.clean

let suite =
  [
    Alcotest.test_case "dataset shape (Table 6 counts)" `Quick test_dataset_shape;
    Alcotest.test_case "clean cases pass extension tools" `Quick test_clean_cases_pass_extension_tools;
    Alcotest.test_case "PMDebugger row" `Slow test_pmdebugger_row;
    Alcotest.test_case "Pmemcheck row" `Slow test_pmemcheck_row;
    Alcotest.test_case "PMTest row" `Slow test_pmtest_row;
    Alcotest.test_case "XFDetector row" `Slow test_xfdetector_row;
    Alcotest.test_case "per-kind capability columns" `Slow test_per_kind_columns;
    Alcotest.test_case "every case detected by PMDebugger" `Slow test_every_case_single_expected_kind_detected;
  ]
