open Pmtrace

let run_with sink program =
  let engine = Engine.create () in
  Engine.attach engine sink;
  Engine.register_pmem engine ~base:0 ~size:65536;
  program engine;
  Engine.program_end engine;
  sink.Sink.finish ()

let missing_clf e = Engine.store_i64 e ~addr:128 1L

let redundant e =
  Engine.store_i64 e ~addr:128 1L;
  Engine.clwb e ~addr:128;
  Engine.clwb e ~addr:128;
  Engine.sfence e

let flush_nothing e =
  Engine.store_i64 e ~addr:128 1L;
  Engine.persist e ~addr:128 ~size:8;
  Engine.clwb e ~addr:4096;
  Engine.sfence e

let clean e =
  Engine.store_i64 e ~addr:128 1L;
  Engine.persist e ~addr:128 ~size:8

let test_nulgrind_silent () =
  let r = run_with (Baselines.Nulgrind.sink ()) missing_clf in
  Alcotest.(check int) "no analysis" 0 (List.length r.Bug.bugs);
  Alcotest.(check bool) "events counted" true (r.Bug.events_processed > 0)

let test_pmemcheck_capabilities () =
  let r = run_with (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())) missing_clf in
  Alcotest.(check bool) "no-durability" true (Bug.has_kind r Bug.No_durability);
  let r = run_with (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())) redundant in
  Alcotest.(check bool) "redundant flush" true (Bug.has_kind r Bug.Redundant_flush);
  let r = run_with (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())) flush_nothing in
  Alcotest.(check bool) "flush nothing" true (Bug.has_kind r Bug.Flush_nothing);
  let r = run_with (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())) clean in
  Alcotest.(check int) "clean program clean" 0 (List.length r.Bug.bugs)

let test_pmemcheck_no_epoch_rules () =
  let program e =
    Engine.epoch_begin e;
    Engine.store_i64 e ~addr:128 1L;
    Engine.persist e ~addr:128 ~size:8;
    Engine.store_i64 e ~addr:256 1L;
    Engine.persist e ~addr:256 ~size:8;
    Engine.epoch_end e
  in
  let r = run_with (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())) program in
  Alcotest.(check bool) "blind to redundant epoch fences" false (Bug.has_kind r Bug.Redundant_epoch_fence)

let test_pmtest_needs_annotations () =
  (* Without the assertion the bug is invisible; with it, caught. *)
  let r = run_with (Baselines.Pmtest.sink (Baselines.Pmtest.create ())) missing_clf in
  Alcotest.(check int) "unannotated: silent" 0 (List.length r.Bug.bugs);
  let annotated e =
    missing_clf e;
    Engine.annotate e (Event.Assert_durable { addr = 128; size = 8 })
  in
  let r = run_with (Baselines.Pmtest.sink (Baselines.Pmtest.create ())) annotated in
  Alcotest.(check bool) "annotated: caught" true (Bug.has_kind r Bug.No_durability)

let test_pmtest_native_redundant_flush () =
  let r = run_with (Baselines.Pmtest.sink (Baselines.Pmtest.create ())) redundant in
  Alcotest.(check bool) "redundant flush native" true (Bug.has_kind r Bug.Redundant_flush);
  let r = run_with (Baselines.Pmtest.sink (Baselines.Pmtest.create ())) flush_nothing in
  Alcotest.(check bool) "flush nothing unsupported" false (Bug.has_kind r Bug.Flush_nothing)

let test_pmtest_assert_ordered () =
  let program e =
    Engine.store_i64 e ~addr:1024 1L;
    Engine.store_i64 e ~addr:2048 1L;
    Engine.persist e ~addr:2048 ~size:8;
    Engine.annotate e (Event.Assert_ordered { first_addr = 1024; first_size = 8; then_addr = 2048; then_size = 8 });
    Engine.persist e ~addr:1024 ~size:8
  in
  let r = run_with (Baselines.Pmtest.sink (Baselines.Pmtest.create ())) program in
  Alcotest.(check bool) "order violation caught" true (Bug.has_kind r Bug.No_order_guarantee)

let test_xfdetector_failure_budget () =
  (* Within budget the end sweep runs; beyond it, coverage degrades
     (the Sec 7.4 explanation for the missed memcached bugs). *)
  let within = Baselines.Xfdetector.create ~max_failure_points:100 () in
  let r =
    run_with (Baselines.Xfdetector.sink within) (fun e ->
        Engine.store_i64 e ~addr:4096 9L;
        missing_clf e;
        Engine.persist e ~addr:4096 ~size:8)
  in
  Alcotest.(check bool) "within budget: caught" true (Bug.has_kind r Bug.No_durability);
  let exhausted = Baselines.Xfdetector.create ~max_failure_points:2 () in
  let r =
    run_with (Baselines.Xfdetector.sink exhausted) (fun e ->
        for i = 1 to 10 do
          Engine.store_i64 e ~addr:(4096 + (i * 64)) 9L;
          Engine.persist e ~addr:(4096 + (i * 64)) ~size:8
        done;
        missing_clf e)
  in
  Alcotest.(check bool) "budget exhausted: missed" false (Bug.has_kind r Bug.No_durability);
  Alcotest.(check int) "budget respected" 2 (Baselines.Xfdetector.failure_points_used exhausted)

let test_xfdetector_cross_failure () =
  let magic = 55L in
  let recovery img =
    let flag = Pmem.Image.get_i64 img 0 in
    flag = 0L || Pmem.Image.get_i64 img 64 = magic
  in
  let engine = Engine.create () in
  let xf = Baselines.Xfdetector.create ~pm:(Engine.pm engine) ~recovery () in
  Engine.attach engine (Baselines.Xfdetector.sink xf);
  Engine.register_pmem engine ~base:0 ~size:65536;
  Engine.store_i64 engine ~addr:0 1L;
  Engine.persist engine ~addr:0 ~size:8;
  Engine.store_i64 engine ~addr:64 magic;
  Engine.persist engine ~addr:64 ~size:8;
  Engine.program_end engine;
  let r = (Baselines.Xfdetector.sink xf).Sink.finish () in
  Alcotest.(check bool) "cross-failure caught" true (Bug.has_kind r Bug.Cross_failure_semantic)

let test_all_tools_same_trace_capabilities () =
  (* One buggy trace, four tools: the Table 1 capability ordering. *)
  let trace =
    Recorder.record (fun e ->
        Engine.register_pmem e ~base:0 ~size:65536;
        Engine.store_i64 e ~addr:128 1L;
        (* no flush: durability bug *)
        Engine.store_i64 e ~addr:256 1L;
        Engine.persist e ~addr:256 ~size:8;
        Engine.program_end e)
  in
  let count sink = List.length (Recorder.replay trace sink).Bug.bugs in
  let pmdebugger = count (Pmdebugger.Detector.sink (Pmdebugger.Detector.create ())) in
  let pmemcheck = count (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())) in
  let pmtest = count (Baselines.Pmtest.sink (Baselines.Pmtest.create ())) in
  Alcotest.(check int) "pmdebugger finds it" 1 pmdebugger;
  Alcotest.(check int) "pmemcheck finds it" 1 pmemcheck;
  Alcotest.(check int) "pmtest (unannotated) misses it" 0 pmtest

let test_persistence_inspector_domain_gate () =
  (* The tool analyzes PMDK applications: without transactional markers
     it stays disengaged and reports nothing, bug or not. *)
  let mk () = Baselines.Persistence_inspector.sink (Baselines.Persistence_inspector.create ()) in
  let r = run_with (mk ()) missing_clf in
  Alcotest.(check int) "non-PMDK program ignored" 0 (List.length r.Bug.bugs);
  (* The same durability hole inside a transaction is caught. *)
  let tx_bug e =
    Engine.epoch_begin e;
    Engine.store_i64 e ~addr:128 1L;
    Engine.sfence e;
    Engine.epoch_end e
  in
  let r = run_with (mk ()) tx_bug in
  Alcotest.(check bool) "PMDK-domain bug caught" true (Bug.has_kind r Bug.No_durability);
  let tx_clean e =
    Engine.epoch_begin e;
    Engine.store_i64 e ~addr:128 1L;
    Engine.persist e ~addr:128 ~size:8;
    Engine.epoch_end e
  in
  let r = run_with (mk ()) tx_clean in
  Alcotest.(check int) "clean tx clean" 0 (List.length r.Bug.bugs)

let test_persistence_inspector_tx_rules () =
  let mk () = Baselines.Persistence_inspector.sink (Baselines.Persistence_inspector.create ()) in
  let overwrite e =
    Engine.epoch_begin e;
    Engine.store_i64 e ~addr:128 1L;
    Engine.store_i64 e ~addr:128 2L;
    Engine.persist e ~addr:128 ~size:8;
    Engine.epoch_end e
  in
  Alcotest.(check bool) "overwrite in tx" true (Bug.has_kind (run_with (mk ()) overwrite) Bug.Multiple_overwrites);
  let redundant_tx e =
    Engine.epoch_begin e;
    Engine.store_i64 e ~addr:128 1L;
    Engine.clwb e ~addr:128;
    Engine.clwb e ~addr:128;
    Engine.sfence e;
    Engine.epoch_end e
  in
  Alcotest.(check bool) "redundant flush in tx" true (Bug.has_kind (run_with (mk ()) redundant_tx) Bug.Redundant_flush);
  (* No relaxed-model rules (Table 1). *)
  let two_fences e =
    Engine.epoch_begin e;
    Engine.store_i64 e ~addr:128 1L;
    Engine.persist e ~addr:128 ~size:8;
    Engine.store_i64 e ~addr:256 1L;
    Engine.persist e ~addr:256 ~size:8;
    Engine.epoch_end e
  in
  Alcotest.(check bool) "blind to epoch fences" false
    (Bug.has_kind (run_with (mk ()) two_fences) Bug.Redundant_epoch_fence)

let test_tool_names_roundtrip () =
  let module Tool = Baselines.Tool in
  List.iter
    (fun t -> Alcotest.(check bool) (Tool.name t ^ " round-trips") true (Tool.of_name (Tool.name t) = Ok t))
    Tool.all;
  Alcotest.(check (list string)) "-d spellings" [ "pmdebugger"; "pmemcheck"; "pmtest"; "xfdetector"; "nulgrind" ]
    (List.map Tool.name Tool.all);
  Alcotest.(check bool) "unknown name names the choices" true
    (Tool.of_name "nosuch"
    = Error {|unknown detector "nosuch" (expected one of: pmdebugger, pmemcheck, pmtest, xfdetector, nulgrind)|})

let suite =
  [
    Alcotest.test_case "nulgrind silent" `Quick test_nulgrind_silent;
    Alcotest.test_case "pmemcheck capabilities" `Quick test_pmemcheck_capabilities;
    Alcotest.test_case "pmemcheck has no epoch rules" `Quick test_pmemcheck_no_epoch_rules;
    Alcotest.test_case "pmtest needs annotations" `Quick test_pmtest_needs_annotations;
    Alcotest.test_case "pmtest native rules" `Quick test_pmtest_native_redundant_flush;
    Alcotest.test_case "pmtest assert_ordered" `Quick test_pmtest_assert_ordered;
    Alcotest.test_case "xfdetector failure budget" `Quick test_xfdetector_failure_budget;
    Alcotest.test_case "xfdetector cross-failure" `Quick test_xfdetector_cross_failure;
    Alcotest.test_case "tools on one trace" `Quick test_all_tools_same_trace_capabilities;
    Alcotest.test_case "tool names round-trip" `Quick test_tool_names_roundtrip;
    Alcotest.test_case "persistence inspector domain gate" `Quick test_persistence_inspector_domain_gate;
    Alcotest.test_case "persistence inspector tx rules" `Quick test_persistence_inspector_tx_rules;
  ]
