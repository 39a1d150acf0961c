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

(* Every tool's full report — findings with their causal chains, event
   count and stats — pinned as a digest over the bugbench cases (run as
   Bugbench.Eval runs them, live PM and recovery included) and over
   seeded workload traces. The b_tree trace is long enough to drive
   Pmemcheck, XFDetector and Persistence Inspector into the per-kind
   cap. A refactor of shared bookkeeping must leave every digest as it
   is. *)
let report_text (r : Bug.report) =
  Bug.render_canonical r
  ^ String.concat "" (List.map (fun (k, v) -> Printf.sprintf "stat %s=%h\n" k v) r.Bug.stats)

(* Persistence Inspector is no -d tool; [None] stands for it. *)
let pinned_tools =
  List.map (fun tool -> (Baselines.Tool.name tool, Some tool)) Baselines.Tool.all
  @ [ ("persistence-inspector", None) ]

let pinned_sink tool ~model =
  match tool with
  | Some tool -> Baselines.Tool.sink ~model ~config:Pmdebugger.Order_config.empty tool
  | None -> Baselines.Persistence_inspector.sink (Baselines.Persistence_inspector.create ())

let run_case tool (c : Bugbench.Cases.t) =
  match tool with
  | Some tool -> Bugbench.Eval.run_case tool c
  | None ->
      (* As Bugbench.Eval.run_case runs a case; this tool takes no PM
         state and no order configuration. *)
      let engine = Engine.open_one (fun _ -> pinned_sink None ~model:c.Bugbench.Cases.model) in
      c.Bugbench.Cases.run engine;
      Engine.program_end engine;
      Engine.finish_one engine

let bugbench_text tool =
  String.concat ""
    (List.map (fun (c : Bugbench.Cases.t) -> c.Bugbench.Cases.id ^ "\n" ^ report_text (run_case tool c)) Bugbench.Cases.all)

let pinned_sources =
  let module W = Workloads.Workload in
  List.map
    (fun ((spec : W.spec), n, annotate) ->
      let trace =
        lazy
          (Recorder.record (fun e ->
               spec.W.run (W.params ~seed:11 ~annotate ~n ()) e;
               Engine.program_end e))
      in
      (Printf.sprintf "%s n=%d" spec.W.name n, spec.W.model, trace))
    [
      (Workloads.Btree.spec, 5000, true);
      (Workloads.Hashmap_tx.spec, 400, true);
      (Workloads.Memcached.spec, 1000, true);
      (Workloads.Ycsb.spec Workloads.Ycsb.A, 1000, false);
      (Workloads.Synth_strand.spec, 300, false);
      (Workloads.Array_example.spec, 20, true);
    ]

let pinned_digests () =
  List.concat_map
    (fun (tool_name, tool) ->
      let hex s = Digest.to_hex (Digest.string s) in
      (tool_name ^ " bugbench", hex (bugbench_text tool))
      :: List.map
           (fun (src, model, trace) ->
             let r = Recorder.replay (Lazy.force trace) (pinned_sink tool ~model) in
             (tool_name ^ " " ^ src, hex (report_text r)))
           pinned_sources)
    pinned_tools

let expected_digests =
  [
    ("pmdebugger bugbench", "0fec02074640845ea1c2566f88a7792d");
    ("pmdebugger b_tree n=5000", "e4a4b5713ac905bab91b0cef0afff34f");
    ("pmdebugger hashmap_tx n=400", "18fd0d9994af98bcd7df1752c06af127");
    ("pmdebugger memcached n=1000", "83abf1d162065bbb39c6a54e9e6c9e75");
    ("pmdebugger a_YCSB n=1000", "adab42802138ca87e923b965a999171d");
    ("pmdebugger synth_strand n=300", "efbf4a6149553b30243f691801f83bf9");
    ("pmdebugger array n=20", "08c879c9bf34708f573f19060af951e1");
    ("pmemcheck bugbench", "e5be101a2d1c7bec0ccc75c49f672910");
    ("pmemcheck b_tree n=5000", "66aaf16a0e51d3465a93a67cb051bc0f");
    ("pmemcheck hashmap_tx n=400", "ab2440efcb624a5d53e597ff957b9d3b");
    ("pmemcheck memcached n=1000", "9df28df26fa03af7aa30277e6c31cdb8");
    ("pmemcheck a_YCSB n=1000", "8a1170ff23ce0da70cea489bde2f7892");
    ("pmemcheck synth_strand n=300", "81b0900e934b508fbeeb0c0da19f4711");
    ("pmemcheck array n=20", "a2d0c4535f32709335d6cd907cc09cdc");
    ("pmtest bugbench", "6e9180be03cb1d13e1a3de893d507485");
    ("pmtest b_tree n=5000", "225d7f0b6c05319ee04e2b5b65477351");
    ("pmtest hashmap_tx n=400", "7816f89aee207d783e65a42a86c00a85");
    ("pmtest memcached n=1000", "98cc863e9300f7be63f709a3598b1367");
    ("pmtest a_YCSB n=1000", "6b0ac5a9dd756f534a09ac57ffdfd85f");
    ("pmtest synth_strand n=300", "b9fc596b12ef48fe5edfa1822bcf2412");
    ("pmtest array n=20", "9439010c2dcd5809bbe1526339492d48");
    ("xfdetector bugbench", "f2f5424872959047f33bc26c0bcfdd4b");
    ("xfdetector b_tree n=5000", "980385ea0f6be0de3de44e4d4ab26b52");
    ("xfdetector hashmap_tx n=400", "fc5050ca33b19b290a9628000e6a6e7f");
    ("xfdetector memcached n=1000", "6704d16a07b1885a2242dd10ddc12915");
    ("xfdetector a_YCSB n=1000", "59105aa49fbb203e07551470997e6672");
    ("xfdetector synth_strand n=300", "286292cbaa3c0201983a68b3b7a62d1e");
    ("xfdetector array n=20", "0f556008ab3975b690df788ff1f03d52");
    ("nulgrind bugbench", "04dc0c22faadfae940de3aaacfe6eef6");
    ("nulgrind b_tree n=5000", "27b1d3d46f80ceb501b2c21ecd42640d");
    ("nulgrind hashmap_tx n=400", "b3373876a26dd0b7e4217110a87baf0e");
    ("nulgrind memcached n=1000", "2e8ecc92f1aec6f7031f6a7e8cc5d3da");
    ("nulgrind a_YCSB n=1000", "bfbc18711211bde38cfb0f2c122643f5");
    ("nulgrind synth_strand n=300", "3f6a43cc079bedf8b706bf8de110698a");
    ("nulgrind array n=20", "c514cef9c5859647fcb92bfa575b8bc1");
    ("persistence-inspector bugbench", "bef3d63af1deea02e71b51ca992b37b2");
    ("persistence-inspector b_tree n=5000", "db754e3818824482834ae3391d6d43ec");
    ("persistence-inspector hashmap_tx n=400", "239b86e70239d77f32c6277ff0df27fa");
    ("persistence-inspector memcached n=1000", "b8dbf8f638d8099e3b2fb8e133e83c4a");
    ("persistence-inspector a_YCSB n=1000", "c41cd0c4b5c5e9d17b9a4da78cf64540");
    ("persistence-inspector synth_strand n=300", "37231cb073cf82bd78fd1c651a9c2477");
    ("persistence-inspector array n=20", "c1e931066743b2b4bb5c38ff39c93d82");
  ]

let test_pinned_reports () =
  Alcotest.(check (list (pair string string))) "report digests" expected_digests (pinned_digests ())

let test_cap_reached () =
  (* The b_tree source above really exercises the per-kind cap. *)
  let _, _, trace = List.hd pinned_sources in
  let r = Recorder.replay (Lazy.force trace) (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())) in
  Alcotest.(check bool) "some kind at the cap" true
    (List.exists (fun k -> Bug.count_kind r k = 1000) Bug.all_kinds)

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
    Alcotest.test_case "reports pinned" `Quick test_pinned_reports;
    Alcotest.test_case "pinned b_tree reaches the cap" `Quick test_cap_reached;
  ]
