open Pmtrace

let test_engine_pm_coupling () =
  let e = Engine.create () in
  Engine.store_i64 e ~addr:100 7L;
  Alcotest.(check int64) "load sees store" 7L (Engine.load_i64 e ~addr:100);
  Alcotest.(check int64) "not durable yet" 0L (Pmem.Image.get_i64 (Pmem.State.durable (Engine.pm e)) 100);
  Engine.persist e ~addr:100 ~size:8;
  Alcotest.(check int64) "durable after persist" 7L (Pmem.Image.get_i64 (Pmem.State.durable (Engine.pm e)) 100)

let test_event_counters () =
  let stats =
    Recorder.stats
      (Recorder.record (fun e ->
           Engine.store_i64 e ~addr:0 1L;
           Engine.store_i64 e ~addr:64 2L;
           Engine.flush_range e ~addr:0 ~size:128;
           Engine.sfence e))
  in
  Alcotest.(check int) "stores" 2 (List.assoc "stores" stats);
  Alcotest.(check int) "clfs cover two lines" 2 (List.assoc "clfs" stats);
  Alcotest.(check int) "fences" 1 (List.assoc "fences" stats)

let test_instrumentation_toggle () =
  let e = Engine.create () in
  let seen = ref 0 in
  Engine.attach e
    (Sink.make ~name:"c" ~on_event:(fun _ -> incr seen) ~finish:(fun () -> Bug.empty_report "c"));
  Engine.store_i64 e ~addr:0 1L;
  Engine.set_instrumentation e false;
  Engine.store_i64 e ~addr:8 2L;
  Engine.set_instrumentation e true;
  Engine.store_i64 e ~addr:16 3L;
  Alcotest.(check int) "only instrumented events dispatched" 2 !seen;
  (* PM semantics apply regardless of instrumentation. *)
  Alcotest.(check int64) "uninstrumented store still lands" 2L (Engine.load_i64 e ~addr:8)

let test_multiple_sinks () =
  let e = Engine.create () in
  let a = ref 0 and b = ref 0 in
  Engine.attach e (Sink.make ~name:"a" ~on_event:(fun _ -> incr a) ~finish:(fun () -> Bug.empty_report "a"));
  Engine.attach e (Sink.make ~name:"b" ~on_event:(fun _ -> incr b) ~finish:(fun () -> Bug.empty_report "b"));
  Engine.store_i64 e ~addr:0 1L;
  Alcotest.(check int) "both sinks see events" !a !b

let test_record_replay_equivalence () =
  let program e =
    Engine.register_pmem e ~base:0 ~size:4096;
    Engine.store_i64 e ~addr:128 1L;
    Engine.clwb e ~addr:128;
    Engine.clwb e ~addr:128;
    Engine.sfence e;
    Engine.store_i64 e ~addr:256 2L;
    Engine.program_end e
  in
  (* Live detection... *)
  let e = Engine.create () in
  let live = Pmdebugger.Detector.create () in
  Engine.attach e (Pmdebugger.Detector.sink live);
  program e;
  let live_report = Pmdebugger.Detector.report live in
  (* ...must equal replayed detection. *)
  let trace = Recorder.record program in
  let replayed = Recorder.replay trace (Pmdebugger.Detector.sink (Pmdebugger.Detector.create ())) in
  let summary (r : Bug.report) = List.map (fun (b : Bug.t) -> (Bug.kind_name b.Bug.kind, b.Bug.addr)) r.Bug.bugs in
  Alcotest.(check (list (pair string int))) "live = replay" (summary live_report) (summary replayed)

let test_interleave_round_robin () =
  let t1 = [| Event.Fence { tid = 1 }; Event.Fence { tid = 1 } |] in
  let t2 = [| Event.Fence { tid = 2 } |] in
  let merged = Recorder.interleave_round_robin [ t1; t2 ] in
  Alcotest.(check int) "all events kept" 3 (Array.length merged);
  Alcotest.(check int) "starts with t1" 1 (Event.tid merged.(0));
  Alcotest.(check int) "then t2" 2 (Event.tid merged.(1));
  Alcotest.(check int) "then t1 remainder" 1 (Event.tid merged.(2))

let test_trace_stats () =
  let trace = Recorder.record (fun e ->
      Engine.store_i64 e ~addr:0 1L;
      Engine.persist e ~addr:0 ~size:8)
  in
  let stats = Recorder.stats trace in
  Alcotest.(check int) "stores" 1 (List.assoc "stores" stats);
  Alcotest.(check int) "clfs" 1 (List.assoc "clfs" stats);
  Alcotest.(check int) "fences" 1 (List.assoc "fences" stats)

let test_order_config_parse () =
  let module OC = Pmdebugger.Order_config in
  (match OC.parse "# comment\norder data before valid\nstrand-order A before B\norder x before y at commit\n" with
  | Ok cfg ->
      Alcotest.(check int) "three entries" 3 (List.length (OC.entries cfg));
      let roundtrip = OC.parse_exn (OC.to_string cfg) in
      Alcotest.(check bool) "roundtrip" true (OC.entries roundtrip = OC.entries cfg)
  | Error msg -> Alcotest.fail msg);
  match OC.parse "order broken line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_bug_report_helpers () =
  let bugs = [ Bug.make ~addr:1 Bug.No_durability; Bug.make ~addr:2 Bug.No_durability; Bug.make Bug.Redundant_flush ] in
  let r = { Bug.detector = "x"; bugs; events_processed = 10; stats = []; failure = None } in
  Alcotest.(check int) "count_kind" 2 (Bug.count_kind r Bug.No_durability);
  Alcotest.(check bool) "has_kind" true (Bug.has_kind r Bug.Redundant_flush);
  Alcotest.(check int) "kinds_found" 2 (List.length (Bug.kinds_found r));
  Alcotest.(check int) "ten kinds total" 10 (List.length Bug.all_kinds)

(* ------------------------------------------------------------------ *)
(* Sink quarantine.                                                    *)
(* ------------------------------------------------------------------ *)

let counting_sink name seen =
  Sink.make ~name
    ~on_event:(fun _ -> incr seen)
    ~finish:(fun () -> { (Bug.empty_report name) with Bug.events_processed = !seen })

let bomb_sink name ~after =
  let seen = ref 0 in
  Sink.make ~name
    ~on_event:(fun _ ->
      incr seen;
      if !seen > after then failwith (name ^ " exploded"))
    ~finish:(fun () -> Bug.empty_report name)

let test_sink_quarantine_isolates_failure () =
  let e = Engine.create () in
  let a = ref 0 and b = ref 0 in
  Engine.attach e (counting_sink "a" a);
  Engine.attach e (bomb_sink "bomb" ~after:1);
  Engine.attach e (counting_sink "b" b);
  for i = 0 to 4 do
    Engine.store_i64 e ~addr:(i * 8) 1L
  done;
  (* Siblings keep receiving every event after the bomb goes off... *)
  Alcotest.(check int) "sink a saw all events" 5 !a;
  Alcotest.(check int) "sink b saw all events" 5 !b;
  (* ...and the failed sink is reported, not re-dispatched. *)
  (match Engine.quarantined e with
  | [ (name, msg) ] ->
      Alcotest.(check string) "quarantined sink" "bomb" name;
      let contains hay needle =
        let n = String.length needle in
        let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "exception text kept" true (contains msg "exploded")
  | q -> Alcotest.fail (Printf.sprintf "expected one quarantined sink, got %d" (List.length q)));
  let reports = Engine.finish_all e in
  Alcotest.(check int) "all sinks reported" 3 (List.length reports);
  List.iter
    (fun (r : Bug.report) ->
      if r.Bug.detector = "bomb" then
        Alcotest.(check bool) "bomb report carries the failure" true (r.Bug.failure <> None)
      else begin
        Alcotest.(check (option string)) (r.Bug.detector ^ " unaffected") None r.Bug.failure;
        Alcotest.(check int) (r.Bug.detector ^ " complete") 5 r.Bug.events_processed
      end)
    reports

let test_sink_quarantine_on_finish () =
  let e = Engine.create () in
  let ok = ref 0 in
  Engine.attach e
    (Sink.make ~name:"bad-finish" ~on_event:(fun _ -> ()) ~finish:(fun () -> failwith "finish failed"));
  Engine.attach e (counting_sink "ok" ok);
  Engine.store_i64 e ~addr:0 1L;
  let reports = Engine.finish_all e in
  Alcotest.(check int) "both reports present" 2 (List.length reports);
  let bad = List.find (fun (r : Bug.report) -> r.Bug.detector = "bad-finish") reports in
  Alcotest.(check bool) "finish failure recorded" true (bad.Bug.failure <> None);
  let good = List.find (fun (r : Bug.report) -> r.Bug.detector = "ok") reports in
  Alcotest.(check int) "sibling report complete" 1 good.Bug.events_processed

let test_quarantined_sink_receives_no_more_events () =
  let e = Engine.create () in
  let calls = ref 0 in
  Engine.attach e
    (Sink.make ~name:"once"
       ~on_event:(fun _ ->
         incr calls;
         failwith "boom")
       ~finish:(fun () -> Bug.empty_report "once"));
  Engine.store_i64 e ~addr:0 1L;
  Engine.store_i64 e ~addr:8 1L;
  Engine.store_i64 e ~addr:16 1L;
  Alcotest.(check int) "dispatch stops after first raise" 1 !calls

let test_attach_many_sinks () =
  (* attach used to be a quadratic list append; make sure order is still
     first-attached-first and a large number of sinks behaves. *)
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 99 do
    Engine.attach e
      (Sink.make
         ~name:(string_of_int i)
         ~on_event:(fun _ -> order := i :: !order)
         ~finish:(fun () -> Bug.empty_report (string_of_int i)))
  done;
  Engine.store_i64 e ~addr:0 1L;
  Alcotest.(check int) "all sinks dispatched" 100 (List.length !order);
  Alcotest.(check (list int)) "dispatch order is attach order" (List.init 100 Fun.id) (List.rev !order);
  Alcotest.(check int) "sinks listed" 100 (List.length (Engine.sinks e))

let suite =
  [
    Alcotest.test_case "engine/pm coupling" `Quick test_engine_pm_coupling;
    Alcotest.test_case "event counters" `Quick test_event_counters;
    Alcotest.test_case "instrumentation toggle" `Quick test_instrumentation_toggle;
    Alcotest.test_case "multiple sinks" `Quick test_multiple_sinks;
    Alcotest.test_case "record/replay equivalence" `Quick test_record_replay_equivalence;
    Alcotest.test_case "interleave round robin" `Quick test_interleave_round_robin;
    Alcotest.test_case "trace stats" `Quick test_trace_stats;
    Alcotest.test_case "order config parsing" `Quick test_order_config_parse;
    Alcotest.test_case "bug report helpers" `Quick test_bug_report_helpers;
    Alcotest.test_case "quarantine isolates a raising sink" `Quick test_sink_quarantine_isolates_failure;
    Alcotest.test_case "quarantine catches finish failures" `Quick test_sink_quarantine_on_finish;
    Alcotest.test_case "quarantined sink gets no more events" `Quick test_quarantined_sink_receives_no_more_events;
    Alcotest.test_case "attach many sinks" `Quick test_attach_many_sinks;
  ]
