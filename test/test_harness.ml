let test_median () =
  let calls = ref 0 in
  let t = Harness.Timing.median_of ~repeats:5 (fun () -> incr calls) in
  Alcotest.(check int) "ran five times" 5 !calls;
  Alcotest.(check bool) "non-negative" true (t >= 0.0)

let test_time_once () =
  let t = Harness.Timing.time_once (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id))) in
  Alcotest.(check bool) "positive-ish" true (t >= 0.0)

let test_measure () =
  let run engine =
    Pmtrace.Engine.register_pmem engine ~base:0 ~size:4096;
    for i = 0 to 99 do
      Pmtrace.Engine.store_i64 engine ~addr:(i * 8) 1L;
      Pmtrace.Engine.persist engine ~addr:(i * 8) ~size:8
    done;
    Pmtrace.Engine.program_end engine
  in
  let m, trace =
    Harness.Timing.measure ~repeats:1 ~run
      ~detectors:[ ("pmdebugger", fun () -> Pmdebugger.Detector.sink (Pmdebugger.Detector.create ())) ]
      ()
  in
  Alcotest.(check bool) "trace recorded" true (Array.length trace > 300);
  Alcotest.(check bool) "native measured" true (m.Harness.Timing.native_s >= 0.0);
  Alcotest.(check bool) "nulgrind >= native" true (m.Harness.Timing.nulgrind_s >= m.Harness.Timing.native_s);
  let det = List.assoc "pmdebugger" m.Harness.Timing.detector_s in
  Alcotest.(check bool) "detector >= native" true (det >= m.Harness.Timing.native_s);
  Alcotest.(check bool) "slowdown >= 1" true (Harness.Timing.slowdown m det >= 1.0);
  (* Per-event dispatch-latency quantiles, for the no-op sink and the
     detector, over the recorded trace. *)
  List.iter
    (fun sink ->
      let p = Harness.Timing.dispatch_profile trace sink in
      Alcotest.(check int) "profiled every event" (Array.length trace) p.Harness.Timing.samples;
      Alcotest.(check bool) "p50 >= 0" true (p.Harness.Timing.p50_s >= 0.0);
      Alcotest.(check bool) "p95 >= p50" true (p.Harness.Timing.p95_s >= p.Harness.Timing.p50_s);
      Alcotest.(check bool) "p99 >= p95" true (p.Harness.Timing.p99_s >= p.Harness.Timing.p95_s))
    [ Pmtrace.Sink.noop "nulgrind"; Pmdebugger.Detector.sink (Pmdebugger.Detector.create ()) ]

let test_formatters () =
  Alcotest.(check string) "fmt_f" "3.14" (Harness.Table.fmt_f 3.14159);
  Alcotest.(check string) "fmt_x" "12.3x" (Harness.Table.fmt_x 12.31);
  Alcotest.(check string) "fmt_pct" "84.5%" (Harness.Table.fmt_pct 0.845)

(* The `pmdb top` renderer against synthetic daemon snapshots: rates
   from counter deltas, session latency quantiles, the backpressure
   rung, and per-session rows — all without a daemon. *)
let top_snapshot ?(events = 1000) ?(evictions = 0) () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.inc m ~by:events "serve_events_total";
  Obs.Metrics.inc m ~by:3 "serve_sessions_opened_total";
  Obs.Metrics.inc m ~by:evictions "serve_evictions_total";
  Obs.Metrics.set m "serve_sessions_active" 2.0;
  Obs.Metrics.observe m "serve_session_e2e_seconds" 0.004;
  Obs.Metrics.observe m "serve_session_e2e_seconds" 0.004;
  Obs.Metrics.inc m ~labels:[ ("domain", "0") ] ~by:750 "serve_worker_events_total";
  Obs.Metrics.inc m ~labels:[ ("domain", "1") ] ~by:250 "serve_worker_events_total";
  Obs.Metrics.set m ~labels:[ ("session", "alice") ] "serve_queue_depth" 17.0;
  Obs.Metrics.set m ~labels:[ ("session", "alice") ] "serve_events_per_sec" 512.0;
  Obs.Metrics.set m ~labels:[ ("session", "alice") ] "serve_live_bytes" 4096.0;
  Obs.Metrics.snapshot m

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_top_render () =
  let cur = top_snapshot () in
  (* First frame: absolutes only, no rate suffix. *)
  let first = Harness.Top.render ~prev:None ~cur ~dt:0.0 in
  Alcotest.(check bool) "header shows sessions and events" true
    (contains first "2 session(s) active, 1000 event(s) ingested");
  Alcotest.(check bool) "no rate on the first frame" false (contains first "/s)");
  Alcotest.(check bool) "idle rung" true (contains first "backpressure: idle");
  (* Two 4ms observations land in the (2.5ms, 5ms] bucket, whose upper
     edge is clamped to the observed max: p50 interpolates to the
     midpoint of (2.5ms, 4ms]. *)
  Alcotest.(check bool) "session latency quantiles" true (contains first "e2e p50 3.3ms");
  Alcotest.(check bool) "no decode stage" false (contains first "decode");
  Alcotest.(check bool) "worker balance" true (contains first "w0 75% (750)");
  Alcotest.(check bool) "session row" true (contains first "alice");
  (* Second frame: 500 more events over 2s -> +250/s; an eviction
     flips the rung. *)
  let next = top_snapshot ~events:1500 ~evictions:1 () in
  let second = Harness.Top.render ~prev:(Some cur) ~cur:next ~dt:2.0 in
  Alcotest.(check bool) "rate from the delta" true (contains second "(+250/s)");
  Alcotest.(check bool) "eviction rung" true (contains second "backpressure: EVICTING")

let test_top_render_empty () =
  (* A daemon with nothing going on still renders a header, not an
     exception (missing series must render as "-"). *)
  let out = Harness.Top.render ~prev:None ~cur:(Obs.Metrics.snapshot (Obs.Metrics.create ())) ~dt:0.0 in
  Alcotest.(check bool) "renders" true (contains out "pmdb top");
  Alcotest.(check bool) "missing latency renders as -" true (contains out "e2e p50 -")

let suite =
  [
    Alcotest.test_case "median_of" `Quick test_median;
    Alcotest.test_case "time_once" `Quick test_time_once;
    Alcotest.test_case "measure" `Quick test_measure;
    Alcotest.test_case "formatters" `Quick test_formatters;
    Alcotest.test_case "top: render frames" `Quick test_top_render;
    Alcotest.test_case "top: empty snapshot" `Quick test_top_render_empty;
  ]
