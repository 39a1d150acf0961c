(* Per-layer measurements for the traced run. Each layer is timed from
   outside, by calls into its public functions on the workload's own
   inputs, inside a span named after the layer. *)

open Pmtrace
module W = Workloads.Workload
module D = Pmdebugger.Detector
module CE = Faultinject.Crash_explore

type trace_input = { trace : Gen.trace; events : Event.t array; expected : string }
(** A generated trace file, its materialized events and the canonical
    in-memory report every other mode must reproduce. *)

type inputs = {
  traces : trace_input list;
  live : (W.spec * int * int) list;  (** (program, n, seed) the traces were recorded from *)
  seed : int;  (** the run's seed: the explore layer checks the explore workload's first inputs *)
}

(* Operations attempted and failed: sessions, guards and checks. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let check tally what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if List.length tally.notes < 10 then tally.notes <- what :: tally.notes
  end

let reps = 3

let median_of f = Stats.median (Array.init reps (fun _ -> f ()))

let ms ns = ns /. 1e6

(* Cost of one Bclock.now () pair, subtracted from per-call samples. *)
let clock_overhead_ns =
  lazy
    (Stats.median
       (Array.init 2001 (fun _ ->
            let t0 = Bclock.now () in
            Bclock.ns_since t0)))

let total_events inputs = List.fold_left (fun acc ti -> acc + Array.length ti.events) 0 inputs.traces

let timed f = snd (Bclock.time f)

(* ns per event over every trace, median of [reps] passes; [f] times
   its own part of the work on one trace. *)
let per_event inputs f =
  let n = float_of_int (max 1 (total_events inputs)) in
  median_of (fun () -> List.fold_left (fun acc ti -> acc +. f ti) 0.0 inputs.traces) /. n

let detector ti = D.create ~model:ti.trace.Gen.model ()

let streamed_session ti =
  let sink = D.sink (detector ti) in
  match Trace_io.iter_file ti.trace.Gen.path ~f:sink.Sink.on_event with
  | Ok _ -> Some (sink.Sink.finish ())
  | Error _ -> None

(* {1 Trace_io, Sink, Detector, Obs, Shard_router} *)

let trace_io inputs = per_event inputs (fun ti -> timed (fun () -> Trace_io.iter_file ti.trace.Gen.path ~f:ignore))

(* Sinks are built outside the timed part: detector creation is its own
   metric, [detector.create_ms]. *)
let replay_ns events sink = timed (fun () -> Recorder.replay events sink)

let nulgrind inputs = per_event inputs (fun ti -> replay_ns ti.events (Sink.noop "nulgrind"))

let detector_per_event inputs = per_event inputs (fun ti -> replay_ns ti.events (D.sink (detector ti)))

let detector_create inputs =
  Stats.median (Array.of_list (List.concat_map (fun ti -> List.init reps (fun _ -> ms (timed (fun () -> detector ti)))) inputs.traces))

let metrics_on inputs =
  per_event inputs (fun ti ->
      let metrics = Obs.Metrics.create () in
      replay_ns ti.events (D.sink (D.create ~model:ti.trace.Gen.model ~metrics ())))

let two_shards inputs =
  per_event inputs (fun ti ->
      let model = ti.trace.Gen.model in
      replay_ns ti.events (Shard_router.sink ~shards:2 (fun _ -> D.worker (D.create ~model ~walk_dedup:false ()))))

(* One pass timing every on_event call by class, plus finish and the
   bookkeeping counters of the same detectors. *)
let detector_calls inputs =
  let store = Stats.buf () and clf = Stats.buf () and fence = Stats.buf () and finish = Stats.buf () in
  let nodes = ref 0.0 and reorgs = ref 0 in
  let overhead = Lazy.force clock_overhead_ns in
  List.iter
    (fun ti ->
      let det = detector ti in
      let sink = D.sink det in
      Array.iter
        (fun ev ->
          let t0 = Bclock.now () in
          sink.Sink.on_event ev;
          let dt = Bclock.ns_since t0 -. overhead in
          match ev with
          | Event.Store _ -> Stats.push store dt
          | Event.Clf _ -> Stats.push clf dt
          | Event.Fence _ -> Stats.push fence dt
          | _ -> ())
        ti.events;
      let _, ns = Bclock.time sink.Sink.finish in
      Stats.push finish ns;
      nodes := !nodes +. D.avg_tree_nodes_per_fence det;
      reorgs := !reorgs + D.reorganizations det)
    inputs.traces;
  let q b p = Stats.quantile (Stats.contents b) p in
  [
    ("detector.store_p50_ns", q store 0.5, "ns");
    ("detector.clf_p50_ns", q clf 0.5, "ns");
    ("detector.fence_p50_ns", q fence 0.5, "ns");
    ("detector.fence_p99_ns", q fence 0.99, "ns");
    ("detector.finish_ms", ms (Stats.median (Stats.contents finish)), "ms");
    ("space.tree_nodes_per_fence", !nodes /. float_of_int (max 1 (List.length inputs.traces)), "count");
    ("space.reorganizations", float_of_int !reorgs, "count");
  ]

(* {1 Engine: live runs of the source programs (Fig. 8)} *)

let live_s inputs attach =
  median_of (fun () ->
      List.fold_left
        (fun acc ((spec : W.spec), n, seed) ->
          let e = Engine.create () in
          attach spec e;
          let _, ns =
            Bclock.time (fun () ->
                spec.W.run (W.params ~seed ~n ()) e;
                ignore (Engine.finish_all e))
          in
          acc +. (ns /. 1e9))
        0.0 inputs.live)

let engine inputs =
  let native = live_s inputs (fun _ e -> Engine.set_instrumentation e false) in
  let nulgrind = live_s inputs (fun _ e -> Engine.attach e (Sink.noop "nulgrind")) in
  let pmdebugger = live_s inputs (fun spec e -> Engine.attach e (D.sink (D.create ~model:spec.W.model ()))) in
  let pmemcheck = live_s inputs (fun _ e -> Engine.attach e (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ()))) in
  [
    ("engine.native_s", native, "s");
    ("engine.nulgrind_s", nulgrind, "s");
    ("engine.pmdebugger_s", pmdebugger, "s");
    ("engine.pmemcheck_s", pmemcheck, "s");
    ("fig8.slowdown_vs_native", pmdebugger /. native, "x");
    ("fig8.pmdebugger_over_nulgrind", pmdebugger /. nulgrind, "x");
    ("fig8.pmemcheck_over_pmdebugger", pmemcheck /. pmdebugger, "x");
  ]

(* {1 Serve and Wire} *)

let start_daemon ~socket ~model =
  let cfg = { (Serve.Daemon.default_config ~socket) with Serve.Daemon.workers = 2 } in
  let d = Serve.Daemon.create ~make_sink:(fun ~heatmap:_ -> D.sink (D.create ~model ())) cfg in
  let dom = Domain.spawn (fun () -> Serve.Daemon.run d) in
  (* Started means answering: one stats round trip. *)
  match Serve.Client.stats ~socket with
  | Ok _ -> dom
  | Error msg ->
      Serve.Daemon.request_stop d;
      Domain.join dom;
      failwith ("daemon did not answer: " ^ msg)

let stop_daemon ~socket dom =
  (match Serve.Client.stop ~socket with Ok () -> () | Error msg -> failwith ("daemon stop: " ^ msg));
  Domain.join dom

let offline_report ti = Recorder.replay ti.events (D.sink (detector ti))

let wire tally inputs =
  let samples =
    List.concat_map
      (fun ti ->
        let r = offline_report ti in
        let expected = Checks.wire_bytes r in
        List.init reps (fun _ ->
            let back, ns =
              Bclock.time (fun () ->
                  Result.bind
                    (Obs.Json.of_string (Obs.Json.to_string ~indent:false (Serve.Wire.report_to_json r)))
                    Serve.Wire.report_of_json)
            in
            check tally "wire round trip"
              (match back with Ok r' -> Checks.wire_bytes r' = expected | Error _ -> false);
            ms ns))
      inputs.traces
  in
  Stats.median (Array.of_list samples)

(* Daemon probes: a program_end-only session, a stats round trip, and
   each trace's session latency minus its offline detection time. The
   daemon runs one detector model, so only traces of the first trace's
   model are submitted. *)
let serve ~socket tally inputs =
  let model = (List.hd inputs.traces).trace.Gen.model in
  let dom = start_daemon ~socket ~model in
  Fun.protect ~finally:(fun () -> stop_daemon ~socket dom) @@ fun () ->
  let timed_ms f = Stats.median (Array.init 15 (fun _ -> ms (timed f))) in
  let empty =
    timed_ms (fun () ->
        check tally "empty session"
          (match Serve.Client.replay_string ~socket ~name:"empty" "program_end\n" with
          | Ok f -> f.Serve.Wire.status = Serve.Status.Ok
          | Error _ -> false))
  in
  let stats = timed_ms (fun () -> check tally "stats" (Result.is_ok (Serve.Client.stats ~socket))) in
  let overheads =
    List.concat_map
      (fun ti ->
        if ti.trace.Gen.model <> model then []
        else begin
          let expected_bytes = Checks.wire_bytes (offline_report ti) in
          let offline_ns = median_of (fun () -> timed (fun () -> offline_report ti)) in
          List.init 2 (fun _ ->
              let frame, ns = Bclock.time (fun () -> Serve.Client.replay_file ~socket ~name:"probe" ti.trace.Gen.path) in
              check tally "probe session" (Checks.session_ok ~expected_bytes frame);
              ms (ns -. offline_ns))
        end)
      inputs.traces
  in
  [
    ("serve.empty_session_ms", empty, "ms");
    ("serve.overhead_ms", Stats.median (Array.of_list overheads), "ms");
    ("serve.stats_rtt_ms", stats, "ms");
  ]

(* {1 Faultinject, Pmem, Infer} *)

let explore tally inputs =
  let capture () = Gen.btree_input ~seed:inputs.seed 0 in
  let capture_ms = median_of (fun () -> ms (timed capture)) in
  let steps = capture () in
  let p = Gen.planted_input ~seed:inputs.seed 0 in
  let infer_ms = median_of (fun () -> ms (timed (fun () -> CE.plan_invariants (CE.make_plan p.Gen.steps)))) in
  let overhead = Lazy.force clock_overhead_ns in
  (* Exhaustive scan with the predicate timed, so image derivation is
     the remainder. *)
  let recovery_ns = ref 0.0 in
  let timed_recovery img =
    let t0 = Bclock.now () in
    let ok = Gen.btree_recovery img in
    recovery_ns := !recovery_ns +. Bclock.ns_since t0 -. overhead;
    ok
  in
  let o, total_ns = Bclock.time (fun () -> CE.run ~recovery:timed_recovery (CE.make_plan ~max_images:Gen.exhaustive_max_images steps) CE.exhaustive) in
  let images = float_of_int (max 1 o.CE.result.CE.images_checked) in
  let guided budget = CE.run ~recovery:Gen.planted_recovery (CE.make_plan ~max_images:Gen.planted_max_images ~budget p.Gen.steps) CE.guided in
  let g, g_ns = Bclock.time (fun () -> guided Gen.guided_budget) in
  check tally "guided subset of planted" (Checks.failures_subset ~of_:p.Gen.expected g);
  (* Guided visits boundaries in a fixed order, so the failures found
     only grow with the budget: bisect for the smallest budget that
     finds every planted failure. *)
  let finds_all b = Checks.failing_indexes (guided b) = p.Gen.expected in
  let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if finds_all mid then search lo mid else search (mid + 1) hi
  in
  let to_all = search 1 (Gen.planted_max_images * Array.length p.Gen.steps) in
  check tally "guided finds every planted failure" (finds_all to_all);
  [
    ("replay.capture_ms", capture_ms, "ms");
    ("infer.invariants_ms", infer_ms, "ms");
    ("explore.images_per_s", images /. (total_ns /. 1e9), "1/s");
    ("explore.guided_images_per_s", float_of_int g.CE.result.CE.images_checked /. (g_ns /. 1e9), "1/s");
    ("explore.derive_us_per_image", (total_ns -. !recovery_ns) /. images /. 1e3, "us");
    ("explore.recovery_us_per_image", !recovery_ns /. images /. 1e3, "us");
    ("explore.guided_images_to_all_planted", float_of_int to_all, "count");
  ]

(* {1 Attribution} *)

(* The session split at layer boundaries: parse the file, feed the
   materialized events to the detector, finish. Under [spans] each part
   is a child span of the session. *)
let split_session spans ti =
  Spans.record spans "session" (fun () ->
      Spans.record spans "trace_io.iter_file" (fun () -> ignore (Trace_io.iter_file ti.trace.Gen.path ~f:ignore));
      let sink = D.sink (detector ti) in
      Spans.record spans "detector.on_event" (fun () -> Array.iter sink.Sink.on_event ti.events);
      Spans.record spans "detector.finish" sink.Sink.finish)

(* [trace.attributed_share]: the layer spans' self times over the
   untraced streamed sessions of the same traces — 1.0 when the layers
   account for the whole session. [trace.overhead_share]: the split
   sessions with spans on against the same sessions with spans off. *)
let attribution spans tally inputs =
  let total f = List.fold_left (fun acc ti -> acc +. f ti) 0.0 inputs.traces in
  let streamed =
    median_of (fun () ->
        total (fun ti ->
            let r, ns = Bclock.time (fun () -> streamed_session ti) in
            check tally "streamed session"
              (match r with Some r -> Checks.same_report ~expected:ti.expected r | None -> false);
            ns))
  in
  let off = Spans.create ~on:false in
  let untraced = median_of (fun () -> total (fun ti -> timed (fun () -> split_session off ti))) in
  let traced =
    median_of (fun () ->
        let pass = Spans.create ~on:true in
        List.iter
          (fun ti ->
            let r = split_session pass ti in
            check tally "split session" (Checks.same_report ~expected:ti.expected r))
          inputs.traces;
        spans.Spans.spans <- pass.Spans.spans @ spans.Spans.spans;
        Hashtbl.fold (fun _ ns acc -> acc +. ns) (Spans.self_ns pass) 0.0)
  in
  [ ("trace.attributed_share", traced /. streamed, "share"); ("trace.overhead_share", (traced -. untraced) /. untraced, "share") ]

let all ~socket spans tally inputs =
  let layer name f = Spans.record spans name f in
  List.concat
    [
      [ ("trace_io.parse_ns_per_event", layer "trace_io" (fun () -> trace_io inputs), "ns") ];
      [ ("sink.nulgrind_ns_per_event", layer "sink" (fun () -> nulgrind inputs), "ns") ];
      layer "engine" (fun () -> engine inputs);
      [ ("detector.ns_per_event", layer "detector" (fun () -> detector_per_event inputs), "ns") ];
      [ ("detector.create_ms", layer "detector" (fun () -> detector_create inputs), "ms") ];
      layer "detector" (fun () -> detector_calls inputs);
      [ ("obs.metrics_on_ns_per_event", layer "obs" (fun () -> metrics_on inputs), "ns") ];
      [ ("shard_router.2shards.ns_per_event", layer "shard_router" (fun () -> two_shards inputs), "ns") ];
      layer "serve" (fun () -> serve ~socket tally inputs);
      [ ("wire.report_json_ms", layer "wire" (fun () -> wire tally inputs), "ms") ];
      layer "faultinject" (fun () -> explore tally inputs);
      attribution spans tally inputs;
    ]
