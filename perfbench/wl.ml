(* The workloads: set-up, the measured closed loop, output checks and
   the metrics each run reports. *)

open Pmtrace
module W = Workloads.Workload
module D = Pmdebugger.Detector
module CE = Faultinject.Crash_explore

type config = {
  workload : string;
  seed : int;
  seconds : float;
  dir : string;  (** this run's private directory for traces and the socket *)
  spans : Spans.t;
}

type run = { tally : Layers.tally; metrics : (string * float * string) list; summary : string list }

let names = [ "replay_tx"; "replay_kv"; "explore" ]

let socket cfg = Filename.concat cfg.dir "d.sock"

(* {1 Set-up} *)

(* Set-up runs once before the loop, to make the inputs, and again
   between rounds every [seconds / setup_reps], so that [setup_s], the
   median, samples the host over the whole window as the other metrics
   do: a burst of set-ups at the start samples one moment of a host
   whose speed drifts. Repeats rewrite the same inputs. *)
let setup_reps = 15

type setups = { redo : unit -> unit; step_ns : int64; mutable due : int64; mutable times_s : float list }

let first_setup cfg setup =
  let x, ns = Bclock.time setup in
  let step_ns = Int64.of_float (cfg.seconds *. 1e9 /. float_of_int setup_reps) in
  (x, { redo = (fun () -> ignore (setup ())); step_ns; due = Int64.max_int; times_s = [ ns /. 1e9 ] })

let start_window s = s.due <- Int64.add (Bclock.now ()) s.step_ns

let setup_if_due s =
  if Bclock.now () >= s.due then begin
    let _, ns = Bclock.time s.redo in
    s.times_s <- (ns /. 1e9) :: s.times_s;
    start_window s
  end

let with_reference (t : Gen.trace) =
  let events = Gen.load t in
  let r = Recorder.replay events (D.sink (D.create ~model:t.Gen.model ())) in
  { Layers.trace = t; events; expected = Checks.canonical r }

(* {1 End-to-end metrics} *)

(* Sessions are grouped in rounds: one session per input, so every
   round carries the same mix. Throughput is the median over complete
   rounds, which a transient stall of the host moves less than a total. *)
type acc = {
  lat : Stats.buf;
  mutable events : int;
  mutable rounds : (float * float) list;  (** (events/s, sessions/s) per complete round *)
  mutable r_events : int;
  mutable r_ns : float;
  mutable r_sessions : int;
}

let acc () = { lat = Stats.buf (); events = 0; rounds = []; r_events = 0; r_ns = 0.0; r_sessions = 0 }

let add acc ~events ns =
  Stats.push acc.lat ns;
  acc.events <- acc.events + events;
  acc.r_events <- acc.r_events + events;
  acc.r_ns <- acc.r_ns +. ns;
  acc.r_sessions <- acc.r_sessions + 1

let close_round acc =
  let s = acc.r_ns /. 1e9 in
  acc.rounds <- (float_of_int acc.r_events /. s, float_of_int acc.r_sessions /. s) :: acc.rounds;
  acc.r_events <- 0;
  acc.r_ns <- 0.0;
  acc.r_sessions <- 0

let e2e_metrics setups a =
  let lat = Stats.contents a.lat in
  let q p = Stats.quantile lat p /. 1e6 in
  let per_s f = Stats.median (Array.of_list (List.map f a.rounds)) in
  [
    ("events_per_s", per_s fst, "1/s");
    ("session_p50_ms", q 0.5, "ms");
    ("sessions_per_s", per_s snd, "1/s");
    ("peak_rss_mb", Option.value ~default:nan (Stats.peak_rss_mb ()), "MB");
    ("setup_s", Stats.median (Array.of_list setups.times_s), "s");
  ]

(* The tail is reported here, with its sample count, but not gated:
   on a shared 2-core host its run-to-run spread is too wide to bound. *)
let e2e_summary a =
  let n = a.lat.Stats.len in
  let lat = Stats.contents a.lat in
  [
    Printf.sprintf "%d sessions in %d complete rounds, %d events" n (List.length a.rounds) a.events;
    Printf.sprintf "session p50 %.3f ms, p95 %.3f ms over %d samples (%d beyond p95%s)"
      (Stats.quantile lat 0.5 /. 1e6) (Stats.quantile lat 0.95 /. 1e6) n (n / 20)
      (if n / 20 >= 10 then "" else ", fewer than 10: unsteady");
  ]

(* Loops run until the deadline and at least one complete round. *)
let deadline cfg = Int64.add (Bclock.now ()) (Int64.of_float (cfg.seconds *. 1e9))

(* {1 replay_tx, replay_kv} *)

let replay_sources = function
  | "replay_tx" ->
      (* hashmap_tx builds the large spill tree (Pattern 1); each source
         runs under its own epoch or strand model. *)
      [ (Workloads.Hashmap_tx.spec, 400); (Workloads.Btree.spec, 450); (Workloads.Synth_strand.spec, 150) ]
  | _ ->
      (* Strict model, live bug sites and hundreds of findings per trace;
         sized to stay below the spill-tree reorganization that the
         shard equality contract excludes. *)
      [ (Workloads.Memcached.spec, 4000); (Workloads.Ycsb.spec Workloads.Ycsb.A, 1000) ]

let replay_setup cfg () =
  let sources = replay_sources cfg.workload in
  Gen.record_traces ~dir:cfg.dir ~seed:cfg.seed (sources @ sources)

let replay_guards tally inputs =
  List.iter
    (fun (ti : Layers.trace_input) ->
      let model = ti.Layers.trace.Gen.model in
      let sharded =
        Recorder.replay ti.Layers.events
          (Shard_router.sink ~shards:2 (fun _ -> D.worker (D.create ~model ~walk_dedup:false ())))
      in
      Layers.check tally ("2-shard report of " ^ ti.Layers.trace.Gen.path)
        (Checks.same_report ~expected:ti.Layers.expected sharded))
    inputs;
  Layers.check tally "bugbench 78/78 with 0 FP"
    (Checks.bugbench_exact (Bugbench.Eval.evaluate Bugbench.Eval.PMDebugger))

let replay_loop cfg tally setups inputs =
  List.iter (fun ti -> ignore (Layers.streamed_session ti)) inputs;
  let arr = Array.of_list inputs in
  let a = acc () in
  let stop = deadline cfg in
  start_window setups;
  let i = ref 0 in
  while Bclock.now () < stop || a.rounds = [] do
    let ti = arr.(!i mod Array.length arr) in
    incr i;
    let r, ns = Bclock.time (fun () -> Layers.streamed_session ti) in
    add a ~events:ti.Layers.trace.Gen.events ns;
    if !i mod Array.length arr = 0 then begin
      close_round a;
      setup_if_due setups
    end;
    Layers.check tally "streamed report"
      (match r with Some r -> Checks.same_report ~expected:ti.Layers.expected r | None -> false)
  done;
  a

(* {1 explore} *)

let explore_traces = 4

let explore_setup cfg () =
  (Array.init explore_traces (Gen.btree_input ~seed:cfg.seed), Array.init explore_traces (Gen.planted_input ~seed:cfg.seed))

let explore_guards tally planted =
  Array.iter
    (fun (p : Gen.planted) ->
      let o = CE.run ~recovery:Gen.planted_recovery (CE.make_plan ~max_images:Gen.planted_max_images p.Gen.steps) CE.exhaustive in
      Layers.check tally "planted failures are the hand-derived ones" (Checks.failures_equal ~expected:p.Gen.expected o))
    planted

(* One session explores one b_tree trace exhaustively and one planted
   trace with the guided strategy at a fixed budget. *)
let explore_loop cfg tally setups (btrees, planted) =
  let a = acc () in
  let stop = deadline cfg in
  start_window setups;
  let i = ref 0 in
  while Bclock.now () < stop || a.rounds = [] do
    let k = !i mod explore_traces in
    incr i;
    let steps = btrees.(k) and p = planted.(k) in
    let (ex, g), ns =
      Bclock.time (fun () ->
          let ex = CE.run ~recovery:Gen.btree_recovery (CE.make_plan ~max_images:Gen.exhaustive_max_images steps) CE.exhaustive in
          let g =
            CE.run ~recovery:Gen.planted_recovery
              (CE.make_plan ~max_images:Gen.planted_max_images ~budget:Gen.guided_budget p.Gen.steps)
              CE.guided
          in
          (ex, g))
    in
    add a ~events:(Array.length steps + Array.length p.Gen.steps) ns;
    if !i mod explore_traces = 0 then begin
      close_round a;
      setup_if_due setups
    end;
    Layers.check tally "b_tree failures are the hand-derived ones"
      (Checks.failures_equal ~expected:Gen.btree_expected_failures ex);
    Layers.check tally "guided failures within the planted ones" (Checks.failures_subset ~of_:p.Gen.expected g)
  done;
  a

(* The explore inputs as trace files, for the layers that read traces. *)
let explore_inputs cfg (btrees, planted) =
  let file name model steps =
    let events = Faultinject.Replay.events_of_steps steps in
    let path = Filename.concat cfg.dir name in
    Trace_io.save path events;
    with_reference { Gen.model; path; events = Array.length events }
  in
  [ file "btree.pmt" D.Epoch btrees.(0); file "planted.pmt" D.Strict planted.(0).Gen.steps ]

(* {1 Runs} *)

let traced cfg tally traces live =
  Layers.all ~socket:(socket cfg) cfg.spans tally { Layers.traces; live; seed = cfg.seed }

let run ~trace cfg =
  let tally = Layers.tally () in
  let result setups ~loop ~layers =
    if trace then
      let metrics = layers () in
      let share = List.find_map (fun (n, v, _) -> if n = "trace.attributed_share" then Some v else None) metrics in
      let within = match share with Some v -> v >= 0.75 && v <= 1.25 | None -> false in
      let summary =
        [ Printf.sprintf "layer spans account for %.3f of the streamed session time (tolerance 0.75-1.25: %s)"
            (Option.value ~default:nan share) (if within then "within" else "outside") ]
      in
      { tally; metrics; summary }
    else
      let a = loop () in
      { tally; metrics = e2e_metrics setups a; summary = e2e_summary a }
  in
  let live sources = List.mapi (fun i ((spec : W.spec), n) -> (spec, n, Gen.sub_seed cfg.seed i)) sources in
  match cfg.workload with
  | "replay_tx" | "replay_kv" ->
      let traces, setups = first_setup cfg (replay_setup cfg) in
      let inputs = List.map with_reference traces in
      replay_guards tally inputs;
      let sources = replay_sources cfg.workload in
      result setups
        ~loop:(fun () -> replay_loop cfg tally setups inputs)
        ~layers:(fun () -> traced cfg tally inputs (live (sources @ sources)))
  | "explore" ->
      let ((_, planted) as ins), setups = first_setup cfg (explore_setup cfg) in
      explore_guards tally planted;
      result setups
        ~loop:(fun () -> explore_loop cfg tally setups ins)
        ~layers:(fun () -> traced cfg tally (explore_inputs cfg ins) (live [ (Workloads.Btree.spec, Gen.btree_n) ]))
  | w -> invalid_arg ("unknown workload " ^ w)

(* The run's last output line. *)
let result_line r =
  let metric (name, value, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (r.tally.Layers.failed = 0)
    r.tally.Layers.attempted r.tally.Layers.failed
    (String.concat ", " (List.map metric r.metrics))
