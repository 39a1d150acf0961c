let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let median_of ?(repeats = 3) f =
  let samples = List.init (max 1 repeats) (fun _ -> time_once f) in
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

type dispatch_profile = { p50_s : float; p95_s : float; p99_s : float; samples : int }

type measurement = {
  native_s : float;
  nulgrind_s : float;
  detector_s : (string * float) list;
}

let slowdown m t = if m.native_s > 0.0 then t /. m.native_s else 0.0

(* One timed pass per event: the per-event dispatch latency histogram.
   Kept out of the median-timed replays so the gettimeofday pair does
   not pollute the whole-run numbers. *)
let dispatch_profile trace sink =
  let h = Obs.Metrics.hist_create () in
  Array.iter
    (fun ev ->
      let t0 = Unix.gettimeofday () in
      sink.Pmtrace.Sink.on_event ev;
      Obs.Metrics.hist_observe h (Unix.gettimeofday () -. t0))
    trace;
  ignore (sink.Pmtrace.Sink.finish ());
  let v = Obs.Metrics.hist_view h in
  {
    p50_s = Obs.Metrics.quantile v 0.5;
    p95_s = Obs.Metrics.quantile v 0.95;
    p99_s = Obs.Metrics.quantile v 0.99;
    samples = v.Obs.Metrics.h_count;
  }

let measure ?(repeats = 3) ~run ~detectors () =
  (* Native: same workload, instrumentation disabled. *)
  let native_s =
    median_of ~repeats (fun () ->
        let engine = Pmtrace.Engine.create () in
        Pmtrace.Engine.set_instrumentation engine false;
        run engine)
  in
  let trace = Pmtrace.Recorder.record run in
  let replay_median mk =
    median_of ~repeats (fun () -> ignore (Pmtrace.Recorder.replay trace (mk ())))
  in
  let nulgrind_replay = replay_median (fun () -> Pmtrace.Sink.noop "nulgrind") in
  let detector_s =
    List.map (fun (name, mk) -> (name, native_s +. replay_median mk)) detectors
  in
  ({ native_s; nulgrind_s = native_s +. nulgrind_replay; detector_s }, trace)
