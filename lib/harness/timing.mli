(** Wall-clock timing for the slowdown experiments.

    The paper reports per-tool slowdown relative to the original
    program with detectors disabled. Here the "original program" is the
    workload run with instrumentation off; Nulgrind adds dispatch-only
    instrumentation; each detector adds its bookkeeping on top. Times
    are medians of repeated runs on a recorded trace.
    {!dispatch_profile} times each event's dispatch into an
    {!Obs.Metrics} histogram and reports its p50/p95/p99. *)

val time_once : (unit -> unit) -> float

val median_of : ?repeats:int (** default 3 *) -> (unit -> unit) -> float

type dispatch_profile = {
  p50_s : float;  (** median per-event dispatch latency *)
  p95_s : float;  (** tail per-event dispatch latency *)
  p99_s : float;  (** far-tail per-event dispatch latency *)
  samples : int;  (** events profiled (= trace length) *)
}

type measurement = {
  native_s : float;  (** uninstrumented workload run *)
  nulgrind_s : float;  (** native + dispatch to a no-op sink *)
  detector_s : (string * float) list;  (** native + dispatch + bookkeeping *)
}

val slowdown : measurement -> float -> float
(** [slowdown m t] is [t /. m.native_s]. *)

val dispatch_profile : Pmtrace.Recorder.trace -> Pmtrace.Sink.t -> dispatch_profile
(** Replay the trace into the sink, timing every [on_event] call into a
    fixed-bucket histogram ({!Obs.Metrics.latency_bounds}); the sink's
    [finish] runs (its result is dropped). *)

val measure :
  ?repeats:int ->
  run:(Pmtrace.Engine.t -> unit) ->
  detectors:(string * (unit -> Pmtrace.Sink.t)) list ->
  unit ->
  measurement * Pmtrace.Recorder.trace
(** Runs the workload natively (instrumentation off) for the baseline
    time, records its trace once, then replays the trace into each
    detector; detector total time = native + replay. *)
