(** Trace recording and replay.

    To compare detectors fairly (and to time them excluding workload
    cost), a workload is run once with a recording sink; the captured
    event array is then replayed into each detector. *)

type trace = Event.t array

val record : (Engine.t -> unit) -> trace
(** [record run] executes [run] on a fresh engine with a recording sink
    and returns the captured trace. *)

val replay : trace -> Sink.t -> Bug.report
(** Feed every event to the sink, then [finish]. *)

val replay_stream : ((Event.t -> unit) -> unit) -> Sink.t -> Bug.report
(** [replay_stream produce sink] feeds the events [produce] emits into
    the sink as they are produced — the constant-memory dual of
    {!replay} for event sources that never materialize a trace array
    (e.g. {!Trace_io.iter_file}). *)

val interleave_round_robin : trace list -> trace
(** Merge per-thread traces by alternating one event from each, the
    deterministic model of a multi-threaded run under Valgrind. *)

val stats : trace -> (string * int) list
