(** Client side of the {!Wire} protocol — used by [pmdb replay
    --daemon], [pmdb stats --daemon], [pmdb serve --stop], the bench's
    synthetic load generators and the fault-tolerance tests.

    Every entry point opens its own connection, performs one exchange
    and closes ({!stats_follow} repeats {!stats}); errors come back as
    [Error msg], never exceptions. *)

val replay_file :
  socket:string -> name:string -> ?lenient:bool -> string -> (Wire.result_frame, string) result
(** Stream the trace file at [path] as session [name] and wait for the
    daemon's report. *)

val replay_string :
  socket:string -> name:string -> ?lenient:bool -> string -> (Wire.result_frame, string) result

val raw : socket:string -> string -> (string, string) result
(** Send arbitrary bytes, half-close, return everything the daemon
    answers — the fuzzing hook: whatever we send, the reply must be a
    parseable result frame (or a metrics document for a [stats]
    hello). *)

val stats : socket:string -> (Obs.Metrics.snapshot, string) result
(** Fetch the daemon's live metrics snapshot. *)

val heatmap : socket:string -> (Obs.Heatmap.snapshot, string) result
(** Fetch the daemon's merged hot-line table (the per-worker tables
    folded with {!Obs.Heatmap.merge}). Rows are empty unless the daemon
    was started with a heatmap cap. *)

val stats_follow :
  socket:string ->
  ?frames:int ->
  on_frame:(Obs.Metrics.snapshot -> bool) ->
  unit ->
  (int, string) result
(** Poll {!stats}: once at once, then once every
    {!Daemon.stream_interval} seconds, handing each merged snapshot to
    [on_frame], which returns [false] to stop. With [frames > 0] it
    stops after that many snapshots (default [0]: follow until the
    daemon goes away or [on_frame] says stop). A request that fails
    after the first snapshot means the daemon went away and ends the
    follow; one that fails before it is the error. Returns the number
    of snapshots seen. *)

val stop : socket:string -> (unit, string) result
(** Ask the daemon to shut down gracefully. *)

type probe = Garbage | Hang

val probe : socket:string -> name:string -> probe -> (Wire.result_frame, string) result
(** Misbehave on purpose. [Garbage] streams unparseable lines (the
    daemon must answer [trace-error]); [Hang] opens a session, sends
    one event and goes silent without closing (the daemon must reap it
    at the idle timeout and answer [timeout]). Both block until the
    daemon's structured reply arrives. *)
