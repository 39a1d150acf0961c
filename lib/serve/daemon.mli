(** The [pmdb serve] daemon: a fault-tolerant multi-session detection
    server on a Unix-domain socket.

    A session is [pmdb replay] on its worker. One dispatch domain owns
    all socket I/O: a [select] loop accepts connections, reads hello
    lines, and forwards each session's bytes, as read, to a sticky
    {!Pool} of worker domains (session [id] always lands on worker
    [id mod workers], so detector state never crosses domains). The
    worker decodes them with the session's {!Session} — the
    {!Pmtrace.Trace_io.Decoder} file replays use — straight into the
    session's engine, and publishes the outcome, which the dispatch
    domain sends back as the session's one result frame.

    The loop wakes only for work. [select] blocks until a socket is
    readable, a byte arrives on the daemon's self-pipe, or a real
    deadline comes: the earliest idle timeout of a session being read,
    or the next metrics-file write. With neither it waits with no
    timeout, so an idle daemon sleeps. A worker writes to the self-pipe
    when an outcome lands, when a paused session may read again, and
    when it makes room in a queue the dispatch domain found full; a
    signal handler or {!request_stop} does the same.

    Backpressure is one rung: a session's fd leaves the read set while
    its bytes in flight (read, not yet decoded) reach [session_budget]
    or a message waits on a full worker queue, so the kernel socket
    buffer fills and the client's writes block (flow control without a
    protocol). A fast client is throttled, never evicted. A session
    whose worker holds more than [session_budget] bytes for it (one line
    longer than the budget, or the skip messages of a flood of garbage
    lines) is evicted: the end rule appends a [program_end] unless the
    last decoded event was one, so the end-of-trace rules run over what
    {e was} decoded, and the client gets a partial report with status
    [evicted].

    Sessions idle past [idle_timeout] are cut short the same way
    (status [timeout]); a paused session is not idle. A reply is
    written after the daemon stops receiving on the socket, so a client
    still writing gets [EPIPE] and reads it. A session that reaches its
    client's end of input gets the end rule only if it is lenient,
    exactly as [pmdb replay] treats the same file, so a healthy trace's
    report is byte-identical in both modes. A malformed line (strict sessions) or
    a detector exception quarantines only that session — the client
    gets a structured error frame, every other session is untouched.
    Shutdown (SIGTERM/SIGINT via {!install_signal_handlers}, a [stop]
    hello, or {!request_stop}) drains every live session through its
    engine's [finish_one] before the process exits.

    {2 Observability}

    Telemetry is domain-safe: the dispatch domain's registry is merged
    ({!Obs.Metrics.merge}) with the workers' atomically-published
    snapshots for every [stats] reply and metrics-file write, so the
    numbers are whole-daemon truth — not just the dispatch domain's
    view. The live gauges are read at that moment and never stored:
    [serve_sessions_active] (open connections) and, per live session,
    [serve_queue_depth{session}] (chunks not yet decoded),
    [serve_live_bytes{session}] (bytes not yet decoded) and
    [serve_events_per_sec{session}] (events decoded over the seconds
    since accept: the average over the session's life). A closed
    session has no series. The daemon pushes nothing unasked: a
    follower ([pmdb stats --daemon --follow], [pmdb top]) polls
    [stats].

    The daemon also keeps an always-on flight recorder
    ({!Obs.Flightrec}): a fixed 512-slot ring of recent session
    transitions, quarantines, and fd pauses and resumes on the
    dispatch domain, plus one ring per worker fed by engine dispatch. On a quarantine,
    an eviction, SIGQUIT or shutdown, the last-N window of every ring is
    dumped into [flightrec_dir] as JSON and as one Perfetto trace that
    merges the rings onto one time base ({!Obs.Tracecat}) — a black box
    for "what led up to this?" with no tracing enabled in advance.

    When [metrics_file] is set, a Prometheus text-format rendering of
    the merged snapshot is written atomically (temp file + rename)
    every {!stream_interval} seconds and once more at shutdown. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains (default 2) *)
  session_budget : int;
      (** bytes a session may have in flight before its fd is paused,
          and may hold on its worker before it is evicted (default
          8 MiB) *)
  idle_timeout : float;  (** seconds; [<= 0.] disables reaping (default 30) *)
  max_sessions : int;  (** connection cap (default 64) *)
  metrics_file : string option;
      (** write Prometheus text exposition here periodically (default
          [None]) *)
  flightrec_dir : string option;
      (** where black-box dumps land, including one at shutdown
          (reason [shutdown]); [None] records but never dumps (default
          [None]) *)
  heatmap_cap : int;
      (** distinct cache lines each worker's hot-line table tracks;
          [0] disables the heatmap entirely (default 0) *)
}

val default_config : socket:string -> config

val stream_interval : float
(** Seconds between metrics-file writes, and between a follower's
    polls ({!Client.stats_follow}) (1.0). *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  make_sink:(heatmap:Obs.Heatmap.t -> Pmtrace.Sink.t) ->
  config ->
  t
(** Binds and listens on [socket_path] (a stale socket file left by a
    dead daemon is detected and replaced; a live daemon on the path is
    an error). [make_sink ~heatmap] runs once per session on the worker
    domain and must build a fresh, unshared sink; [heatmap] is the
    worker's hot-line table (disabled unless [heatmap_cap] > 0) — hand
    it to the detector or ignore it. When [metrics] is enabled the pool
    gives every worker its own registry (see {!Pool.create}) —
    worker-side telemetry never goes through the sink, so reports stay
    byte-identical to an offline replay.
    @raise Invalid_argument if [workers < 1], if [flightrec_dir] is
    not a directory or if [metrics_file]'s directory does not exist,
    before anything is bound. *)

val run : t -> unit
(** Serve until stopped; drains sessions, stops workers, writes the
    final metrics file and the shutdown dump, closes and unlinks the
    socket before returning (also on exception). *)

val request_stop : t -> unit
(** Trigger graceful shutdown from a signal handler or another domain
    (self-pipe; safe to call repeatedly). *)

val request_dump : t -> unit
(** Ask the dispatch loop to dump the flight recorder (reason
    [sigquit]) without stopping; a no-op when [flightrec_dir] is
    unset. *)

val install_signal_handlers : t -> unit
(** Route SIGTERM and SIGINT to {!request_stop}, SIGQUIT to
    {!request_dump}. *)
