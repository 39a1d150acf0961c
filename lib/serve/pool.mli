(** Bounded worker pool running daemon sessions on OCaml Domains.

    A session runs on its worker as [pmdb replay] runs on a file: the
    worker decodes the bytes it is sent with the session's {!Session}
    straight into the session's engine ({!Pmtrace.Engine.open_one},
    created on the worker). The daemon's dispatch domain posts to each
    worker's mailbox (a mutex, a condition and a queue), where an idle
    worker sleeps until a message comes. Sessions are sticky: session
    [id] always runs on worker [id mod workers], so detector state never
    crosses domains.

    A session's {!slot} is its cross-domain cell. The worker publishes
    the {!outcome} there when the session ends: at the client's end of
    input, at the daemon's cut, or on its own at a strict parse error,
    past its budget, or at a detector quarantine (a detector exception,
    in [make_sink] included, is caught by the session's engine). After
    that the worker feeds the session nothing more; its siblings are
    untouched. A worker domain that somehow dies closes its mailbox, so
    {!offer} and {!open_session} raise {!Closed} rather than wedging
    the daemon. *)

open Pmtrace

type t

exception Closed
(** The session's worker has exited. *)

type outcome = {
  status : Status.t;  (** the first terminal status, [Ok] for a clean end *)
  error : string option;
  report : Bug.report;  (** its [failure] field carries any quarantine *)
  skipped_lines : (int * string) list;  (** (line, error) per skipped line *)
  synthesized_end : bool;  (** the end rule appended a [program_end] *)
}

type slot
(** Cross-domain cell for one session. *)

val result : slot -> outcome option
(** Set once, when the worker has finished the session's engine. *)

val in_flight : slot -> int
(** Bytes offered to the session and not yet decoded. *)

val queued : slot -> int
(** Chunks offered to the session and not yet decoded. *)

val events : slot -> int
(** Events the session has decoded so far. *)

val create :
  ?worker_metrics:bool
    (** default false: give each worker its own enabled
        {!Obs.Metrics} registry recording [serve_events_total] and
        [serve_worker_{sessions,events,finishes,bytes}_total{domain}]
        (bytes: every chunk byte taken off the queue); snapshots are
        published through an atomic on every open and finish and every
        512 events, so the dispatch domain folds live worker truth into
        {!Obs.Metrics.merge}d stats without sharing a registry. *) ->
  ?flightrec_capacity:int
    (** when given, each worker records into its own
        {!Obs.Flightrec} ring of this capacity (engine dispatch with
        virtual seq timestamps); see {!flightrec_rings}. Default:
        disabled rings. *) ->
  ?heatmap_cap:int
    (** when given, each worker owns an enabled {!Obs.Heatmap} of this
        cap, handed to [make_sink] so the session detectors feed it;
        see {!heatmap_snapshots}. Default: the disabled table. *) ->
  wake:(unit -> unit)
    (** called on a worker domain when a session's outcome lands, when
        its bytes in flight fall back under [session_budget], and when
        the worker takes a message from a mailbox {!offer} found full *) ->
  workers:int ->
  session_budget:int ->
  (heatmap:Obs.Heatmap.t -> Sink.t) ->
  t
(** [make_sink ~heatmap] is called once per session {e on the worker
    domain}; it must build a fresh, unshared sink. [heatmap] is the
    worker's hot-line table (the disabled singleton unless
    [heatmap_cap] was given), shared by every session on that worker —
    pass it to the detector, or ignore it. Worker-side telemetry comes
    from [worker_metrics], not the sink, so per-session reports stay
    byte-identical to an offline replay. [session_budget] is each
    {!Session}'s budget. *)

val open_session : t -> id:int -> lenient:bool -> slot
(** Never blocks: the open message lands even in a full mailbox.
    Raises {!Closed} if the worker died. *)

type input =
  | Chunk of Bytes.t  (** the next bytes of the trace; the worker owns them *)
  | End  (** the client's end of input ({!Session.finish}) *)
  | Cut of Status.t * string option  (** the daemon ends the session ({!Session.cut_short}) *)

val offer : t -> slot -> input -> bool
(** Non-blocking: [false] when the worker's mailbox holds 256 messages,
    and nothing was sent; the worker then calls [wake] when it next
    makes room. Raises {!Closed} if the worker died. *)

val metrics_snapshots : t -> Obs.Metrics.snapshot list
(** One snapshot per worker: the last atomically-published snapshot (at
    most 512 events stale; exact after {!stop}). Fold with {!Obs.Metrics.merge}. Empty
    snapshots unless [worker_metrics] was set. *)

val heatmap_snapshots : t -> Obs.Heatmap.snapshot list
(** One snapshot per worker, published on the same cadence as
    {!metrics_snapshots}. Fold with {!Obs.Heatmap.merge}.
    Empty snapshots unless [heatmap_cap] was given. *)

val flightrec_rings : t -> (string * Obs.Flightrec.t) list
(** The per-worker flight-recorder rings, labelled ["worker-<i>"], for
    {!Obs.Flightrec.dump_to_json}. Reading a ring while its worker is
    live is a benign data race (each entry read sees some
    previously-written value — memory-safe, possibly torn across
    fields): fine for a best-effort black-box dump, not for exact
    accounting. *)

val stop : t -> unit
(** Stop and join every worker. Sessions not yet finished are dropped
    without a report — end them first for a graceful drain. *)
