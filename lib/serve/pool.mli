(** Bounded worker pool multiplexing per-session detectors over OCaml
    Domains.

    Sessions are sticky: session [id] always runs on worker
    [id mod workers], so detector state never crosses domains. The
    daemon's single dispatch domain is the one producer of every
    worker's SPSC queue; each worker hosts its sessions' engines
    (one {!Pmtrace.Engine.open_one} engine per session, created on the
    worker at [open_session]) and publishes results through the session's
    {!slot} — a pair of atomics the dispatch domain polls.

    Fault containment: a detector exception, in [make_sink] included, is
    caught by the session's engine (sink quarantine) and surfaces in
    [failed]; finishing the session yields a report with the failure.
    Sibling sessions on the same worker are untouched. A worker domain
    that somehow dies closes its queue, so submissions raise
    {!Pmtrace.Spsc.Closed} rather than wedging the daemon. *)

open Pmtrace

type t

type slot
(** Cross-domain result cell for one session. *)

val failed : slot -> string option
(** Set as soon as the session's detector raised (the engine
    quarantined it); the daemon polls this to fail fast instead of
    streaming the rest of the trace into a dead detector. *)

val result : slot -> Bug.report option
(** Set when the worker has finished the session (after
    [finish_session]); the report's [failure] field carries any
    quarantine. *)

val create :
  ?worker_metrics:bool
    (** default false: give each worker its own enabled
        {!Obs.Metrics} registry recording
        [serve_worker_sessions_total{domain}],
        [serve_worker_events_total{domain}] and
        [serve_worker_finishes_total{domain}]; immutable snapshots are
        published through an atomic on every open/finish and every 512
        events, so the dispatch domain can fold live worker truth into
        {!Obs.Metrics.merge}d stats without sharing a registry across
        domains. *) ->
  ?flightrec_capacity:int
    (** when given, each worker records into its own
        {!Obs.Flightrec} ring of this capacity (engine dispatch with
        virtual seq timestamps); see {!flightrec_rings}. Default:
        disabled rings. *) ->
  ?heatmap_cap:int
    (** when given, each worker owns an enabled {!Obs.Heatmap} of this
        cap, handed to [make_sink] so the session detectors feed it;
        see {!heatmap_snapshots}. Default: the disabled table. *) ->
  workers:int ->
  queue_capacity:int ->
  (heatmap:Obs.Heatmap.t -> Sink.t) ->
  t
(** [make_sink ~heatmap] is called once per session {e on the worker
    domain}; it must build a fresh, unshared sink. [heatmap] is the
    worker's hot-line table (the disabled singleton unless
    [heatmap_cap] was given) — pass it to the detector, or ignore it.
    It is shared by every session on that worker: hot lines are a
    whole-daemon property, and the table is only ever mutated on the
    worker's own domain. Worker-side telemetry comes from
    [worker_metrics], not the sink — per-session reports stay
    byte-identical to an offline replay. *)

val open_session : t -> id:int -> slot
(** Blocking (the Open message must land). *)

val submit : t -> id:int -> Event.t -> unit
(** Blocking while the worker's queue is full; raises
    {!Pmtrace.Spsc.Closed} if the worker died. *)

val try_submit : t -> id:int -> Event.t -> bool
(** [false] when the worker's queue is full — the backpressure signal;
    never blocks. *)

val finish_session : t -> id:int -> unit
(** Ask the worker to finish the session's engine ({!Pmtrace.Engine.finish_one})
    and publish the report into the slot. Blocking push. *)

val queue_length : t -> id:int -> int
(** Occupancy of the worker queue serving [id]. *)

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
    without a report — finish them first for a graceful drain. *)
