(** Per-session ingest state — socket-free, so the protocol core
    (decoding, budget accounting, status transitions) is directly unit-
    and fuzz-testable.

    The daemon owns the lifecycle (its connection state machine walks
    a session from streaming through finishing to awaiting the
    worker's report); this module owns the data: a
    {!Pmtrace.Trace_io.Decoder} — the same one file replays use, so a
    session frames, numbers, skips and ends its trace exactly as
    [pmdb replay] does on the same bytes — the bounded pending queue of
    decoded events, and the byte accounting that the backpressure
    ladder and the memory budget read ({!live_bytes} = the decoder's
    carried line + queued-event cost, so a budget in bytes bounds a
    client sending one enormous line just as well as one outrunning its
    worker). *)

open Pmtrace

type t

val create : id:int -> name:string -> lenient:bool -> now:float -> t

val id : t -> int
val name : t -> string

val status : t -> Status.t
val error : t -> string option

val terminate : t -> Status.t -> string option -> unit
(** Record the session's terminal status; the first call wins (a
    session already quarantined keeps its original status). *)

val feed : t -> now:float -> Bytes.t -> off:int -> len:int -> (unit, string) result
(** {!Trace_io.Decoder.feed}: chunk boundaries are invisible, and a
    strict session returns [Error "line N: ..."] at the first malformed
    line (and sets the status to [Trace_error]); a lenient one skips and
    counts it. *)

val finish : t -> (unit, string) result
(** The client's end of input: {!Trace_io.Decoder.finish} — the last
    unterminated line is decoded and, for a lenient session, the end
    rule applies. A strict session gets no [program_end], like a strict
    file replay. *)

val cut_short : t -> drop:bool -> unit
(** The daemon ends the session before its input did (eviction, idle
    timeout, shutdown, trace or detector quarantine, a connection
    error): with [drop], discard the undelivered events; then
    {!Trace_io.Decoder.truncate} drops the carried line and applies the
    end rule, so end-of-trace rules fire for the truncated stream. The
    rule reads the last {e decoded} event: a dropped [program_end]
    still counts. *)

val peek_pending : t -> Event.t option
(** The next decoded event, without consuming it — the daemon peeks,
    offers it to the worker with a non-blocking submit, and only pops
    on success, so a full worker queue never loses an event. *)

val pop_pending : t -> Event.t option
(** Take the next decoded event for delivery to the worker. *)

val pending_events : t -> int

val live_bytes : t -> int
(** Bytes this session holds in the daemon: carried line + pending
    queue cost. The per-session budget gates on this. *)

val events_delivered : t -> int
val skipped : t -> int
val synthesized_end : t -> bool
val last_activity : t -> float

val created : t -> float
(** The [now] given to {!create} — the daemon clock at accept. The
    daemon observes [now - created] into [serve_session_e2e_seconds]
    when the result frame is written (submit → result latency). *)
