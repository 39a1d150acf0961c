(** Per-session ingest state machine — socket-free, so the protocol
    core (line framing, strict/lenient parsing, budget accounting,
    status transitions) is directly unit- and fuzz-testable.

    The daemon owns the lifecycle (its connection state machine walks
    a session from streaming through finishing to awaiting the
    worker's report); this module owns the data: the partial-line
    buffer, the bounded pending queue of parsed events and
    the byte accounting that the backpressure ladder and the memory
    budget read ({!live_bytes} = partial bytes + queued-event cost, so
    a budget in bytes bounds a client sending one enormous line just as
    well as one outrunning its worker). *)

open Pmtrace

type t

val create : id:int -> name:string -> lenient:bool -> now:float -> t

val id : t -> int
val name : t -> string
val lenient : t -> bool

val status : t -> Status.t
val error : t -> string option

val terminate : t -> Status.t -> string option -> unit
(** Record the session's terminal status; the first call wins (a
    session already quarantined keeps its original status). *)

val feed : t -> now:float -> Bytes.t -> off:int -> len:int -> (unit, string) result
(** Split the chunk into newline-framed lines and scan each in place
    with {!Trace_io.event_of_bytes}; only a line split across chunks is
    copied (into the partial-line buffer). Chunk boundaries are
    invisible: feeding
    byte-by-byte parses identically to feeding everything at once.
    Strict sessions return [Error "line N: ..."] at the first malformed
    line (and set the status to [Trace_error]); lenient sessions skip
    and count it. *)

val flush_partial : t -> (unit, string) result
(** Parse the final unterminated line, if any (called at client EOF,
    matching the file parsers' treatment of a missing trailing
    newline). *)

val peek_pending : t -> Event.t option
(** The next parsed event, without consuming it — the daemon peeks,
    offers it to the worker with a non-blocking submit, and only pops
    on success, so a full worker queue never loses an event. *)

val pop_pending : t -> Event.t option
(** Take the next parsed event for delivery to the worker. *)

val pending_events : t -> int

val drop_pending : t -> unit
(** Discard undelivered events and the partial line (eviction path). *)

val ensure_end : t -> unit
(** Queue a synthesized [Program_end] unless the stream already carried
    one, so end-of-trace rules fire for truncated sessions — the same
    semantics as lenient replay. *)

val live_bytes : t -> int
(** Bytes this session holds in the daemon: partial line + pending
    queue cost. The per-session budget gates on this. *)

val events_delivered : t -> int
val skipped : t -> int
val bytes_read : t -> int
val synthesized_end : t -> bool
val last_activity : t -> float

val created : t -> float
(** The [now] given to {!create} — the daemon clock at accept. The
    daemon observes [now - created] into [serve_session_e2e_seconds]
    when the result frame is written (submit → result latency). *)
