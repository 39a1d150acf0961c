(** Always-on flight recorder: a fixed-capacity ring buffer of recent
    structured events — the daemon's black box. When a session is
    quarantined, evicted, or the daemon gets [SIGQUIT], the last-N
    window is dumped (JSON here, Perfetto through {!Tracecat.merge}) so
    the evidence of what the tool was doing survives the failure.

    Design constraints, in order:

    - The recording path allocates nothing: parallel arrays (a record
      mixing float and int fields would box the float on every write),
      caller-supplied timestamps, required labelled int arguments.
    - A disabled ring costs exactly one branch per {!record} call, like
      {!Metrics} — the engine dispatch hot path carries the hook
      unconditionally, and the bench overhead guard pins it.
    - Single-domain by design: a ring is mutated only by the domain
      that owns it. Multi-domain components (the serve {!Pool}) give
      each worker its own ring and dump them side by side.

    Entry shape: a [cat] (e.g. ["dispatch"], ["session"],
    ["backpressure"], ["quarantine"]), a [name] within the category, a
    float timestamp (wall clock in the daemon, virtual seq time in the
    engine), and two small ints [a]/[b] whose meaning is
    per-category — for ["session"] entries [a] is the session id and
    [b] = 1 marks a terminal transition. *)

type t

val create : ?capacity:int (** default 512 *) -> unit -> t
(** A recording ring. Raises [Invalid_argument] if [capacity < 1]. *)

val disabled : t
(** A shared always-off ring: the default for instrumented components. *)

val is_on : t -> bool
(** Guard for call sites that would otherwise compute arguments — the
    idiomatic hot-path form is
    [if Flightrec.is_on r then Flightrec.record r ~ts ...]. *)

val capacity : t -> int

val recorded : t -> int
(** Total records ever (not capped at capacity). *)

val clear : t -> unit
(** Forget everything; the capacity is kept. *)

val record : t -> ts:float -> cat:string -> name:string -> a:int -> b:int -> unit
(** Append one entry, overwriting the oldest once the ring is full.
    One branch and no allocation when the ring is disabled. *)

(** {1 Reading} *)

type entry = {
  e_seq : int;  (** global record index, 0-based; survives wrap-around *)
  e_ts : float;
  e_cat : string;
  e_name : string;
  e_a : int;
  e_b : int;
}

val window : ?last:int -> t -> entry list
(** The most recent [last] entries (default: everything still in the
    ring), oldest first. *)

(** {1 Dumps} *)

val schema_id : string
(** ["pmdb-flightrec/v1"]. *)

val dump_to_json : ?last:int -> ?meta:(string * Json.t) list -> (string * t) list -> Json.t
(** Dump one or more labelled rings
    ([("dispatch", ring); ("worker-0", ring); ...]) as one document:
    [{"schema": "pmdb-flightrec/v1", "meta": {...}, "rings": [...]}].
    [meta] carries dump context — the quarantine reason, the failing
    session's name. *)

val validate_json : Json.t -> (int, string) result
(** Structural check of a {!dump_to_json} document; returns the total
    entry count across rings. *)
