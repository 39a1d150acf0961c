(** Chrome trace-event JSON builder — the ["traceEvents"] array format
    that ui.perfetto.dev and chrome://tracing load directly.

    The builder is generic over what the events mean; the harness maps
    engine traces onto it (per-cache-line persistency-state timelines,
    dispatch spans). Timestamps and durations are integers in
    microseconds of {e virtual} time — callers use the event sequence
    number, so the output is deterministic and golden-testable.

    Events render in emit order with a fixed field order per event
    ([name, cat?, ph, ts, ...]), so the same build sequence always
    produces byte-identical JSON via {!Json.to_string}. *)

type t

val create : unit -> t

val length : t -> int
(** Events emitted so far. *)

(** {1 Emitting}

    [pid]/[tid] default to 0. Perfetto groups tracks by (pid, tid);
    name them with {!process_name} / {!thread_name}. *)

val complete :
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * Json.t) list ->
  t ->
  name:string ->
  ts:int ->
  dur:int ->
  unit
(** A duration slice (phase ["X"]); [dur] is clamped to [>= 0]. *)

val instant :
  ?cat:string -> ?pid:int -> ?tid:int -> ?args:(string * Json.t) list -> t -> name:string -> ts:int -> unit
(** A thread-scoped instant marker (phase ["i"]). *)

val begin_slice :
  ?cat:string -> ?pid:int -> ?tid:int -> ?args:(string * Json.t) list -> t -> name:string -> ts:int -> unit
(** Open a nested duration slice (phase ["B"]). Pair with
    {!end_slice} on the same (pid, tid); an unmatched begin renders as
    an open-ended slice — how the flight recorder draws a session that
    was still in flight when the window was dumped. *)

val end_slice :
  ?cat:string -> ?pid:int -> ?tid:int -> ?args:(string * Json.t) list -> t -> name:string -> ts:int -> unit
(** Close the innermost open slice on (pid, tid) (phase ["E"]). *)

val counter : ?pid:int -> ?tid:int -> t -> name:string -> ts:int -> series:(string * int) list -> unit
(** A counter sample (phase ["C"]); each series becomes one stacked
    band in the counter track. *)

val process_name : ?pid:int -> t -> string -> unit
(** Metadata event naming a process (top-level track group). *)

val thread_name : ?pid:int -> ?tid:int -> t -> string -> unit
(** Metadata event naming a thread (one track). *)

val to_json : ?metadata:(string * Json.t) list -> t -> Json.t
(** [{"traceEvents": [...]}] in emit order, plus a ["metadata"] object
    when [metadata] is non-empty (ignored by viewers and by
    {!validate_json}, which only checks [traceEvents]). *)

val validate_json : Json.t -> (int, string) result
(** Structural check of a trace-event document: every event has a
    name, a known phase, a non-negative integer [ts] (and [dur] for
    complete events), integer [pid]/[tid], and well-formed [args].
    Returns the event count. *)
