(** Replayable step traces.

    The plain {!Pmtrace.Event.t} stream is enough for the rule-based
    detectors, but crash-point exploration must rebuild actual PM
    contents, which [Store] events do not carry. A [step] augments the
    event stream with captured store payloads and with
    environment-injected actions (spontaneous evictions) that detectors
    must not see. *)

open Pmtrace

type step =
  | Ev of Event.t  (** plain event; a payloadless [Store] replays with a synthetic fill *)
  | Store_data of { addr : int; data : bytes; tid : int }
      (** a store with its captured payload *)
  | Evict of { line : int }
      (** injected spontaneous eviction — applied to the PM state during
          replay but invisible to detectors *)

val capture : (Engine.t -> unit) -> step array
(** Run a program on a fresh engine, recording every event and snapping
    each store's payload from the volatile image. Appends a
    [Program_end] step when the last event does not pass
    {!Trace_io.ends_trace}: the end rule of a lenient trace read. *)

val apply : Pmem.State.t -> step -> unit
(** Apply one step to a persistency state: stores write (captured or
    synthetic) bytes, CLFs writeback, fences drain, evictions persist a
    line directly. Non-memory events are no-ops. *)

val event_of_step : step -> Event.t option
(** [None] only for [Evict]. *)

val events_of_steps : step array -> Event.t array
(** Project to the detector-visible event stream (evictions dropped). *)

val materialize_file : string -> (step array * Trace_io.stream_stats, string) result
(** Load a trace file into a step array (lenient parse: skipped lines
    are reported in the stats, and the end rule applies). This is the {e explicit} materialization
    point for crash-point exploration, which passes over a trace several
    times (invariant inference, risk scoring, up to two forward walks)
    — stream with {!Trace_io.iter_file}
    instead wherever events can be consumed one at a time. Stores carry
    no payload in the on-disk format, so they replay with the synthetic
    fill. *)

val is_store : step -> bool
val is_clf : step -> bool
val is_fence : step -> bool

val pp : Format.formatter -> step -> unit
