(** The instrumentation engine — this repository's substitute for
    Valgrind.

    PM workloads are written against this API. Every operation updates
    the simulated PM persistency state ({!Pmem.State}) and, when
    instrumentation is enabled, forwards the corresponding {!Event} to
    every attached {!Sink}. Running a workload with instrumentation
    disabled gives the "native" execution time; attaching
    {!Sink.noop} gives the Nulgrind time; attaching a detector gives
    that tool's debugging time.

    The engine also provides the typed load/store accessors workloads
    use to implement real data structures in the simulated pool. Loads
    are not instrumented (the paper's tools intercept stores, CLF and
    fences only). *)

type t

val create : ?metrics:Obs.Metrics.t -> ?flightrec:Obs.Flightrec.t -> unit -> t
(** [metrics] (default the shared disabled registry) receives
    per-event-class dispatch counts and latencies
    ([engine_events_total{class}], [engine_dispatch_seconds{class}])
    and sink quarantine events
    ([engine_sinks_quarantined_total{sink}]). [flightrec] (default the
    shared disabled ring) records every dispatched event
    ([cat="dispatch"], virtual seq timestamps, [b] = address for
    stores/CLFs) and sink quarantines ([cat="quarantine"]). With both
    disabled the whole instrumentation costs one branch each per
    event. *)

val pm : t -> Pmem.State.t

val attach : t -> Sink.t -> unit
(** Constant-time; sinks receive events in attach order. *)

val detach_all : t -> unit

val sinks : t -> Sink.t list
(** Attached sinks in attach order (including quarantined ones). *)

val quarantined : t -> (string * string) list
(** [(sink name, exception text)] for every sink that raised from
    [on_event] or [finish] and was isolated. A quarantined sink stops
    receiving events; sibling sinks are unaffected. *)

val finish_all : t -> Bug.report list
(** Finish every attached sink and return their reports.

    {b Ordering guarantee.} The returned list is deterministic: one
    report per attached sink, in attach order, regardless of which
    sinks were quarantined or how each sink schedules its own work. In
    particular a {!Shard_router} sink contributes exactly one merged
    report at its own attach position, with its per-shard reports
    already folded in canonical order (sorted by
    {!Bug.compare_canonical}, then shard index as the tiebreak of the
    fold) — so drivers may rely on [List.nth (finish_all e) i]
    addressing the i-th attached sink stably. The shard merge and the
    regression tests rely on this.

    A sink whose [finish] raises yields an empty report instead of
    killing the run; any sink that was quarantined (during the run or
    at finish) gets the exception recorded in its report's [failure]
    field. *)

val open_one : ?metrics:Obs.Metrics.t -> ?flightrec:Obs.Flightrec.t -> (t -> Sink.t) -> t
(** A fresh engine carrying the one sink [make engine] builds. If
    [make] raises, the engine carries a sink named ["sink"],
    quarantined from the start with ["sink creation raised: <exn>"]. *)

val finish_one : t -> Bug.report
(** [finish_all] of an {!open_one} engine: its one report, any
    quarantine in [failure]. Never raises on such an engine. *)

val set_instrumentation : t -> bool -> unit
(** When off, events are not dispatched (PM semantics still apply). *)

val set_tid : t -> int -> unit
(** Thread id stamped on subsequent events (default 0). *)

val emit : t -> Event.t -> unit
(** Emit a raw event (used by annotation layers). *)

(** {1 Instrumented PM operations} *)

val store_bytes : t -> addr:int -> bytes -> unit
val store_i64 : t -> addr:int -> int64 -> unit
val store_int : t -> addr:int -> int -> unit
val store_u8 : t -> addr:int -> int -> unit
val store_string : t -> addr:int -> string -> unit

val clwb : t -> addr:int -> unit
(** Writeback of the cache line containing [addr]. *)

val clflush : t -> addr:int -> unit
val clflushopt : t -> addr:int -> unit

val flush_range : t -> addr:int -> size:int -> unit
(** CLWB every line of the range (one event per line, as the hardware
    instruction stream would contain). *)

val sfence : t -> unit

val persist : t -> addr:int -> size:int -> unit
(** [flush_range] followed by [sfence] — the PMDK persist idiom. *)

(** {1 Unintercepted loads} *)

val load_i64 : t -> addr:int -> int64
val load_int : t -> addr:int -> int
val load_u8 : t -> addr:int -> int
val load_string : t -> addr:int -> len:int -> string
val load_bytes : t -> addr:int -> len:int -> bytes

(** {1 Annotations (Table 2) and markers} *)

val register_pmem : t -> base:int -> size:int -> unit
val epoch_begin : t -> unit
val epoch_end : t -> unit
val strand_begin : t -> strand:int -> unit
val strand_end : t -> strand:int -> unit
val join_strand : t -> unit
val tx_log : t -> obj_addr:int -> size:int -> unit
val register_var : t -> name:string -> addr:int -> size:int -> unit
val call_marker : t -> func:string -> unit
val annotate : t -> Event.annotation -> unit
val program_end : t -> unit
