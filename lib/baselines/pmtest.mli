(** PMTest-style baseline: fast, annotation-driven selective checking.

    Tracks only lightweight per-cache-line persistency state and checks
    durability/ordering/freshness exclusively at programmer-inserted
    assertion points ([Annotation] events). Redundant flushes and
    redundant transaction logging are detected natively. The price of
    the speed is coverage: any bug not covered by an annotation — and
    every epoch/strand/flush-nothing/cross-failure bug — is missed,
    reproducing the Table 6 row (5 kinds). *)

type t

val create : unit -> t

val sink : t -> Pmtrace.Sink.t

val annotations_seen : t -> int
