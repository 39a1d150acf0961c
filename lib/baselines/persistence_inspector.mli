(** Persistence-Inspector-style baseline (the "Persist. Ins." row of
    Table 1): Intel Inspector's PM analysis.

    Domain-restricted to PMDK applications: analysis activates only
    once transactional markers appear in the stream, and tracks the
    locations those transactions touch. Within that domain it finds
    missing writebacks/fences, overwrites of unpersisted data and
    redundant writebacks; it knows nothing of relaxed-model rules, and
    its per-store history bookkeeping gives it the "high overhead"
    classification the paper assigns. *)

type t

val create : unit -> t

val sink : t -> Pmtrace.Sink.t

val active : t -> bool
(** Whether PMDK markers were seen (analysis engaged). *)
