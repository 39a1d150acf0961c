(** XFDetector-style baseline: cross-failure bug detection by failure
    point enumeration.

    Maintains tree-based durability bookkeeping (like Pmemcheck) plus
    order-configuration checking, and — its defining feature — treats
    (a bounded number of) fences as failure points: at each one it
    re-processes the recorded pre-failure trace prefix and, when a live
    PM state and recovery predicate are supplied, runs post-failure
    recovery over sampled crash images. The prefix re-execution is what
    makes it orders of magnitude slower than PMDebugger (§7.2), and the
    failure-point cap is why it can still miss bugs (§7.4). Detects the
    six Table 6 kinds XFDetector supports. *)

type t

val create :
  ?max_failure_points:int (** default 200 *) ->
  ?config:Pmdebugger.Order_config.t ->
  ?pm:Pmem.State.t ->
  ?recovery:(Pmem.Image.t -> bool) ->
  unit ->
  t

val sink : t -> Pmtrace.Sink.t

val failure_points_used : t -> int
