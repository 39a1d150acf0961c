(** PMDebugger — the paper's detector, assembled from the bookkeeping
    space (§4), the nine generalized detection rules (§4.5, §5.2) and
    the relaxed-model extensions (§5.1).

    Construct with the target persistency model; the default rule set
    follows the paper (e.g. multiple-overwrites is disabled under
    relaxed models, where overwriting before durability is legal). The
    detector is exposed as a {!Pmtrace.Sink.t} so it attaches to the
    instrumentation engine or to a trace replay identically. *)

type model = Strict | Epoch | Strand

type rule_set = {
  no_durability : bool;
  multiple_overwrites : bool;
  no_order_guarantee : bool;
  redundant_flush : bool;
  flush_nothing : bool;
  redundant_logging : bool;
  lack_durability_in_epoch : bool;
  redundant_epoch_fence : bool;
  lack_ordering_in_strands : bool;
  cross_failure : bool;
}

val default_rules : model -> rule_set

val all_rules_off : rule_set

type t

val create :
  ?model:model (** default [Strict] *) ->
  ?rules:rule_set (** default [default_rules model] *) ->
  ?config:Order_config.t ->
  ?array_capacity:int ->
  ?merge_threshold:int ->
  ?mode:Space.mode ->
  ?interval_metadata:bool
    (** these four knobs configure every {!Space.create} the detector
        makes (one space, or one per strand section) *) ->
  ?pm:Pmem.State.t (** live PM state, required for cross-failure checks *) ->
  ?recovery:(Pmem.Image.t -> bool) ->
  ?crash_check_every_fence:bool (** default false: check at program end only *) ->
  ?max_bugs_per_kind:int (** default 1000 *) ->
  ?walk_dedup:bool
    (** default [true]. [false] — required for shard workers — makes the
        pending-location walks (program end, epoch end) report every
        pending entry, bypassing the per-(kind, addr) dedup and the
        per-kind cap: line clipping moves finding addresses, so only the
        router's merge, which rejoins the clipped pieces, can replicate
        the single-shard dedup decisions. *) ->
  ?metrics:Obs.Metrics.t ->
  ?heatmap:Obs.Heatmap.t ->
  unit ->
  t
(** [metrics] (default disabled) is shared with every bookkeeping space
    the detector creates and receives
    [detector_rule_fires_total{rule}] (pre-declared at zero for all ten
    rules), [detector_bugs_suppressed_total{rule}] (findings dropped by
    [max_bugs_per_kind]) and [detector_crash_checks_total].

    [heatmap] (default disabled) receives per-cache-line accounting:
    one {!Obs.Heatmap.on_store}/[on_clf] per line an owner (non-silent)
    store/CLF touches, one [on_bug] per admitted finding with a real
    address, and line names from [Register_var] events. One branch per
    event when disabled; an allocation-free line loop when enabled.
    Sharded runs (silent replicas skipped) count owner traffic only —
    stall-path scans may count a spanning event once per scanning
    shard, so sharded heatmaps are approximate on barrier events. *)

val sink : t -> Pmtrace.Sink.t

val report : t -> Pmtrace.Bug.report
(** Current report (also returned by the sink's [finish]). *)

val worker : t -> Pmtrace.Shard_router.worker
(** This detector as one shard of the sharded pipeline: pass
    [fun _ -> Detector.worker (Detector.create ~walk_dedup:false ...)]
    to {!Pmtrace.Shard_router.sink}. Each shard needs its own detector
    (with its own spaces) created with [~walk_dedup:false] — the merge
    performs the pending-walk dedup globally — and with disabled
    [metrics]: a registry is not safe to share across shard domains. *)

val avg_tree_nodes_per_fence : t -> float
(** Fig. 11 metric, averaged over all spaces weighted by samples. *)

val reorganizations : t -> int
