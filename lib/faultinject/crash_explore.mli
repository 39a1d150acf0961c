(** Crash-point exploration.

    The detector's cross-failure rule checks crash images only at
    fences ([crash_check_every_fence]). A machine can lose power at
    {e any} instruction boundary, and an inconsistency window can open
    after a store and close again at the next fence — invisible to
    fence-only sampling. This explorer replays a step trace forward
    into a fresh {!Pmem.State}, checks the possible durable images at
    store/CLF/fence boundaries against the workload's recovery
    predicate ({!Pmem.State.check_crash_images}, the same check the
    detector runs), and reports the exact event index of every boundary
    where some image fails recovery.

    {!exhaustive} visits every boundary in trace order; it is the order
    [pmdb crash-explore] runs, and the minimal failing prefix is the
    first failure of its walk. {!guided} ranks boundaries by
    inferred-invariant risk ({!Infer.Risk}) and spends an image budget
    on the plan highest-risk first. It stays as a measured baseline
    only: an image costs a few microseconds, and on every input
    measured (EXPERIMENTS.md) exhaustive reached the first failure
    sooner. {!run} is the only walk over a plan. *)

type boundaries =
  | Every_op  (** check after every store, CLF and fence *)
  | Fences_only  (** check only after fences (the legacy sampling) *)

type failure = {
  index : int;  (** index into the step trace of the failing boundary *)
  step : Replay.step;  (** the event just applied when the crash is taken *)
  failing_images : int;
  images_checked : int;
}

type result = {
  boundaries_checked : int;
  images_checked : int;  (** total crash images derived and tested *)
  failures : failure list;  (** in trace order *)
}

(** {1 Plans} *)

type plan = {
  steps : Replay.step array;
  boundary_kind : boundaries;
  boundary_indexes : int array;  (** step indexes of eligible boundaries, ascending *)
  boundary_events : int array;  (** event index of each boundary (for risk lookup) *)
  max_images : int;  (** images sampled per boundary *)
  budget : int option;  (** total image cap across the whole run *)
  invariants : Infer.Invariant.report option;  (** pre-computed invariants for {!guided} *)
}

val make_plan :
  ?boundaries:boundaries ->
  ?max_images:int ->
  ?budget:int ->
  ?invariants:Infer.Invariant.report ->
  Replay.step array ->
  plan
(** [max_images] (default 64) is the hard cap on images checked per
    boundary; [budget] caps the whole run.
    @raise Invalid_argument if [max_images < 1]. *)

val plan_events : plan -> Pmtrace.Event.t array
(** The event projection of the plan's steps. *)

val plan_invariants : plan -> Infer.Invariant.report
(** The plan's invariant report, inferring one from the steps' event
    projection when none was supplied. *)

(** {1 Strategies} *)

type strategy
(** Which boundaries a run visits, and in what order. *)

val exhaustive : strategy
(** Every boundary, trace order. *)

val guided : strategy
(** Boundaries ordered by descending invariant risk (inferring
    invariants from the plan when it carries none); ties and zero-risk
    boundaries keep trace order, so an unbounded guided run covers
    exactly the exhaustive boundary set. *)

(** {1 Driver} *)

type outcome = {
  result : result;
  scheduled : int;  (** boundaries in the strategy's schedule *)
  explored : int;  (** boundaries actually checked *)
  skipped : int;  (** scheduled boundaries the image budget cut *)
}

val run :
  ?stop_at_first:bool ->
  ?metrics:Obs.Metrics.t ->
  recovery:(Pmem.Image.t -> bool) ->
  plan ->
  strategy ->
  outcome
(** Runs the plan under the strategy. Trace-ordered schedules execute as
    a single forward replay. Risk-ordered schedules replay forward
    twice: the first walk records each boundary's undrained-line count,
    from which {!Pmem.State.crash_image_count} gives its image count, so
    the budget is spent in risk order before any image is derived; the
    second walk checks the chosen boundaries in trace order, and
    [stop_at_first] then cuts the risk order at its first failure. The
    outcome is the one a fresh prefix replay per boundary, in risk
    order, would give. The plan's [budget] bounds total images derived
    across the run (the last boundary's sample is truncated to the
    remainder, so a budget of [N] never derives more than [N] images).
    [stop_at_first] ends the run at its first failing boundary.
    [result.failures] is always in trace order. [metrics] receives
    [crash_explore_prefixes_replayed_total],
    [crash_explore_images_tested_total], [explore_bugs_found_total] and
    [explore_skipped_low_risk_total]. *)

(** {1 Minimal failing prefix} *)

val minimal_failing_prefix :
  ?max_images:int -> ?metrics:Obs.Metrics.t -> recovery:(Pmem.Image.t -> bool) -> Replay.step array -> failure option
(** The first failure of [run ~stop_at_first:true] over the exhaustive
    [Every_op] plan: the shortest trace prefix after which some crash
    image fails recovery. Every boundary before it is checked, since an
    inconsistency window that a later fence closes makes failure
    non-monotone in the prefix length; no coarser pass can prove
    minimality with fewer checks. *)
