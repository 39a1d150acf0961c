(** Zero-dependency metrics registry: counters, gauges and fixed-bucket
    histograms, each optionally carrying labels.

    Design constraints, in order:

    - A disabled registry costs exactly one branch per record call
      ({!inc}/{!set}/{!max_set}/{!observe} return immediately), so every
      layer of the pipeline can be instrumented unconditionally — the
      bench regression test guards that the Nulgrind slowdown is
      unchanged when metrics are off.
    - Snapshots are deterministic: series sort by (name, labels) and two
      snapshots of the same state render to identical JSON.
    - Labels with the same key/value pairs merge into one series no
      matter the order they were supplied in.

    Metric naming scheme (see DESIGN.md "Observability"):
    [<component>_<what>_total] for counters, [<component>_<what>_peak]
    for high-water gauges, [<component>_<what>_seconds] for latency
    histograms. *)

type labels = (string * string) list

type t
(** A registry. Single-domain by design: a registry is mutated only by
    the domain that owns it (the engine itself is single-threaded, as
    the paper's Valgrind host serializes threads). Multi-domain
    components give each domain its own registry and fold the
    {!snapshot}s with {!merge} — never share one registry across
    domains. *)

val create : unit -> t
(** A recording registry. *)

val disabled : t
(** A shared always-off registry: the default for every instrumented
    component, so recording costs one branch and allocates nothing. *)

val is_on : t -> bool

val clear : t -> unit
(** Drop every series. *)

(** {1 Recording} *)

val inc : t -> ?labels:labels -> ?by:int -> string -> unit
(** Add [by] (default 1) to a counter, creating it at zero first.
    [inc ~by:0] declares a series so it appears in snapshots. *)

val set : t -> ?labels:labels -> string -> float -> unit
(** Set a gauge. *)

val max_set : t -> ?labels:labels -> string -> float -> unit
(** Raise a gauge to [v] if [v] is larger — peak/high-water tracking. *)

val observe : t -> ?labels:labels -> ?bounds:float array -> string -> float -> unit
(** Record one histogram observation. [bounds] (strictly increasing
    bucket upper limits; an overflow bucket is implicit) is fixed by the
    first observation of a series; default {!latency_bounds}. *)

val latency_bounds : float array
(** Default buckets for dispatch-latency histograms: 100ns … 1s,
    roughly logarithmic. *)

(** {1 Standalone histograms}

    The same fixed-bucket histogram outside a registry, for callers
    that aggregate locally (e.g. {!Harness.Timing}'s per-event dispatch
    profile) and want quantiles without naming a series. *)

type hist

val hist_create : ?bounds:float array -> unit -> hist

val hist_observe : hist -> float -> unit

type hist_view = {
  h_bounds : float array;
  h_counts : int array;  (** length [Array.length h_bounds + 1]; last is overflow *)
  h_sum : float;
  h_count : int;
  h_max : float;  (** largest observation (0.0 when empty) *)
}

val hist_view : hist -> hist_view
(** A deep copy: later observations do not mutate the view. *)

val quantile : hist_view -> float -> float
(** [quantile v q] for [q] in [0,1], linearly interpolated inside the
    winning bucket — including the overflow bucket, whose upper edge is
    the observed max ([h_max]), so a p99 past the last bound no longer
    snaps to the bound verbatim. Every bucket's upper edge is clamped to
    [h_max], so no quantile exceeds the largest observation. [0.0] on an
    empty histogram. *)

(** {1 Snapshots} *)

type value_view = V_counter of int | V_gauge of float | V_hist of hist_view

type sample = { name : string; labels : labels; value : value_view }

type snapshot = sample list
(** Sorted by (name, labels); labels sorted by key. *)

val snapshot : t -> snapshot

val merge : snapshot list -> snapshot
(** Deterministic multi-registry merge — how per-domain registries
    (the daemon's worker pool) fold into one whole-process truth:
    counters sum, gauges keep the max (all gauges here are peaks),
    histograms add bucket-wise. Commutative and associative, so the
    result is independent of snapshot order, and sorted like
    {!snapshot} so it renders to identical JSON every time. Raises
    [Invalid_argument] if one (name, labels) key appears with two
    different kinds or with histograms whose bucket bounds differ —
    that is a naming-contract bug between registries, not data. *)

val find : snapshot -> ?labels:labels -> string -> value_view option

val counter_value : snapshot -> ?labels:labels -> string -> int
(** 0 when the series does not exist or is not a counter. *)

val to_rows : snapshot -> string list list
(** One row per series for {!Harness.Table}: columns
    [metric; labels; type; value] (histograms summarize as
    count/sum/p50/p95). *)

val rows_header : string list

val labels_str : labels -> string
(** ["k1=v1,k2=v2"] (empty string for no labels). *)

val to_json : t -> Json.t
(** [{"schema": "pmdb-metrics/v1", "metrics": [...]}] — the stable
    machine-readable export ([pmdb run --metrics FILE] and the bench's
    telemetry section). *)

val snapshot_to_json : snapshot -> Json.t

val validate_json : Json.t -> (int, string) result
(** Schema check for a {!to_json} document (or the ["telemetry"] member
    of a bench report): returns the number of series on success.
    Rejects duplicate (name, labels) series — a snapshot holds one
    series per key, so duplicates mean a corrupt or hand-edited file
    (reported as ["metrics JSON: series N: duplicate series ..."]). *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Parse a {!to_json} document back into a snapshot (validating it
    first) — the input side of [pmdb stats --diff]. Round-trips with
    {!snapshot_to_json} up to float formatting. *)
