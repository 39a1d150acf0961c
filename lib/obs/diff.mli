(** Metrics diff engine: compare two {!Metrics.snapshot}s and gate CI
    on threshold-crossing counter regressions ([pmdb stats --diff]).

    A diff is a canonical (name, labels)-ordered list of changes; two
    identical snapshots diff to the empty list, so a self-diff is
    always clean. Regression gating considers counters only: for a
    seeded deterministic workload they reproduce exactly run-to-run,
    while gauges and latency histograms vary with machine load and
    would make a CI gate flaky. *)

type change_kind = Added | Removed | Changed

type change = {
  d_name : string;
  d_labels : Metrics.labels;
  d_kind : change_kind;
  d_before : Metrics.value_view option;  (** [None] for {!Added} *)
  d_after : Metrics.value_view option;  (** [None] for {!Removed} *)
}

type t = change list
(** Sorted by (name, labels), like the snapshots it came from. *)

val compute : before:Metrics.snapshot -> after:Metrics.snapshot -> t
(** Merge-walk both snapshots; series with structurally equal values
    are omitted. *)

val is_empty : t -> bool

val regressions : ?threshold:float -> ?gauge_threshold:float -> t -> change list
(** Counter series whose value grew by more than [threshold] (relative,
    default 0.0 = any increase) — [(after - before) / max 1 before >
    threshold] — plus counters added with a positive value.

    Gauges never gate by default (most are timing-dependent), but
    deterministic capacity peaks such as [space_array_live_peak] or
    [space_tree_size_peak] can be opted in: with
    [gauge_threshold] set, gauge series that grew by more than that
    relative threshold — [(after - before) / max 1.0 before >
    gauge_threshold] — and gauges added with a positive value also
    gate. Histograms never gate. *)

val to_rows : t -> string list list
(** One row per change for {!Harness.Table}: columns
    [metric; labels; change; before; after; delta]. *)

val rows_header : string list

val pp_change : Format.formatter -> change -> unit
