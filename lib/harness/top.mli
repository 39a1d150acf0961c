(** The [pmdb top] dashboard renderer: a merged daemon metrics snapshot
    in, a multi-line text frame out.

    Pure by design — the CLI owns the polling of the daemon's [stats],
    the refresh cadence and the terminal (clear + redraw when interactive),
    so the layout is unit-testable against synthetic snapshots. Rates
    derive from counter deltas between [prev] and [cur]; quantiles come
    from the snapshot's histogram buckets ({!Obs.Metrics.quantile});
    series the daemon does not record render as ["-"]. *)

val render : prev:Obs.Metrics.snapshot option -> cur:Obs.Metrics.snapshot -> dt:float -> string
(** [render ~prev ~cur ~dt] — [prev] is the previous frame ([None] on
    the first: absolute values only, no rates), [dt] the seconds
    between the two frames. *)
