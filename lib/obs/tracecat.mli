(** Daemon-wide causal Perfetto trace: every per-domain
    {!Flightrec} ring plus the coarse {!Span} phases folded into {e
    one} Chrome trace-event document on a shared time base.

    It is the one Perfetto renderer for flight-recorder rings: the
    daemon's black-box dumps and its causal traces both come from
    {!merge}. All rings share one origin (the earliest entry or span across
    everything) and each ring gets one thread track in list order.

    Each ring renders on its own track: [cat="session"] entries are
    grouped by session id ([a]) into lifecycle slices — consecutive
    transitions become complete slices, a terminal final entry ([b] =
    1) an instant, a non-terminal final entry an open
    {!Perfetto.begin_slice}; other categories render as instants
    carrying [a]/[b] as args. [spans] (e.g. {!Span.finished} of the CLI's
    run/finish/replay phases) draw on a final ["phases"] track as
    complete slices, so fine-grained domain activity reads against the
    overall timeline. *)

val merge :
  ?last:int ->
  ?spans:Span.finished list ->
  ?metadata:(string * Json.t) list ->
  (string * Flightrec.t) list ->
  Json.t
(** [merge rings] — one labelled track per ring, in order; passes
    {!Perfetto.validate_json}. [last] bounds the window taken from each
    ring; [metadata] lands in the document's ["metadata"] object
    (dump reason, time). *)
