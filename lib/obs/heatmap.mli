(** Hot-line heatmap: a capped per-cache-line accounting table — where
    the PM traffic goes, how long lines stay dirty (in virtual seq
    time), where the findings cluster. The detector feeds it; [pmdb
    heatmap] renders the top-K lines as aligned text or JSON, locally
    or over the daemon socket.

    Observability contract (like {!Metrics} and {!Flightrec}):

    - a disabled table costs one branch per hook and allocates nothing;
    - single-domain by design — per-worker tables fold via
      {!snapshot}/{!merge};
    - bounded: once [cap] distinct lines are tracked, traffic on new
      lines counts into {!dropped} instead of growing the table. The
      heatmap is a top-K diagnostic, not exact accounting — [dropped]
      says how much fell off the edge.

    Dirty time: a store on a clean line opens a dirty interval at its
    seq; a CLF on the line closes it, adding the elapsed virtual seqs.
    A line still dirty at snapshot time is charged up to the latest
    event seen. This is write-back latency in {e virtual} time (event
    sequence numbers), deterministic for a given trace. *)

type t

val create : ?cap:int (** default 1024 *) -> unit -> t
(** A recording table. Raises [Invalid_argument] if [cap < 1]. *)

val disabled : t
(** Shared always-off table. *)

val is_on : t -> bool
val cap : t -> int

val tracked : t -> int
(** Distinct lines currently tracked (≤ [cap]). *)

val dropped : t -> int
(** Events that landed on untracked lines after the cap was hit. *)

val clear : t -> unit

(** {1 Hooks} — [line] is a cache-line index ({!Pmem.Addr.line_of});
    the detector loops over the lines of each event's range. *)

val on_store : t -> seq:int -> line:int -> unit
val on_clf : t -> seq:int -> line:int -> unit
val on_bug : t -> line:int -> unit

val set_name : t -> line:int -> string -> unit
(** Attach a registered-variable name to a line (first name wins) —
    fed from [Register_var] events so heatmap rows are readable
    without a memory map. *)

(** {1 Snapshots} *)

type row = {
  r_line : int;
  r_name : string option;
  r_stores : int;
  r_clfs : int;
  r_bugs : int;
  r_dirty : int;  (** virtual seqs spent dirty (open intervals included) *)
}

type snapshot = { s_rows : row list; s_dropped : int; s_tracked : int }

val snapshot : ?top:int -> t -> snapshot
(** Rows hottest-first (stores + CLFs, ties by line index), capped at
    [top] when given. Does not mutate the table. *)

val merge : snapshot list -> snapshot
(** Fold per-worker snapshots: counters sum per line, the first
    non-empty name wins, rows re-rank by combined traffic. *)

val schema_id : string
(** ["pmdb-heatmap/v1"]. *)

val snapshot_to_json : snapshot -> Json.t
val to_json : ?top:int -> t -> Json.t

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Parse a {!snapshot_to_json} document (the daemon's [heatmap] verb
    reply). Round-trips up to row order, which re-sorts canonically. *)
