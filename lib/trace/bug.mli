(** Bug vocabulary shared by every detector and by the ground-truth
    dataset. The ten kinds are the columns of Table 6. *)

type kind =
  | No_durability  (** location not persisted after its last write *)
  | Multiple_overwrites  (** overwrite before durability is guaranteed *)
  | No_order_guarantee  (** configured persist order X-before-Y violated *)
  | Redundant_flush  (** same store flushed more than once before fence *)
  | Flush_nothing  (** CLF persisting no tracked prior store *)
  | Redundant_logging  (** object logged multiple times, updated once *)
  | Lack_durability_in_epoch  (** epoch ends with unpersisted stores *)
  | Redundant_epoch_fence  (** more than one fence inside an epoch *)
  | Lack_ordering_in_strands  (** cross-strand persist order violation *)
  | Cross_failure_semantic  (** post-failure execution reads inconsistent data *)

val all_kinds : kind list

val kind_rank : kind -> int
(** Position in {!all_kinds} — the kind component of the canonical bug
    order used by the shard merge. *)

val kind_name : kind -> string

val pp_kind : Format.formatter -> kind -> unit

(** One link of a report's causal history: an engine event (by its
    monotonically increasing dispatch sequence number) that contributed
    to the violation — the store that created the tracked interval, the
    CLF that covered (or redundantly re-covered) it, the fence it
    crossed unpersisted, the event at which the rule fired. *)
type cause = {
  c_seq : int;  (** 1-based dispatch sequence number of the event *)
  c_class : string;  (** {!Pmtrace.Event.class_name} of that event *)
  c_addr : int;  (** address involved at that step, or -1 *)
  c_size : int;
  c_note : string;  (** human-readable role, e.g. "never flushed" *)
}

val cause : ?addr:int -> ?size:int -> ?note:string -> cls:string -> int -> cause

type t = {
  kind : kind;
  addr : int;  (** primary address involved, or -1 *)
  size : int;
  seq : int;  (** event sequence number at detection time *)
  detail : string;
  chain : cause list;
      (** causal history, canonical: strictly increasing [c_seq], no
          negative seqs (normalized by {!make}) *)
}

val make : ?addr:int -> ?size:int -> ?seq:int -> ?detail:string -> ?chain:cause list -> kind -> t
(** [chain] is normalized: causes with negative seqs are dropped, the
    rest are sorted ascending and deduplicated by seq (later entry
    wins), so [t.chain] is strictly increasing by construction. *)

val pp : Format.formatter -> t -> unit

val pp_cause : Format.formatter -> cause -> unit

(** Which findings a detector keeps: one per (kind, addr), at most
    [max_per_kind] per kind, in firing order. Every detector reports
    through one ledger. *)
module Ledger : sig
  type finding := t

  type t

  type admission =
    | Admitted  (** first finding at this (kind, addr) under the cap; now counted *)
    | Duplicate  (** this (kind, addr) was admitted before *)
    | Capped  (** new (kind, addr), but its kind already holds [max_per_kind] *)

  val create : ?max_per_kind:int (** default 1000 *) -> unit -> t

  val admit : t -> kind -> addr:int -> admission
  (** Decides on a finding before it is built. [Admitted] records the
      key and counts it; the caller then {!append}s the finding. *)

  val append : t -> finding -> unit
  (** Keeps the finding, with no dedup and no cap of its own. *)

  val add : t -> kind -> addr:int -> ?size:int -> seq:int -> detail:string -> unit -> unit
  (** [admit], then on [Admitted] append a finding with no causal chain. *)

  val findings : t -> finding list
  (** Kept findings in firing order. *)
end

type report = {
  detector : string;
  bugs : t list;
  events_processed : int;
  stats : (string * float) list;
      (** detector-specific counters, e.g. tree sizes, reorganizations *)
  failure : string option;
      (** [Some msg] when the sink raised mid-run and was quarantined by
          the engine: [msg] is the exception text and the report covers
          only the trace prefix the sink processed before failing. *)
}

val compare_cause : cause -> cause -> int

val compare_canonical : t -> t -> int
(** Total order on findings — (seq, kind rank, addr, size, detail,
    chain) — independent of detection-internal iteration orders. The
    sharded merge sorts with this; parity tests compare reports ordered
    by it. *)

val render_canonical : report -> string
(** Byte-exact text of everything the shard-equality contract covers:
    detector name, event count, failure status and every finding with
    its full causal chain — excluding [stats], which legitimately
    differ between bookkeeping layouts. Two runs are equivalent exactly
    when their canonical renderings are equal. *)

val empty_report : string -> report

val count_kind : report -> kind -> int

val has_kind : report -> kind -> bool

val kinds_found : report -> kind list

val pp_report : Format.formatter -> report -> unit
