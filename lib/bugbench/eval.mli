(** Runs the bug dataset against the four detectors of Table 6 and
    aggregates its matrix and the §7.3 false-negative / false-positive
    rates. *)

type tool = Baselines.Tool.t = PMDebugger | Pmemcheck | PMTest | XFDetector | Nulgrind

val all_tools : tool list
(** The four tools Table 6 evaluates (every tool but Nulgrind). *)

val run_case : tool -> Cases.t -> Pmtrace.Bug.report
(** Executes the case live on a fresh engine carrying the tool
    ({!Pmtrace.Engine.open_one}; cross-failure cases hand the tool the
    live PM state and the recovery predicate, as §7.3 describes). A
    tool that raises is quarantined: its report carries the failure. *)

val detected : Cases.t -> Pmtrace.Bug.report -> bool
(** True when the report contains the case's expected bug kind. *)

type result = {
  tool : tool;
  per_kind : (Pmtrace.Bug.kind * int * int) list;  (** kind, detected, total *)
  detected_total : int;
  case_total : int;
  false_negative_rate : float;
  false_positives : string list;  (** clean cases the tool flagged *)
  kinds_covered : int;
}

val evaluate : tool -> result

val evaluate_all : unit -> result list
