(** The daemon's wire protocol.

    A connection opens with one newline-terminated hello line:

    {v
      pmdb-serve/1 session <name> [strict|lenient]   event-stream session
      pmdb-serve/1 stats                             metrics snapshot, then close
      pmdb-serve/1 heatmap                           hot-line table, then close
      pmdb-serve/1 stop                              graceful daemon shutdown
    v}

    A session then streams newline-framed events in the {!Trace_io}
    line format and half-closes (shutdown of its write side); the
    daemon answers with exactly one {!result_frame} rendered as a
    single JSON line (schema [pmdb-serve/v1]) and closes. [stats]
    connections receive one [pmdb-metrics/v1] JSON document and are
    closed; the daemon pushes nothing unasked, so a follower polls
    [stats]. Any malformed or unknown hello gets a [protocol-error]
    result frame.

    The report embedded in a result frame round-trips every field of
    {!Pmtrace.Bug.report} (findings, causal chains, failure), so a
    client can render it byte-identically to an offline replay. *)

open Pmtrace

val protocol : string
(** The hello-line magic, ["pmdb-serve/1"]. *)

val schema : string
(** Result-frame schema, ["pmdb-serve/v1"]. *)

type hello =
  | Session of { name : string; lenient : bool }
  | Stats
  | Heatmap  (** merged hot-line table, one [pmdb-heatmap/v1] JSON line *)
  | Stop

val hello_line : hello -> string
(** Without the trailing newline. *)

val parse_hello : string -> (hello, string) result

val name_ok : string -> bool
(** Session names: 1-64 chars of [A-Za-z0-9_.-]. *)

val report_to_json : Bug.report -> Obs.Json.t

val report_of_json : Obs.Json.t -> (Bug.report, string) result

type result_frame = {
  status : Status.t;
  events : int;  (** events the session delivered to the detector *)
  skipped : int;  (** malformed lines skipped (lenient sessions) *)
  skipped_lines : (int * string) list;
      (** (line number, error) of the first skipped lines: as many as
          fit in {!max_skipped_bytes} of error text *)
  synthesized_end : bool;  (** a [program_end] was appended at EOF *)
  error : string option;  (** e.g. ["line 3: bad event"] for trace errors *)
  report : Bug.report option;  (** absent only for protocol errors *)
}

val max_skipped_bytes : int
(** 64 KiB: the error text a result frame lists at most, so a session
    that skipped a flood of lines still gets a small reply. *)

val result_frame :
  ?events:int ->
  ?skipped_lines:(int * string) list ->
  ?synthesized_end:bool ->
  ?error:string ->
  ?report:Bug.report ->
  Status.t ->
  result_frame
(** [skipped] is the length of [skipped_lines]; the frame lists its
    longest prefix within {!max_skipped_bytes}. *)

val result_to_line : result_frame -> string
(** Single-line JSON, no trailing newline. *)

val result_of_line : string -> (result_frame, string) result
