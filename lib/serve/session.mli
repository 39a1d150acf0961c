(** One daemon session's decoding, on its worker — socket-free, so the
    protocol core (decoding, the budget, status transitions) is directly
    unit- and fuzz-testable.

    A session is [pmdb replay] over the bytes its client sends: the
    {!Pmtrace.Trace_io.Decoder} file replays use frames, numbers, skips
    and ends the trace as [pmdb replay] does on the same bytes, and
    hands each event to a callback (the session's engine on its worker,
    a list in the tests). The session keeps what its result frame
    reports: the terminal status (the first one wins), the skipped
    [(line, error)] pairs and the synthesized-end flag. It ends itself
    at a strict parse error ([Trace_error]) and past its budget
    ([Evicted]), and ignores input once ended. *)

open Pmtrace

type t

val create : lenient:bool -> budget:int -> (Event.t -> unit) -> t
(** [budget]: the most {!held_bytes} the session may hold. *)

val feed : t -> Bytes.t -> off:int -> len:int -> unit
(** Decode [b.[off, off + len)] ({!Trace_io.Decoder.feed}: chunk
    boundaries are invisible). A strict session's first malformed line
    ends it with [Trace_error] and the error ["line N: ..."]; a lenient
    one records the line and goes on. Holding more than the budget after
    the chunk ends it with [Evicted]. Either end cuts the session short
    ({!cut_short}). *)

val finish : t -> unit
(** The client's end of input: {!Trace_io.Decoder.finish} — the last
    unterminated line is decoded and, for a lenient session, the end
    rule applies. A strict session gets no [program_end], like a strict
    file replay. *)

val cut_short : t -> Status.t -> string option -> unit
(** The session ends before its input did (eviction, idle timeout,
    shutdown, a trace or detector quarantine, a connection error):
    {!terminate}, then {!Trace_io.Decoder.truncate} drops the carried
    line and applies the end rule, strict or lenient, so end-of-trace
    rules fire for the truncated stream. A connection error passes
    [Status.Ok], which leaves the status as it is. *)

val terminate : t -> Status.t -> string option -> unit
(** Record the session's terminal status; the first call wins (a
    session already quarantined keeps its original status). *)

val ended : t -> bool
(** [true] once {!finish} or {!cut_short} ran, or the session ended
    itself. *)

val status : t -> Status.t
val error : t -> string option

val held_bytes : t -> int
(** The unterminated line carried between chunks plus the skip messages
    collected so far, so one enormous line and a flood of garbage lines
    are evicted alike. *)

val events : t -> int
(** Events emitted, including a synthesized end. *)

val skipped_lines : t -> (int * string) list
(** [(line number, error)] per skipped malformed line, in input order. *)

val synthesized_end : t -> bool
