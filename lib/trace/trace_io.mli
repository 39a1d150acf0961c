(** Trace (de)serialization.

    A recorded event stream can be saved to a file and replayed later —
    the offline-debugging workflow real instrumentation tools support,
    and a convenient interchange format for regression corpora.

    The format is line-oriented text, one event per line, mirroring
    {!Event.pp} but strictly parseable:

    {v
      store <tid> <addr> <size>
      clf <kind> <tid> <addr> <size>
      fence <tid>
      register_pmem <base> <size>
      epoch_begin <tid> | epoch_end <tid>
      strand_begin <tid> <strand> | strand_end <tid> <strand>
      join_strand <tid>
      tx_log <tid> <obj_addr> <size>
      register_var <addr> <size> <name>
      call <tid> <func>
      assert_durable <addr> <size>
      assert_ordered <a> <asz> <b> <bsz>
      assert_fresh <addr> <size>
      program_end
      # comments and blank lines are ignored
    v}

    The grammar: a line is stripped of leading and trailing
    [String.trim] whitespace; blank lines and lines starting with [#]
    are skipped; tokens are separated by one or more spaces (a tab
    inside a line belongs to its token); numeric fields are what
    [int_of_string_opt] accepts (signs, [0x]/[0o]/[0b]/[0u] prefixes,
    [_] separators; decimal overflow is an error); an address or a
    size (every numeric field but a [tid] or a [strand]) must also be
    non-negative, so a line with a negative one is malformed like any
    other, and every reader and detector agrees on where it stops (or,
    lenient, which lines it skips); a name is the
    remaining tokens joined by single spaces. A malformed line's error
    is [Printf.sprintf "cannot parse event %S"] of the trimmed line. A
    last line with no trailing newline is still a line. *)

val event_to_line : Event.t -> string

val to_string : Recorder.trace -> string

val of_string : string -> (Recorder.trace, string) result
(** Fails with a line-numbered message on the first malformed line. *)

(** {1 Decoding}

    Every reader of the format — {!of_string}, the [*_file] functions
    and the daemon's sessions — pushes its bytes through a {!Decoder},
    so line framing, line numbers, the strict/lenient policy and the
    end rule exist once. The end rule: a trace is complete when its
    last event passes {!ends_trace}; a lenient read appends a
    [program_end] to one that is not (an empty one included), a strict
    read never does. *)

type stream_stats = {
  events : int;  (** events delivered, including a synthesized end *)
  skipped_lines : (int * string) list;  (** (line number, error) per malformed line *)
  synthesized : bool;  (** the end rule appended a [program_end] *)
}

val ends_trace : Event.t -> bool
(** [true] for [program_end]. *)

module Decoder : sig
  type t

  val create : ?on_skip:(int -> string -> unit) -> lenient:bool -> (Event.t -> unit) -> t
  (** [create ~lenient emit]: [emit] gets each event. A lenient decoder
      counts a malformed line and passes its 1-based number and error
      to [on_skip]. *)

  val feed : t -> Bytes.t -> off:int -> len:int -> (unit, string) result
  (** Decode [b.[off, off + len)], never writing it. A whole line is
      parsed in place from its first byte to its newline, never going
      back to its start, and allocates only its event (and a name);
      only a line split across chunks is copied, so any split of the
      same bytes gives the same events, line numbers and errors. A strict decoder
      returns [Error "line N: cannot parse event ..."] at the first
      malformed line; feed it no more. Raises [Invalid_argument] on an
      invalid range. *)

  val finish : t -> (unit, string) result
  (** End of input: decode the unterminated last line, if any, then
      apply the end rule if lenient. *)

  val truncate : t -> unit
  (** The input was cut short: drop the unterminated line and apply
      the end rule, strict or lenient. *)

  val carried : t -> int
  (** Bytes of the unterminated line held between chunks. *)

  val events : t -> int
  val synthesized : t -> bool
end

val of_string_lenient : ?metrics:Obs.Metrics.t -> string -> Event.t array * stream_stats
(** Best-effort parse: malformed lines are skipped and collected as
    per-line diagnostics, and the end rule applies. [metrics] (default
    disabled) gets [trace_io_lines_parsed_total] /
    [trace_io_lines_skipped_total]. *)

val save : string -> Recorder.trace -> unit
(** Raises [Sys_error] on write failure; the channel is closed on every
    exit path. Written in binary mode so save/load roundtrips are
    byte-identical cross-platform. *)

val load : string -> (Recorder.trace, string) result
(** Strict parse of a trace file into an array. Reads the file in
    blocks (never the whole file into a string); I/O failures are
    reported as [Error] and never leak the input channel. *)

val load_lenient : ?metrics:Obs.Metrics.t -> string -> (Event.t array * stream_stats, string) result
(** [load] with {!of_string_lenient} semantics; [Error] only for I/O
    failures. *)

(** {1 Streaming}

    The [*_file] functions below feed the file to a {!Decoder} in
    64 KiB blocks through one reusable buffer and hand each event to a
    callback without ever materializing the trace, so multi-GB traces
    replay in memory bounded by the longest line. Materialize (via
    {!load} / {!load_lenient}) only when random access over the event
    sequence is genuinely required, e.g. crash-point prefix replay. *)

val fold_file :
  ?metrics:Obs.Metrics.t ->
  ?on_skip:(int -> string -> unit) ->
  string ->
  init:'a ->
  f:('a -> Event.t -> 'a) ->
  ('a * stream_stats, string) result
(** Lenient streaming fold over a trace file. Malformed lines are
    skipped, reported through [on_skip] (called with the 1-based line
    number and error as they are encountered) and collected in the
    returned stats; the end rule applies. [metrics] as in
    {!of_string_lenient}. [Error] only for I/O failures. *)

val iter_file :
  ?metrics:Obs.Metrics.t ->
  ?on_skip:(int -> string -> unit) ->
  string ->
  f:(Event.t -> unit) ->
  (stream_stats, string) result
(** {!fold_file} without an accumulator. *)

val iter_file_strict : string -> f:(Event.t -> unit) -> (unit, string) result
(** Strict streaming parse: stops at the first malformed line with the
    same [line N: ...] message {!of_string} produces. [f] has already
    observed every event before it — side effects are not rolled
    back. *)

val save_stream : string -> ((Event.t -> unit) -> unit) -> int
(** [save_stream path produce] opens [path] (binary mode), hands
    [produce] an emit function that appends one line per event, and
    closes the file on every exit path. Returns the number of events
    written. The streaming dual of {!save}: lines go to the file a
    64 KiB block at a time, so an arbitrarily long run can be recorded
    in constant memory. Events emitted before [produce] raises are
    still written. *)
