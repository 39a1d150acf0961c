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
    [_] separators; decimal overflow is an error); a name is the
    remaining tokens joined by single spaces. A malformed line's error
    is [Printf.sprintf "cannot parse event %S"] of the trimmed line. A
    last line with no
    trailing newline is still a line. *)

val add_event : Buffer.t -> Event.t -> unit
(** Append the event's line, without a newline. Writes keywords and
    decimal digits straight into the buffer. *)

val event_to_line : Event.t -> string

val event_of_line : string -> (Event.t option, string) result
(** [Ok None] for blank/comment lines. *)

val event_of_bytes : Bytes.t -> off:int -> len:int -> (Event.t option, string) result
(** {!event_of_line} of the line [Bytes.sub b off len], scanned in
    place. Raises [Invalid_argument] on an invalid range. *)

val to_string : Recorder.trace -> string

val of_string : string -> (Recorder.trace, string) result
(** Fails with a line-numbered message on the first malformed line. *)

type lenient = {
  trace : Event.t array;
  skipped : (int * string) list;  (** (line number, error) per malformed line *)
  synthesized_end : bool;
      (** true when the input did not end with [program_end] and one was
          appended (unless [synthesize_end:false]). *)
}

val of_string_lenient : ?metrics:Obs.Metrics.t -> ?synthesize_end:bool -> string -> lenient
(** Best-effort parse: malformed lines are skipped and collected as
    per-line diagnostics instead of aborting, and a truncated trace
    (one not ending in [program_end]) gets a synthesized terminator so
    end-of-run detector rules still fire. [synthesize_end] defaults to
    [true]. [metrics] (default disabled) gets
    [trace_io_lines_parsed_total] / [trace_io_lines_skipped_total]. *)

val save : string -> Recorder.trace -> unit
(** Raises [Sys_error] on write failure; the channel is closed on every
    exit path. Written in binary mode so save/load roundtrips are
    byte-identical cross-platform. *)

val load : string -> (Recorder.trace, string) result
(** Strict parse of a trace file into an array. Reads the file in
    blocks (never the whole file into a string); I/O failures are
    reported as [Error] and never leak the input channel. *)

val load_lenient : ?metrics:Obs.Metrics.t -> ?synthesize_end:bool -> string -> (lenient, string) result
(** [load] with {!of_string_lenient} semantics; [Error] only for I/O
    failures. *)

(** {1 Streaming}

    The [*_file] functions below read the file in blocks into one
    reusable buffer, scan each line in place and hand each event to a
    callback without ever materializing the trace: the buffer grows only
    for a line longer than it, so memory use is bounded by the longest
    line, not the trace length, and multi-GB traces replay in constant
    memory. They share the scanner — and,
    for the lenient variants, the skip-and-report plus
    synthesize-[program_end] semantics and per-line error positions —
    with {!of_string} / {!of_string_lenient}. Materialize (via {!load}
    / {!load_lenient}) only when random access over the event sequence
    is genuinely required, e.g. crash-point prefix replay. *)

type stream_stats = {
  events : int;  (** events delivered to [f], including a synthesized end *)
  skipped_lines : (int * string) list;  (** (line number, error) per malformed line *)
  synthesized : bool;  (** a [program_end] was appended for a truncated trace *)
}

val fold_file :
  ?metrics:Obs.Metrics.t ->
  ?synthesize_end:bool ->
  ?on_skip:(int -> string -> unit) ->
  string ->
  init:'a ->
  f:('a -> Event.t -> 'a) ->
  ('a * stream_stats, string) result
(** Lenient streaming fold over a trace file. Malformed lines are
    skipped, reported through [on_skip] (called with the 1-based line
    number and error as they are encountered) and collected in the
    returned stats; a truncated trace gets a synthesized terminator
    event unless [synthesize_end:false]. [metrics] (default disabled)
    gets [trace_io_lines_parsed_total] / [trace_io_lines_skipped_total].
    [Error] only for I/O failures. *)

val iter_file :
  ?metrics:Obs.Metrics.t ->
  ?synthesize_end:bool ->
  ?on_skip:(int -> string -> unit) ->
  string ->
  f:(Event.t -> unit) ->
  (stream_stats, string) result
(** {!fold_file} without an accumulator. *)

val fold_file_strict : string -> init:'a -> f:('a -> Event.t -> 'a) -> ('a, string) result
(** Strict streaming fold: stops at the first malformed line with the
    same [line N: ...] message {!of_string} produces. Events already
    folded before the error are discarded with the accumulator. *)

val iter_file_strict : string -> f:(Event.t -> unit) -> (unit, string) result
(** {!fold_file_strict} without an accumulator. Note that [f] has
    already observed every event preceding a malformed line when the
    error is returned — side effects are not rolled back. *)

val save_stream : string -> ((Event.t -> unit) -> unit) -> int
(** [save_stream path produce] opens [path] (binary mode), hands
    [produce] an emit function that appends one line per event, and
    closes the file on every exit path. Returns the number of events
    written. The streaming dual of {!save}: lines go to the file a
    64 KiB block at a time, so an arbitrarily long run can be recorded
    in constant memory. Events emitted before [produce] raises are
    still written. *)
