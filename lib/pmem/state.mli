(** Simulated persistent-memory persistency state.

    Models the x86 persistence semantics the paper reasons about:

    - a {b store} makes the target cache line(s) dirty in the (volatile)
      cache hierarchy;
    - a {b cache-line writeback} (CLWB / CLFLUSH / CLFLUSHOPT) initiates
      eviction of a line towards the persistence domain, but the write
      is only {e guaranteed} durable once a subsequent {b fence}
      (SFENCE) completes;
    - a {b fence} drains pending writebacks, making them durable.

    Two byte images are maintained: the {e volatile} image (what the
    program reads) and the {e durable} image (the contents guaranteed to
    survive a crash). Lines that are dirty or writeback-pending at a
    crash may or may not have reached PM; {!check_crash_images} samples
    that non-determinism to produce possible post-crash images. It
    derives each one in place on the durable image, under that image's
    undo journal, so an image costs the lines it keeps, not a copy of
    the pool. *)

type line_state =
  | Clean  (** Line contents are identical in cache and PM. *)
  | Dirty  (** Stored to since last writeback; contents only in cache. *)
  | Writeback_pending
      (** A CLF was issued after the last store but no fence has drained
          it yet; durability is not yet guaranteed. *)

type t

val create : unit -> t

val volatile : t -> Image.t
(** The program-visible image. *)

val durable : t -> Image.t
(** The guaranteed-durable image (contents as of the last drains). *)

val line_state : t -> int -> line_state
(** [line_state t line] for a cache-line index; [Clean] if untouched. *)

val store : t -> addr:int -> bytes -> unit
(** Write bytes at [addr] in the volatile image, dirtying touched lines. *)

val store_i64 : t -> addr:int -> int64 -> unit

val clf : t -> addr:int -> unit
(** Writeback of the single cache line containing [addr]: [Dirty] ->
    [Writeback_pending]. A CLF on a clean line is a no-op with respect
    to state (the redundancy is a detector concern, not a semantics
    one). *)

val clf_range : t -> lo:int -> hi:int -> unit
(** CLF every line touched by [\[lo,hi)]. *)

val copy : t -> t
(** Deep snapshot: images, line states and counters. The copy evolves
    independently (used by crash-point exploration to restart from a
    known-good prefix). *)

val evict : t -> line:int -> unit
(** Model a spontaneous cache eviction: the line's current (volatile)
    contents reach the persistence domain and the line becomes [Clean],
    with no CLF or fence issued. A no-op on [Clean] lines. Hardware may
    evict any dirty line at any time; fault injection uses this to pin
    the non-determinism to a chosen point. *)

val fence : t -> unit
(** Drain: every [Writeback_pending] line becomes durable and [Clean].
    [Dirty] lines are unaffected (their CLF has not been issued). *)

val pending_lines : t -> int list
(** Lines currently [Writeback_pending], ascending. *)

val is_durable_range : t -> lo:int -> hi:int -> bool
(** True iff every line of the range is [Clean], i.e. all stores to the
    range have reached the persistence domain. *)

val undrained_lines : t -> int
(** The number of [Dirty] or [Writeback_pending] lines: the lines whose
    fate a crash leaves open. *)

val crash_image_count : undrained:int -> max_images:int -> int
(** How many images {!check_crash_images} derives from a state with
    [undrained] undrained lines under a cap of [max_images], computed
    from the same subset enumeration without deriving any image.
    @raise Invalid_argument if [max_images < 1]. *)

val check_crash_images : t -> max_images:int -> recovery:(Image.t -> bool) -> int * int
(** [(failing, checked)]: runs [recovery] on each possible post-crash
    image and counts the images it rejects and the images derived.
    Each image starts from the durable image; each dirty/pending line
    is independently either lost or persisted. Enumerates exhaustively
    when there are at most [log2 max_images] undrained lines, otherwise
    samples deterministically (seeded), starting with the two extremes
    (nothing extra persisted / everything persisted), and dedupes
    repeated samples. At most [max_images] images are derived; fewer
    when samples repeat.

    Images are derived one at a time, in place on {!durable}: the image
    handed to [recovery] is the durable image with the kept lines
    blitted in, and it is valid only during that call. [recovery] may
    write to it; every write is undone before the next image, and when
    [recovery] raises, the exception propagates after the undo. Calling
    this from inside [recovery] on the same state raises
    [Invalid_argument]; so does [max_images < 1]. This is the one
    crash-image check: the detector's cross-failure rule, the
    XFDetector and Yat baselines and crash-point exploration all go
    through it. *)

val crash_images : t -> ?max_images:int -> unit -> Image.t list
(** Copies of the images {!check_crash_images} derives (default cap
    64), in the same order, for callers that need to hold them. *)

val stats : t -> (string * int) list
(** Counters: stores, clfs, fences, drained lines. *)
