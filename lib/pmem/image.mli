(** A sparse byte image backing a simulated PM pool.

    The image is the raw content store; persistency bookkeeping lives in
    {!State}. It is a growable table of 4 KiB pages, each allocated on
    its first write, so its cost follows the bytes a program touches,
    not the size of the pool it registers. Reads of unwritten bytes
    return zero, like a freshly created DAX file, and reads and writes
    may cross pages. Addresses must be non-negative.

    An undo journal lets {!State} derive a crash image in place and
    take it back: between {!open_journal} and {!rollback} every write
    records the bytes it overwrites, and {!rollback} restores them. *)

type t

val create : unit -> t

val write : t -> addr:int -> bytes -> unit
(** [write t ~addr b] copies all of [b] into the image at [addr]. *)

val write_sub : t -> addr:int -> bytes -> off:int -> len:int -> unit

val read : t -> addr:int -> len:int -> bytes

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit

val get_int : t -> int -> int
(** [get_int t addr] reads an [int64] at [addr] and truncates to [int]. *)

val set_int : t -> int -> int -> unit

val get_string : t -> addr:int -> len:int -> string
val set_string : t -> addr:int -> string -> unit

val copy : t -> t
(** Deep copy, in O(written pages). The copy has no open journal. *)

val blit_line : src:t -> dst:t -> line:int -> unit
(** Copies one whole cache line identified by its line index. *)

val equal_range : t -> t -> lo:int -> hi:int -> bool

val open_journal : t -> unit
(** Starts recording the old bytes of every write to the image.
    @raise Invalid_argument if a journal is already open. *)

val rollback : t -> unit
(** Restores every byte written since {!open_journal} and closes the
    journal. Pages first allocated inside the journal stay allocated,
    holding zeros again. *)
