(** Per-thread transaction-log bookkeeping for the redundant-logging
    rule: the ranges each thread has logged since its last reset, with
    the event seq of each log call. Callers choose when a thread's log
    resets (PMDebugger: at the outermost epoch boundaries; PMTest and
    XFDetector: at every epoch end). A log call allocates nothing once
    its thread has logged as many ranges before. *)

type t

val create : unit -> t

val note : t -> tid:int -> lo:int -> hi:int -> seq:int -> bool
(** [true] when [tid] already logged a range overlapping [[lo, hi)]
    since its last reset: the new range is not recorded, and
    {!prior_lo}, {!prior_hi} and {!prior_seq} give the latest such
    range. [false] after recording it. *)

val prior_lo : t -> int
val prior_hi : t -> int
val prior_seq : t -> int

val reset : t -> tid:int -> unit
