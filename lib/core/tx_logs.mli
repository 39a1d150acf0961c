(** Per-thread transaction-log bookkeeping for the redundant-logging
    rule: the ranges each thread has logged since its last reset, with
    the event seq of each log call. Callers choose when a thread's log
    resets (PMDebugger: at the outermost epoch boundaries; PMTest and
    XFDetector: at every epoch end). *)

type t

type logged = { range : Pmem.Addr.range; seq : int }

val create : unit -> t

val note : t -> tid:int -> Pmem.Addr.range -> seq:int -> logged option
(** [Some prior] when [tid] already logged a range overlapping this
    one since its last reset (the new range is not recorded); [None]
    after recording it. *)

val reset : t -> tid:int -> unit
