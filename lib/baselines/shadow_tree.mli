(** The tree-only shadow state Pmemcheck and XFDetector keep over
    written PM bytes: one address-ordered {!Rangetree} node per stored
    range, marked flushed by a covering CLF and dropped at the next
    fence, restricted to the [Register_pmem] regions once any is
    registered. Each tool adds its own rules and bookkeeping on top
    (Pmemcheck its per-store merging and Fig. 11 counters, XFDetector
    its failure points). *)

type payload = { mutable flushed : bool; seq : int  (** event seq of the store *) }

type t

val create : unit -> t

val tree : t -> payload Rangetree.t

val register : t -> Pmem.Addr.range -> unit
(** A [Register_pmem] region: from the first one on, only registered
    regions are tracked. *)

val tracks : t -> lo:int -> hi:int -> bool

val store : t -> lo:int -> hi:int -> seq:int -> bool
(** Inserts an unflushed node for the store. It supersedes exactly the
    bytes it overlaps: flushed nodes keep their other bytes flushed.
    True when any node overlapped the store. *)

type clf =
  | Flushed_nothing  (** the CLF overlapped no node *)
  | Redundant of { addr : int; size : int }
      (** it overlapped nodes but flushed no unflushed byte: the first
          already-flushed node it met (the CLF's own range if none) *)
  | Persisted  (** it flushed some unflushed bytes *)

val clf : t -> lo:int -> hi:int -> clf
(** Marks the covered bytes flushed, splitting partly covered nodes. *)

val drop_flushed : t -> unit
(** A fence: flushed nodes are durable and leave the tree. *)

val iter_unpersisted : t -> (addr:int -> size:int -> detail:string -> unit) -> unit
(** The end-of-trace walk over every node still in the tree, with the
    reason it is not durable. *)
