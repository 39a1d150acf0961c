(** Per-CLF-interval metadata (§4.1, Fig. 5).

    A CLF interval is the run of store instructions between two
    neighbouring CLF instructions. Its metadata records the array index
    span of those stores, the covered address range, and a collective
    flushing state so that CLF and fence processing can treat all the
    interval's locations at once (Pattern 2). A space keeps its
    intervals in an array in interval order and reuses them after
    every fence. *)

type fstate = Not_flushed | Partially_flushed | All_flushed

type t = {
  mutable start_idx : int;  (** array index of the interval's first store *)
  mutable end_idx : int;  (** array index of the last store; -1 if none *)
  mutable min_addr : int;
  mutable max_addr : int;  (** exclusive upper bound of the address range *)
  mutable state : fstate;
  mutable invalidated : int;
      (** slots of this interval invalidated by superseding stores —
          keeps collective (per-interval) accounting exact without a
          slot walk *)
  mutable clf_seq : int;
      (** sequence number of the collective CLF that set [All_flushed]
          (-1 otherwise): shared flush provenance for every slot the
          interval covers, so Pattern-2 updates stay O(1) yet causal
          chains can still name the flush *)
}

val make : start_idx:int -> t
(** A fresh, empty interval starting at the given array index. *)

val reset : t -> start_idx:int -> unit
(** Make the interval fresh and empty again, starting at the index. *)

val is_empty : t -> bool

val note_store : t -> idx:int -> lo:int -> hi:int -> unit
(** Extend the interval with a store recorded at array index [idx]
    covering [\[lo,hi)]. *)

val pp : Format.formatter -> t -> unit
