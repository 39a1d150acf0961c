(** Information collected from one store instruction (§4.1, Fig. 5):
    address, size and flushing state, extended with the epoch flag of
    §5.1 and provenance (event sequence number, thread, strand, and the
    sequence number of the CLF that flushed it, for causal chains). *)

type t = {
  mutable addr : int;
  mutable size : int;
  mutable flushed : bool;  (** a CLF covering it was issued since the store *)
  mutable epoch : bool;  (** the store happened inside an epoch section *)
  mutable seq : int;  (** event sequence number of the store *)
  mutable tid : int;
  mutable strand : int;  (** -1 outside any strand section *)
  mutable valid : bool;
  mutable clf_seq : int;
      (** sequence number of the CLF that set [flushed], or -1 — reset
          by {!fill} and by un-flushing overwrites *)
}

(** Payload stored in the AVL spill tree for a (possibly split) location. *)
type payload = {
  mutable p_flushed : bool;
  p_epoch : bool;
  p_seq : int;
  p_tid : int;
  p_strand : int;
  mutable p_clf_seq : int;  (** CLF that flushed it, or -1 *)
  mutable p_fence_seq : int;
      (** first fence the location crossed unpersisted (stamped when the
          slot migrates from the array to the tree), or -1 *)
}

val fresh : unit -> t
(** An invalid slot, for array growth: a space appends fresh slots
    when its live slots fill the array, then reuses them in place. *)

val fill : t -> addr:int -> size:int -> epoch:bool -> seq:int -> tid:int -> strand:int -> unit
(** Overwrite a slot in place for a new store (marks it valid,
    not flushed, with no CLF provenance). *)

val payload_of : t -> payload
(** Carries the slot's provenance ([seq], [clf_seq]); [p_fence_seq]
    starts at -1 and is stamped by the fence that migrates it. *)
