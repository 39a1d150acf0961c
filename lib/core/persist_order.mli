(** Persist-order bookkeeping for the order rules (§4.5, §5.2): the
    registered variables, whether each has been stored to and when it
    became durable, and the functions called so far (the [at <func>]
    gates of {!Order_config}). PMDebugger and XFDetector both keep
    their order state here; each decides which constraint kinds it
    checks and how it reports a violation. *)

type t

val create : Order_config.t -> t

val constrained : t -> bool
(** The configuration holds at least one constraint. *)

val register : t -> name:string -> Pmem.Addr.range -> unit
(** A [Register_var] event: (re)binds [name] to a range. *)

val call : t -> string -> unit
(** A [Call] event: opens the gate of constraints [at] this function. *)

val note_store : t -> lo:int -> hi:int -> unit
(** Every variable the store overlaps is stored again and loses any
    earlier durability. *)

val update : t -> pending:(lo:int -> hi:int -> bool) -> seq:int -> cls:string -> unit
(** A stored variable over which [pending] finds no unpersisted
    location becomes durable at event [seq] of class [cls]. *)

val check :
  t ->
  enabled:(Order_config.constraint_kind -> bool) ->
  (Order_config.entry -> addr:int -> at:int * string -> unit) ->
  unit
(** Calls [f e ~addr ~at] for each enabled constraint whose gate is
    open, whose [next] variable is durable ([addr] its base, [at] the
    event that made it so) and whose [first] variable is not. *)

val check_writeback : t -> lo:int -> hi:int -> (Order_config.entry -> addr:int -> unit) -> unit
(** Calls [f e ~addr] for each cross-strand constraint whose [next]
    variable (at [addr]) overlaps a written-back range while its
    [first] variable is not yet durable (Fig. 7b). *)

val name_covering : t -> int -> string option
(** A registered variable containing the address. *)
