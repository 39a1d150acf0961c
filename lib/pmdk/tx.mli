(** Undo-log transactions — the epoch-model abstraction PMDK builds on
    (TX_BEGIN / TX_END in the paper, §2.3).

    A transaction is an epoch section: [begin_tx] emits [Epoch_begin],
    and the commit barrier (one fence) closes the section before
    [Epoch_end] is emitted, so a correct transaction contains exactly
    one fence — extra user fences inside the section are the
    "redundant epoch fence" bug of §5.2.

    Before modifying a range the caller snapshots it with [add_range]
    (PMDK's [TX_ADD]); the old contents go to the pool's undo-log area,
    each append also emitting a [Tx_log] event for the
    redundant-logging rule. Nested [begin_tx]/[commit] pairs collapse
    into the outermost transaction (§6).

    Crash semantics: the log-truncation store is the commit point. The
    {!recover} function applied to any crash image rolls back an
    unfinished transaction. A recovery predicate runs it on its image
    (writes to the image are the predicate's own) before checking the
    workload's invariant, which is how
    {!Pmem.State.check_crash_images} validates transactional
    workloads. *)

type t

val begin_tx : Pool.t -> t
(** Starts (or nests into) a transaction on the pool. *)

val add_range : t -> addr:int -> size:int -> unit
(** Snapshot [\[addr,addr+size)] into the undo log unless an enclosing
    snapshot already covers it. *)

val add_range_unchecked : t -> addr:int -> size:int -> unit
(** Snapshot without the already-logged check — the redundant-logging
    bug injection hook. *)

val store_int : t -> addr:int -> int -> unit
(** [add_range] + store, the common idiom. *)

val commit : ?skip_flush_of:Pmem.Addr.range list -> t -> unit
(** Flush every snapshotted range, fence (the epoch barrier), end the
    epoch, then truncate the log (the durable commit point).
    [skip_flush_of] suppresses the flush of matching ranges — the
    lack-durability-in-epoch bug injection hook. *)

val abort : t -> unit
(** Restore every snapshotted range from the log, flush, fence, end
    the epoch and truncate the log. Aborts terminate the whole
    transaction, nesting included. *)

val depth : t -> int

val logged_ranges : t -> Pmem.Addr.range list

(** {1 Recovery} *)

val needs_recovery : Pmem.Image.t -> bool
(** True when a crash image contains a non-empty undo log. *)

val recover : Pmem.Image.t -> unit
(** Roll back the unfinished transaction recorded in the image's undo
    log (applies entries in reverse order, then truncates). *)
