(** One bookkeeping space: memory-location array + CLF-interval
    metadata + AVL spill tree (§4.1).

    The space implements the three processing algorithms of §4.2–4.4 as
    pure bookkeeping; it reports the observations the detection rules
    need (overlaps found, redundant flushes, interval survivals) but
    emits no bugs itself. A strict/epoch-model detector owns one space;
    a strand-model detector owns one per strand section (§5.1).

    The location array is allocated on demand: it starts at 64 slots
    (fewer if [array_capacity] is smaller) and doubles whenever every
    slot is live, up to [array_capacity]. Slots are reused in place
    after each fence, so memory follows the largest fence interval
    rather than the capacity, and once the array has grown to it no
    store allocates. The §4.1 overflow rule is unaffected: a store
    spills to the tree exactly when [array_capacity] slots are live.

    Ablation knobs (see DESIGN.md): [mode] selects the hybrid design or
    the degenerate tree-only variant, and
    [interval_metadata] disables the collective per-interval state so
    that every CLF and fence must visit slots individually. *)

type mode = Hybrid | Tree_only

type t

val create :
  ?array_capacity:int
    (** maximum live slots per fence interval before stores spill to the
        tree; default 100_000 (§4.1). Slots are allocated as intervals
        need them, not up front. *) ->
  ?merge_threshold:int (** default 500 (§4.4) *) ->
  ?mode:mode ->
  ?interval_metadata:bool ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  t
(** [metrics] (default disabled) receives the bookkeeping telemetry of
    Figs. 10–12: [space_array_hits_total] vs [space_tree_spills_total],
    [space_collective_clf_total] (Pattern-2 interval updates),
    [space_fence_migrations_total], [space_reorganizations_total],
    [space_interval_merges_total] (nodes merged away by reorganizing),
    [space_bounds_skips_total] (stores/CLFs/queries answered from the
    global bounding box without walking intervals or probing the tree)
    and the [space_array_live_peak] / [space_tree_size_peak] gauges.
    [space_array_slots_peak] is the largest slot array allocated (the
    initial slots at creation, then each growth step); like the live
    peak it is deterministic for a given trace. *)

(** {1 Processing} *)

val process_store :
  t ->
  check_overlap:bool ->
  addr:int ->
  size:int ->
  epoch:bool ->
  seq:int ->
  tid:int ->
  strand:int ->
  bool
(** §4.2: append to the array (spilling to the tree when full) and
    update the current CLF interval's metadata. Tracked overlapping
    locations that were flushed but not fenced lose their flushed state
    (the line is dirty again). Returns the multiple-overwrites
    observation: whether some tracked location overlapped the store.
    With [~check_overlap:false] (the overwrite rule is off) the store
    keeps no prior seqs. The common store — appended to the array,
    overlapping nothing — allocates nothing. *)

val prior_seqs : t -> int list
(** Store seqs of the locations the last {!process_store} overlapped —
    sorted ascending, deduplicated, capped at
    {!Pmtrace.Shard_router.max_prior_seqs} (canonical regardless of
    bookkeeping mode); the causal history of a multiple-overwrites
    finding. Empty under [~check_overlap:false]. After tree merges a
    merged node keeps only its newest store's seq. Built on demand, so
    a caller that drops the finding as a duplicate never pays for it. *)

type clf_result = {
  matched : int;  (** tracked locations the flush covered (fully or partly) *)
  newly_flushed : int;  (** covered locations that were not already flushed *)
  redundant : (int * int) list;  (** (addr, size) of already-flushed hits *)
  redundant_prov : (int * int) list;
      (** (store seq, prior CLF seq) per redundant hit, aligned with
          [redundant]; prior CLF seq is -1 when the earlier flush
          predates seq stamping (a CLF processed with [~seq:(-1)]) *)
}

val process_clf : t -> seq:int -> lo:int -> hi:int -> clf_result
(** §4.3: update flushing states collectively via interval metadata,
    split partially covered locations (unflushed remainder goes to the
    tree), then update the tree; finally open a new CLF interval.
    [seq] (-1 = unstamped) is this CLF's event sequence number,
    recorded as flush provenance on every location it newly covers —
    individually on slots and tree nodes, collectively on an interval's
    metadata when the Pattern-2 fast path applies. *)

val process_fence : t -> seq:int -> unit
(** §4.4: tree first — drop persisted nodes; then the array — drop
    flushed entries collectively per interval, migrate survivors to the
    tree; reset the array and metadata; merge the tree when it exceeds
    the threshold. [seq] (-1 = unstamped) stamps payloads migrating to the
    tree with the fence they crossed unpersisted; nodes already in the
    tree keep the stamp of their first crossing. *)

(** {1 Queries for rules} *)

val has_pending_overlap : t -> lo:int -> hi:int -> bool
(** Any tracked (not yet durable) location overlapping the range? *)

val exists_epoch_pending : t -> bool
(** Any tracked location whose store came from an epoch section? Walks
    the current fence interval's array slots, not the tree: the space
    counts its epoch tree nodes as they are inserted and removed. *)

val iter_pending :
  t ->
  (addr:int -> size:int -> flushed:bool -> epoch:bool -> seq:int -> clf_seq:int -> fence_seq:int -> unit) ->
  unit
(** Every tracked location, with its current flushing state and
    provenance: [seq] of the originating store, [clf_seq] of the CLF
    that flushed it (-1 if unflushed; collective flushes report the
    interval's CLF), [fence_seq] of the first fence it crossed
    unpersisted (-1 while still in the array). *)

val pending_count : t -> int

val clear : t -> unit

(** {1 Statistics} *)

val tree_size : t -> int

val check_invariants : t -> unit
(** Raises [Failure] when the count of epoch tree nodes differs from a
    walk of the tree. For tests. *)

val array_live : t -> int

val note_fence_sample : t -> unit
(** Record the current tree size as one fence-interval sample
    (Fig. 11). Called by the detector at each fence. *)

val avg_tree_nodes_per_fence : t -> float

val reorganizations : t -> int

val stats : t -> (string * float) list
(** Tree and array statistics by name, among them [array_live] (slots
    appended in the current fence interval) and [array_slots] (slots
    allocated so far: at most [array_capacity]). *)
