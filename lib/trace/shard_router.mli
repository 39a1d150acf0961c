(** Sharded, domain-parallel detection: a library-only baseline. No
    [pmdb] command runs it; perfbench measures it against the plain
    detector, and it goes once that measurement is retired.

    A {!sink} fans the event stream out across [shards] workers, each
    owning its own bookkeeping and rule state, fed through bounded SPSC
    transports on OCaml Domains (or run inline for deterministic
    single-domain execution). Cache line [L] belongs to shard
    [L mod shards]; global events — fences, epochs, strands,
    registrations, program end — are broadcast to every worker in
    stream order, so shard [s] observes exactly the subsequence of the
    trace touching its lines, in trace order.

    {b Transport.} The router appends each routed event to the
    destination shard's open frame and publishes the frame over that
    shard's {!Spsc} queue once it holds 256 events. A frame is an
    immutable record of [Event.t] values with their stream seqs, replica
    silence flags and a stop flag; nothing is encoded. The worker runs
    a frame at a time and bumps its progress counter once per frame.
    Cross-shard barriers publish every shard's partial frame before
    waiting on worker progress, so a stall observes every event routed
    before it; [finish] sends each shard's tail in a last frame marked
    stop. With [~domains:false] the same per-frame step runs on the
    caller's domain at each publish, so frame boundaries match the
    domain run while scheduling stays deterministic.

    Routing paths for an address event (store / CLF):
    - {b fast}: a single unpinned line (or several lines, all one
      shard's and unpinned) — pushed to that shard's queue whole;
    - {b broadcast}: a single pinned line (see below) — pushed to every
      shard, silently except at the line's owner, so every replica
      stays current but the rules fire once, on the one shard holding
      every location overlapping that line;
    - {b stall}: lines spanning owners, or touching a pinned line — a
      cross-shard barrier: the router flushes partial frames, drains
      every queue, pins the lines (stores only: the spanning location
      it creates is replicated on every shard from here on), scans the
      event's {e full} range synchronously on every shard, merges the
      observations and fires the rule exactly once.

    No location is ever clipped at a shard boundary — a location's
    extent is observable (a partial overwrite unflushes the whole slot;
    findings report slot extents), so a clipped slot would evolve away
    from the single-shard run. Ranges that would need clipping are
    replicated whole instead, and the merge drops the byte-identical
    replica findings.

    Lines of [Register_var] ranges are pinned up front, so the
    broadcast order/durability rules evaluate identical variable state
    everywhere. Contract: [Register_var] must precede stores to its
    range.

    {b Equality contract.} The merged report's findings, causal chains
    and failure status are byte-identical (per
    {!Bug.render_canonical}) to the [shards = 1] run — inline and on
    domains, which the QCheck parity suites enforce — provided workers
    are created with [~walk_dedup:false] (the merge performs the
    pending-walk dedup globally), bookkeeping stays below the
    spill-tree merge threshold and the array capacity (reorganization
    coarsens provenance), and the per-kind cap never cuts between two
    findings of one seq (the merge caps in canonical order, the plain
    run in discovery order; both are sorted by seq, so only a cut
    inside an equal-seq run can keep different findings). The merge
    checks what it can see of the last two: when a shard report's
    ["reorganizations"] stat is positive, or the merged cap cuts inside
    an equal-seq run, the merged report's [failure] names the condition
    and the shard (or kind and seq), so callers treat the run as a
    detector failure instead of trusting findings that may differ. A
    run where only the unsharded detector would have reorganized (each
    shard's smaller partition stays below the threshold) is not
    detected. [stats] are merged over the union of
    keys across shards (summed per key; [avg_*] taken from the first
    shard carrying the key) rather than compared.

    The detector side of the contract is a {!worker} record
    ({!Pmdebugger.Detector.worker} builds one); this module has no
    dependency on any concrete detector. *)

type store_obs = { so_overlapped : bool; so_prior_seqs : int list }
(** The multiple-overwrites observation of one scan; [so_prior_seqs]
    sorted, deduped, capped at {!max_prior_seqs}. *)

type clf_obs = {
  co_matched : int;
  co_newly : int;
  co_redundant : (int * int * int * int) list;
      (** (addr, size, store seq, prior CLF seq) per already-flushed hit *)
}

type worker = {
  w_event : seq:int -> silent:bool -> Event.t -> unit;
      (** Process one whole event at stream position [seq]. [silent]
          runs all bookkeeping but suppresses findings (replica updates
          on non-owner shards). *)
  w_scan_store : seq:int -> tid:int -> lo:int -> hi:int -> store_obs;
      (** Stall path: track the store's full range and return the
          observation, without firing rules (but updating variable
          state). Called on every shard, from the router's domain,
          while the workers are drained. *)
  w_fire_store : seq:int -> addr:int -> size:int -> store_obs -> unit;
      (** Stall path: fire the store rules once with the merged
          observation and the event's full range. *)
  w_scan_clf : seq:int -> tid:int -> lo:int -> hi:int -> clf_obs;
  w_fire_clf : seq:int -> addr:int -> size:int -> clf_obs -> unit;
  w_finish : unit -> Bug.report;
}

val max_prior_seqs : int
(** Cap on merged [so_prior_seqs] (8) — the smallest seqs of the union
    across shards, which equals the single-shard cap because each
    shard's list is the smallest-8 of the locations it holds, every
    location is held by at least one shard, and replicas only
    contribute duplicate seqs, which the union drops. *)

val merge_store_obs : store_obs list -> store_obs

val merge_clf_obs : clf_obs list -> clf_obs

val sink :
  shards:int ->
  ?domains:bool
    (** default true: one OCaml Domain per shard. [false] runs every
        worker inline on the caller's domain, each frame as it is
        published. *) ->
  ?max_bugs_per_kind:int (** cap re-applied to the merged report, default 1000 *) ->
  (int -> worker) ->
  Sink.t
(** [sink ~shards make_worker] spawns the pipeline; [make_worker i] is
    called once per shard on the caller's domain. The sink's [finish]
    delivers an end-of-trace to every worker (idempotent when the trace
    already carried [Program_end]), publishes each shard's last frame
    marked stop, joins the domains, and returns the merged canonical
    report. *)
