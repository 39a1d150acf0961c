type mode = Hybrid | Tree_only

type t = {
  mode : mode;
  interval_metadata : bool;
  capacity : int;
  merge_threshold : int;
  metrics : Obs.Metrics.t;
  mutable slots : Slot.t array;  (* grown on demand, up to [capacity] *)
  mutable live : int;  (* number of appended slots in the current fence interval *)
  (* The CLF intervals of the current fence interval, in order;
     [metas.(nmetas - 1)] is the open one. Like the slots, they are
     reused in place after every fence. *)
  mutable metas : Clf_meta.t array;
  mutable nmetas : int;
  tree : Slot.payload Rangetree.t;
  (* Tree nodes whose payload has [p_epoch]: every tree insert and
     remove goes through [tree_add] / [tree_remove], which keep it, so
     the epoch-end query needs no tree walk. *)
  mutable epoch_nodes : int;
  (* Tree nodes flushed by CLFs since the last fence, oldest first, as
     parallel (lo, hi, payload) arrays: the fence removes exactly these
     instead of sweeping the whole tree, so a large spill tree of
     never-flushed locations costs fences nothing. *)
  mutable reg_lo : int array;
  mutable reg_hi : int array;
  mutable reg_p : Slot.payload array;
  mutable nreg : int;
  mutable last_reorg_size : int;
  (* Bounding box over everything currently tracked (array + tree), as
     half-open [bound_lo, bound_hi); empty when bound_lo >= bound_hi.
     Conservative — invalidations do not shrink it — and recomputed from
     the tree at each fence. A store or query outside the box skips the
     interval walk and the tree probe entirely. *)
  mutable bound_lo : int;
  mutable bound_hi : int;
  (* Fig. 11 sampling *)
  mutable fence_samples : int;
  mutable tree_size_sum : int;
  (* The last store's prior seqs: ascending, distinct, the smallest
     [max_prior_seqs] of them. *)
  priors : int array;
  mutable npriors : int;
}

(* The build has no flambda, so [Stdlib.min]/[max] and any untyped
   compare go through the polymorphic C primitives: the bookkeeping
   compares typed [int]s only (helpers are annotated where defined), and
   passes ranges as [lo]/[hi] pairs rather than [Addr.range] records. *)
let imin (a : int) b = if a <= b then a else b

let imax (a : int) b = if a >= b then a else b

(* [Addr.overlaps] on [lo1, hi1) and [lo2, hi2): they share a byte. *)
let[@inline] overlaps (lo1 : int) hi1 lo2 hi2 = lo1 < hi2 && lo2 < hi1 && lo1 < hi1 && lo2 < hi2

(* Cap on prior-store seqs kept per store: causal chains need the
   earliest few overwritten stores, not an unbounded history under hot
   addresses. The cross-shard merge re-caps the union of per-shard
   lists, so both must use one constant. *)
let max_prior_seqs = Pmtrace.Shard_router.max_prior_seqs

(* Slots allocated up front. The array doubles from here when a fence
   interval fills it, and its slots are reused in place after every
   fence, so once it has grown to the largest interval no store
   allocates. *)
let initial_slots = 64

let create ?(array_capacity = 100_000) ?(merge_threshold = 500) ?(mode = Hybrid) ?(interval_metadata = true)
    ?(metrics = Obs.Metrics.disabled) () =
  let capacity = match mode with Tree_only -> 0 | Hybrid -> array_capacity in
  (* Pre-declare the hit/spill pair so every snapshot shows both sides
     of the hybrid, zeros included. *)
  if Obs.Metrics.is_on metrics then begin
    Obs.Metrics.inc metrics ~by:0 "space_array_hits_total";
    Obs.Metrics.inc metrics ~by:0 "space_tree_spills_total";
    Obs.Metrics.inc metrics ~by:0 "space_bounds_skips_total"
  end;
  let slots = Array.init (imin capacity initial_slots) (fun _ -> Slot.fresh ()) in
  Obs.Metrics.max_set metrics "space_array_slots_peak" (float_of_int (Array.length slots));
  {
    mode;
    interval_metadata;
    capacity;
    merge_threshold;
    metrics;
    slots;
    live = 0;
    metas = [| Clf_meta.make ~start_idx:0 |];
    nmetas = 1;
    tree = Rangetree.create ();
    epoch_nodes = 0;
    reg_lo = [||];
    reg_hi = [||];
    reg_p = [||];
    nreg = 0;
    last_reorg_size = 0;
    bound_lo = max_int;
    bound_hi = min_int;
    fence_samples = 0;
    tree_size_sum = 0;
    priors = Array.make max_prior_seqs 0;
    npriors = 0;
  }

(* Double the slot array, capped at [capacity]; only called when every
   slot is live and [live < capacity]. *)
let grow t =
  let n = Array.length t.slots in
  let extra = imin t.capacity (2 * n) - n in
  t.slots <- Array.append t.slots (Array.init extra (fun _ -> Slot.fresh ()));
  Obs.Metrics.max_set t.metrics "space_array_slots_peak" (float_of_int (Array.length t.slots))

let[@inline] bounds_add t ~lo ~hi =
  if lo < t.bound_lo then t.bound_lo <- lo;
  if hi > t.bound_hi then t.bound_hi <- hi

(* The range cannot touch anything tracked: nothing lives outside the
   bounding box. *)
let[@inline] bounds_miss t ~lo ~hi = hi <= t.bound_lo || lo >= t.bound_hi

let[@inline] meta_empty (m : Clf_meta.t) = m.Clf_meta.end_idx < m.Clf_meta.start_idx

(* Effective flushing state of a slot, accounting for the collective
   interval state (slots of an All_flushed interval are flushed even when
   their individual flag was never touched). *)
let[@inline] slot_flushed (m : Clf_meta.t) (s : Slot.t) = s.Slot.flushed || m.Clf_meta.state = Clf_meta.All_flushed

let tree_add t ~lo ~hi (p : Slot.payload) =
  if p.Slot.p_epoch then t.epoch_nodes <- t.epoch_nodes + 1;
  Rangetree.insert t.tree ~lo ~hi p

let tree_remove t ~lo ~hi (p : Slot.payload) =
  if Rangetree.remove t.tree ~lo ~hi p && p.Slot.p_epoch then t.epoch_nodes <- t.epoch_nodes - 1

let count_epoch_nodes t =
  let n = ref 0 in
  Rangetree.iter t.tree (fun ~lo:_ ~hi:_ (p : Slot.payload) -> if p.Slot.p_epoch then incr n);
  !n

let tree_insert_payload t ~lo ~hi (p : Slot.payload) =
  bounds_add t ~lo ~hi;
  tree_add t ~lo ~hi p

let register t ~lo ~hi (p : Slot.payload) =
  let i = t.nreg in
  if i = Array.length t.reg_lo then begin
    let cap = imax 16 (2 * i) in
    t.reg_lo <- Array.append t.reg_lo (Array.make (cap - i) 0);
    t.reg_hi <- Array.append t.reg_hi (Array.make (cap - i) 0);
    t.reg_p <- Array.append t.reg_p (Array.make (cap - i) p)
  end;
  t.reg_lo.(i) <- lo;
  t.reg_hi.(i) <- hi;
  t.reg_p.(i) <- p;
  t.nreg <- i + 1

(* Drop the pending-flush registration of a superseded tree node, so
   the registrations stay proportional to the interval's live flushed
   nodes even under hot addresses. Identity plus exact range keeps
   split pieces that share a payload distinct. The entry is usually the
   newest, so the scan starts there; later entries shift down, keeping
   the fence's removal order. *)
let unregister t ~lo ~hi (p : Slot.payload) =
  let i = ref (t.nreg - 1) in
  while !i >= 0 && not (t.reg_p.(!i) == p && t.reg_lo.(!i) = lo && t.reg_hi.(!i) = hi) do
    decr i
  done;
  if !i >= 0 then begin
    let tail = t.nreg - 1 - !i in
    Array.blit t.reg_lo (!i + 1) t.reg_lo !i tail;
    Array.blit t.reg_hi (!i + 1) t.reg_hi !i tail;
    Array.blit t.reg_p (!i + 1) t.reg_p !i tail;
    t.nreg <- t.nreg - 1
  end

(* Keep [seq] among the store's priors: the sorted, distinct, smallest
   [max_prior_seqs] seqs, which is canonical provenance independent of
   the bookkeeping walk order (array vs tree vs hybrid). *)
let add_prior t seq =
  let n = t.npriors and a = t.priors in
  if n < max_prior_seqs || seq < a.(n - 1) then begin
    let i = ref 0 in
    while !i < n && a.(!i) < seq do
      incr i
    done;
    if !i = n || a.(!i) <> seq then begin
      let last = if n < max_prior_seqs then n else n - 1 in
      for j = last downto !i + 1 do
        a.(j) <- a.(j - 1)
      done;
      a.(!i) <- seq;
      if n < max_prior_seqs then t.npriors <- n + 1
    end
  end

let prior_seqs t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.priors.(i) :: acc) in
  go (t.npriors - 1) []

(* A remainder of a partially overwritten flushed tree node: it stays
   flushed (its bytes' lines are not dirty again), and is registered so
   the next fence still drops it. *)
let insert_flushed_piece t ~lo ~hi (p : Slot.payload) =
  let fp = { p with Slot.p_flushed = true } in
  register t ~lo ~hi fp;
  tree_add t ~lo ~hi fp

(* A store dirties its cache line again: any tracked overlapping
   location that was flushed (but not yet fenced) loses its flushed
   state, exactly as the hardware voids a CLWB that precedes a new
   store. Returns whether any tracked location overlapped — the
   observation the multiple-overwrites rule needs, collected here so the
   store path scans the bookkeeping space once — and leaves the
   overlapped stores' seqs in [priors] when [need_overlap]. *)
let unflush_overlaps t ~need_overlap ~lo ~hi =
  t.npriors <- 0;
  if bounds_miss t ~lo ~hi then begin
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    false
  end
  else begin
    let found = ref false in
    for k = 0 to t.nmetas - 1 do
      let m = t.metas.(k) in
      (* Every overlapping interval is scanned whatever its flush state:
         superseding fully-covered slots is observable (pending walks,
         later CLF match counts), and skipping it for all-unflushed
         intervals — the former Pattern 3 fast path — made that outcome
         depend on the flush state of unrelated slots sharing the
         interval: a cross-line effect that diverged from the tree mode and
         the flat oracle and broke shard parity. [need_overlap] now gates
         only the prior-seq observation. *)
      if (not (meta_empty m)) && overlaps m.Clf_meta.min_addr m.Clf_meta.max_addr lo hi then begin
        (* Demote a collectively-flushed interval before touching
           individual slots: the collective bit stands for every
           slot's state (and the collective CLF seq for every slot's
           flush provenance). *)
        if t.interval_metadata && m.Clf_meta.state = Clf_meta.All_flushed then begin
          for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
            let s = t.slots.(i) in
            if s.Slot.valid then begin
              s.Slot.flushed <- true;
              if s.Slot.clf_seq < 0 then s.Slot.clf_seq <- m.Clf_meta.clf_seq
            end
          done;
          m.Clf_meta.state <- Clf_meta.Partially_flushed
        end;
        for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
          let s = t.slots.(i) in
          let s_hi = s.Slot.addr + s.Slot.size in
          if s.Slot.valid && overlaps s.Slot.addr s_hi lo hi then begin
            found := true;
            if need_overlap then add_prior t s.Slot.seq;
            (* A fully covered slot is superseded outright (the new
               store re-tracks the address); partial overlaps merely
               lose their flushed state. *)
            if lo <= s.Slot.addr && s_hi <= hi then begin
              s.Slot.valid <- false;
              m.Clf_meta.invalidated <- m.Clf_meta.invalidated + 1
            end
            else if s.Slot.flushed then begin
              s.Slot.flushed <- false;
              s.Slot.clf_seq <- -1
            end
          end
        done
      end
    done;
    (* Tree nodes: a fully covered node is superseded outright (the new
       store re-tracks the address), preventing stale duplicates from
       piling up under hot addresses; a partially covered flushed node
       keeps only its non-overlapped parts flushed — marking the whole
       region unflushed would orphan bytes whose lines are no longer
       dirty. Either way the node's pending-flush registration, if any,
       points at a node that no longer exists. *)
    let hits = Rangetree.collect_overlapping t.tree ~lo ~hi in
    for i = 0 to hits - 1 do
      let rlo = Rangetree.hit_lo t.tree i and rhi = Rangetree.hit_hi t.tree i in
      let p = Rangetree.hit_data t.tree i in
      if need_overlap then add_prior t p.Slot.p_seq;
      if lo <= rlo && rhi <= hi then begin
        if p.Slot.p_flushed then unregister t ~lo:rlo ~hi:rhi p;
        tree_remove t ~lo:rlo ~hi:rhi p
      end
      else if p.Slot.p_flushed then begin
        unregister t ~lo:rlo ~hi:rhi p;
        tree_remove t ~lo:rlo ~hi:rhi p;
        (* The hit meets [lo, hi), so its remainders are [rlo, lo) and
           [hi, rhi), each when non-empty. *)
        if rlo < lo then insert_flushed_piece t ~lo:rlo ~hi:lo p;
        if hi < rhi then insert_flushed_piece t ~lo:hi ~hi:rhi p
      end
    done;
    !found || hits > 0
  end

let process_store t ~check_overlap ~addr ~size ~epoch ~seq ~tid ~strand =
  let hi = addr + size in
  let overlapped = unflush_overlaps t ~need_overlap:check_overlap ~lo:addr ~hi in
  if t.mode = Tree_only || t.live >= t.capacity then begin
    (* Rare overflow path (§4.1): spill straight to the tree. *)
    tree_insert_payload t ~lo:addr ~hi
      { Slot.p_flushed = false; p_epoch = epoch; p_seq = seq; p_tid = tid; p_strand = strand; p_clf_seq = -1; p_fence_seq = -1 };
    Obs.Metrics.inc t.metrics "space_tree_spills_total"
  end
  else begin
    let idx = t.live in
    if idx = Array.length t.slots then grow t;
    Slot.fill t.slots.(idx) ~addr ~size ~epoch ~seq ~tid ~strand;
    t.live <- idx + 1;
    bounds_add t ~lo:addr ~hi;
    Clf_meta.note_store t.metas.(t.nmetas - 1) ~idx ~lo:addr ~hi;
    Obs.Metrics.inc t.metrics "space_array_hits_total";
    if Obs.Metrics.is_on t.metrics then
      Obs.Metrics.max_set t.metrics "space_array_live_peak" (float_of_int t.live)
  end;
  overlapped

(* Array index of the first valid slot overlapping [lo, hi), in interval
   order, or -1. *)
let first_slot_overlap t ~lo ~hi =
  let found = ref (-1) in
  let k = ref 0 in
  while !found < 0 && !k < t.nmetas do
    let m = t.metas.(!k) in
    if (not (meta_empty m)) && overlaps m.Clf_meta.min_addr m.Clf_meta.max_addr lo hi then begin
      let i = ref m.Clf_meta.start_idx in
      while !found < 0 && !i <= m.Clf_meta.end_idx do
        let s = t.slots.(!i) in
        if s.Slot.valid && overlaps s.Slot.addr (s.Slot.addr + s.Slot.size) lo hi then found := !i;
        incr i
      done
    end;
    incr k
  done;
  !found

let has_pending_overlap t ~lo ~hi =
  if bounds_miss t ~lo ~hi then begin
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    false
  end
  else first_slot_overlap t ~lo ~hi >= 0 || Rangetree.exists_overlap t.tree ~lo ~hi

type clf_result = {
  matched : int;
  newly_flushed : int;
  redundant : (int * int) list;
  redundant_prov : (int * int) list;
}

let no_clf_hits = { matched = 0; newly_flushed = 0; redundant = []; redundant_prov = [] }

(* Split a partially covered slot (§4.3): the covered part stays in the
   array (flushed); uncovered remainders go to the tree, not flushed. *)
let split_slot t (s : Slot.t) ~lo ~hi ~seq =
  let s_hi = s.Slot.addr + s.Slot.size in
  let clo = imax s.Slot.addr lo and chi = imin s_hi hi in
  if clo < chi then begin
    let rest ~lo ~hi =
      tree_insert_payload t ~lo ~hi
        {
          Slot.p_flushed = false;
          p_epoch = s.Slot.epoch;
          p_seq = s.Slot.seq;
          p_tid = s.Slot.tid;
          p_strand = s.Slot.strand;
          p_clf_seq = -1;
          p_fence_seq = -1;
        }
    in
    if s.Slot.addr < clo then rest ~lo:s.Slot.addr ~hi:clo;
    if chi < s_hi then rest ~lo:chi ~hi:s_hi;
    s.Slot.addr <- clo;
    s.Slot.size <- chi - clo;
    s.Slot.flushed <- true;
    s.Slot.clf_seq <- seq
  end

(* Close the current CLF interval and open the next (§4.3). *)
let close_interval t =
  if not (meta_empty t.metas.(t.nmetas - 1)) then begin
    let n = t.nmetas in
    if n = Array.length t.metas then
      t.metas <- Array.append t.metas (Array.init n (fun _ -> Clf_meta.make ~start_idx:0));
    Clf_meta.reset t.metas.(n) ~start_idx:t.live;
    t.nmetas <- n + 1
  end

(* Back to one empty interval at slot 0. *)
let reset_intervals t =
  Clf_meta.reset t.metas.(0) ~start_idx:0;
  t.nmetas <- 1

let process_clf t ~seq ~lo ~hi =
  if bounds_miss t ~lo ~hi then begin
    (* Nothing tracked can overlap, but the CLF still ends the current
       interval. *)
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    close_interval t;
    no_clf_hits
  end
  else begin
    let matched = ref 0 in
    let newly = ref 0 in
    let redundant = ref [] in
    let redundant_prov = ref [] in
    for k = 0 to t.nmetas - 1 do
      let m = t.metas.(k) in
      if (not (meta_empty m)) && overlaps m.Clf_meta.min_addr m.Clf_meta.max_addr lo hi then begin
        if
          t.interval_metadata && lo <= m.Clf_meta.min_addr && m.Clf_meta.max_addr <= hi
          && m.Clf_meta.state = Clf_meta.Not_flushed
        then begin
          (* Collective update (Pattern 2): one metadata write covers
             every location of the interval. Slots need no individual
             state change; superseded (invalidated) slots are excluded
             from the counts — they are no longer tracked locations.
             The interval records this CLF's seq as the shared flush
             provenance of every slot it covers. *)
          let n = m.Clf_meta.end_idx - m.Clf_meta.start_idx + 1 - m.Clf_meta.invalidated in
          matched := !matched + n;
          newly := !newly + n;
          m.Clf_meta.state <- Clf_meta.All_flushed;
          m.Clf_meta.clf_seq <- seq;
          Obs.Metrics.inc t.metrics "space_collective_clf_total"
        end
        else begin
          for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
            let s = t.slots.(i) in
            let s_hi = s.Slot.addr + s.Slot.size in
            if s.Slot.valid && overlaps s.Slot.addr s_hi lo hi then begin
              incr matched;
              if slot_flushed m s then begin
                redundant := (s.Slot.addr, s.Slot.size) :: !redundant;
                let prior = if s.Slot.clf_seq >= 0 then s.Slot.clf_seq else m.Clf_meta.clf_seq in
                redundant_prov := (s.Slot.seq, prior) :: !redundant_prov
              end
              else if lo <= s.Slot.addr && s_hi <= hi then begin
                s.Slot.flushed <- true;
                s.Slot.clf_seq <- seq;
                incr newly
              end
              else begin
                split_slot t s ~lo ~hi ~seq;
                incr newly
              end
            end
          done;
          if t.interval_metadata && m.Clf_meta.state = Clf_meta.Not_flushed then
            m.Clf_meta.state <- Clf_meta.Partially_flushed
        end
      end
    done;
    (* Then the tree (§4.3): update flushing state of overlapping nodes,
       splitting partially covered ones. *)
    let hits = Rangetree.collect_overlapping t.tree ~lo ~hi in
    for i = 0 to hits - 1 do
      let rlo = Rangetree.hit_lo t.tree i and rhi = Rangetree.hit_hi t.tree i in
      let p = Rangetree.hit_data t.tree i in
      if p.Slot.p_flushed then begin
        redundant := (rlo, rhi - rlo) :: !redundant;
        redundant_prov := (p.Slot.p_seq, p.Slot.p_clf_seq) :: !redundant_prov
      end
      else if lo <= rlo && rhi <= hi then begin
        p.Slot.p_flushed <- true;
        p.Slot.p_clf_seq <- seq;
        incr newly;
        register t ~lo:rlo ~hi:rhi p
      end
      else begin
        let clo = imax rlo lo and chi = imin rhi hi in
        if clo < chi then begin
          incr newly;
          let fp = { p with Slot.p_flushed = true; p_clf_seq = seq } in
          register t ~lo:clo ~hi:chi fp;
          tree_remove t ~lo:rlo ~hi:rhi p;
          tree_add t ~lo:clo ~hi:chi fp;
          if rlo < clo then tree_add t ~lo:rlo ~hi:clo { p with Slot.p_flushed = false; p_clf_seq = -1 };
          if chi < rhi then tree_add t ~lo:chi ~hi:rhi { p with Slot.p_flushed = false; p_clf_seq = -1 }
        end
      end
    done;
    close_interval t;
    {
      matched = !matched + hits;
      newly_flushed = !newly;
      redundant = List.rev !redundant;
      redundant_prov = List.rev !redundant_prov;
    }
  end

let process_fence t ~seq =
  (* Tree first (§4.4): drop the nodes this fence interval's CLFs
     flushed (unless a later store un-flushed or superseded them),
     newest registration first. *)
  for i = t.nreg - 1 downto 0 do
    let p = t.reg_p.(i) in
    if p.Slot.p_flushed then tree_remove t ~lo:t.reg_lo.(i) ~hi:t.reg_hi.(i) p
  done;
  t.nreg <- 0;
  (* Array: per interval, All_flushed drops wholesale (metadata
     invalidation only); otherwise flushed slots drop and unflushed
     slots migrate to the tree. A migrating payload is stamped with
     this fence's seq — the first fence the location crossed without
     persisting, which causal chains report; tree survivors keep the
     stamp of their own first crossing (no O(tree) sweep). *)
  let migrated = ref 0 in
  for k = 0 to t.nmetas - 1 do
    let m = t.metas.(k) in
    if not (meta_empty m || (t.interval_metadata && m.Clf_meta.state = Clf_meta.All_flushed)) then
      for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
        let s = t.slots.(i) in
        if s.Slot.valid && not (slot_flushed m s) then begin
          let p = Slot.payload_of s in
          p.Slot.p_fence_seq <- seq;
          tree_insert_payload t ~lo:s.Slot.addr ~hi:(s.Slot.addr + s.Slot.size) p;
          incr migrated
        end
      done
  done;
  if Obs.Metrics.is_on t.metrics then begin
    Obs.Metrics.inc t.metrics ~by:!migrated "space_fence_migrations_total";
    Obs.Metrics.max_set t.metrics "space_tree_size_peak" (float_of_int (Rangetree.size t.tree))
  end;
  t.live <- 0;
  reset_intervals t;
  (* Merge only past the threshold (§4.4) and only when the tree has
     actually grown since the last pass — re-merging an unmergeable
     tree at every fence would be quadratic. *)
  if Rangetree.size t.tree > t.merge_threshold && Rangetree.size t.tree >= t.last_reorg_size + (t.merge_threshold / 2)
  then begin
    t.last_reorg_size <- Rangetree.size t.tree;
    Rangetree.reorganize t.tree
      ~eq:(fun (a : Slot.payload) b -> a.Slot.p_flushed = b.Slot.p_flushed && a.Slot.p_epoch = b.Slot.p_epoch && a.Slot.p_strand = b.Slot.p_strand)
      ~merge:(fun a b -> if a.Slot.p_seq >= b.Slot.p_seq then a else b);
    t.epoch_nodes <- count_epoch_nodes t;
    Obs.Metrics.inc t.metrics "space_reorganizations_total";
    Obs.Metrics.inc t.metrics ~by:(imax 0 (t.last_reorg_size - Rangetree.size t.tree)) "space_interval_merges_total";
    t.last_reorg_size <- Rangetree.size t.tree
  end;
  (* The array is empty again: only the tree bounds the tracked set. *)
  t.bound_lo <- Rangetree.min_lo t.tree;
  t.bound_hi <- Rangetree.max_hi t.tree

let fold_pending t ~init ~f =
  let acc = ref init in
  for k = 0 to t.nmetas - 1 do
    let m = t.metas.(k) in
    if not (meta_empty m) then
      for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
        let s = t.slots.(i) in
        if s.Slot.valid then begin
          (* Individually flushed slots carry their own CLF seq; a slot
             flushed only via the collective interval state inherits the
             interval's. An unflushed slot reports none, even when its
             interval was flushed collectively before a partial
             overwrite dirtied it again. *)
          let flushed = slot_flushed m s in
          let clf_seq =
            if not flushed then -1 else if s.Slot.clf_seq >= 0 then s.Slot.clf_seq else m.Clf_meta.clf_seq
          in
          acc :=
            f !acc ~addr:s.Slot.addr ~size:s.Slot.size ~flushed ~epoch:s.Slot.epoch ~seq:s.Slot.seq ~clf_seq
              ~fence_seq:(-1)
        end
      done
  done;
  Rangetree.iter t.tree (fun ~lo ~hi (p : Slot.payload) ->
      acc :=
        f !acc ~addr:lo ~size:(hi - lo) ~flushed:p.Slot.p_flushed ~epoch:p.Slot.p_epoch ~seq:p.Slot.p_seq
          ~clf_seq:p.Slot.p_clf_seq ~fence_seq:p.Slot.p_fence_seq);
  !acc

exception Found

(* The array holds one fence interval; the tree's answer is its count. *)
let exists_epoch_pending t =
  t.epoch_nodes > 0
  ||
  try
    for k = 0 to t.nmetas - 1 do
      let m = t.metas.(k) in
      if not (meta_empty m) then
        for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
          let s = t.slots.(i) in
          if s.Slot.valid && s.Slot.epoch then raise_notrace Found
        done
    done;
    false
  with Found -> true

let iter_pending t f =
  fold_pending t ~init:() ~f:(fun () ~addr ~size ~flushed ~epoch ~seq ~clf_seq ~fence_seq ->
      f ~addr ~size ~flushed ~epoch ~seq ~clf_seq ~fence_seq)

let pending_count t =
  fold_pending t ~init:0 ~f:(fun acc ~addr:_ ~size:_ ~flushed:_ ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ -> acc + 1)

let clear t =
  t.live <- 0;
  reset_intervals t;
  Rangetree.clear t.tree;
  t.epoch_nodes <- 0;
  (* Forget everything derived from the cleared contents: pending flush
     registrations would replay pre-clear bookkeeping into the next
     fence, and a stale reorg baseline suppresses merging until the
     empty tree regrows past the pre-clear high-water mark. *)
  t.nreg <- 0;
  t.last_reorg_size <- 0;
  t.bound_lo <- max_int;
  t.bound_hi <- min_int

let tree_size t = Rangetree.size t.tree

let check_invariants t =
  let walked = count_epoch_nodes t in
  if t.epoch_nodes <> walked then
    failwith (Printf.sprintf "Space: %d epoch tree nodes counted, %d found by a walk" t.epoch_nodes walked)

let array_live t = t.live

let note_fence_sample t =
  t.fence_samples <- t.fence_samples + 1;
  t.tree_size_sum <- t.tree_size_sum + Rangetree.size t.tree

let avg_tree_nodes_per_fence t =
  if t.fence_samples = 0 then 0.0 else float_of_int t.tree_size_sum /. float_of_int t.fence_samples

let reorganizations t = (Rangetree.stats t.tree).Rangetree.reorganizations

let stats t =
  [
    ("tree_size", float_of_int (tree_size t));
    ("tree_flushed_nodes", float_of_int t.nreg);
    ("tree_max_size", float_of_int (Rangetree.stats t.tree).Rangetree.max_size);
    ("array_live", float_of_int t.live);
    ("array_slots", float_of_int (Array.length t.slots));
    ("avg_tree_nodes_per_fence", avg_tree_nodes_per_fence t);
    ("reorganizations", float_of_int (reorganizations t));
    ("rotations", float_of_int (Rangetree.stats t.tree).Rangetree.rotations);
  ]
