open Pmem

type mode = Hybrid | Tree_only

type t = {
  mode : mode;
  interval_metadata : bool;
  capacity : int;
  merge_threshold : int;
  metrics : Obs.Metrics.t;
  mutable slots : Slot.t array;  (* grown on demand, up to [capacity] *)
  mutable live : int;  (* number of appended slots in the current fence interval *)
  mutable first_meta : Clf_meta.t;
  mutable cur_meta : Clf_meta.t;
  tree : Slot.payload Rangetree.t;
  (* Tree nodes flushed by CLFs since the last fence: the fence removes
     exactly these instead of sweeping the whole tree, so a large spill
     tree of never-flushed locations costs fences nothing. *)
  mutable tree_flushed_nodes : (int * int * Slot.payload) list;
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
}

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
  let slots = Array.init (min capacity initial_slots) (fun _ -> Slot.fresh ()) in
  Obs.Metrics.max_set metrics "space_array_slots_peak" (float_of_int (Array.length slots));
  let meta = Clf_meta.make ~start_idx:0 in
  {
    mode;
    interval_metadata;
    capacity;
    merge_threshold;
    metrics;
    slots;
    live = 0;
    first_meta = meta;
    cur_meta = meta;
    tree = Rangetree.create ();
    tree_flushed_nodes = [];
    last_reorg_size = 0;
    bound_lo = max_int;
    bound_hi = min_int;
    fence_samples = 0;
    tree_size_sum = 0;
  }

(* Double the slot array, capped at [capacity]; only called when every
   slot is live and [live < capacity]. *)
let grow t =
  let n = Array.length t.slots in
  let extra = min t.capacity (2 * n) - n in
  t.slots <- Array.append t.slots (Array.init extra (fun _ -> Slot.fresh ()));
  Obs.Metrics.max_set t.metrics "space_array_slots_peak" (float_of_int (Array.length t.slots))

let bounds_add t ~lo ~hi =
  if lo < t.bound_lo then t.bound_lo <- lo;
  if hi > t.bound_hi then t.bound_hi <- hi

(* The range cannot touch anything tracked: nothing lives outside the
   bounding box. *)
let bounds_miss t ~lo ~hi = hi <= t.bound_lo || lo >= t.bound_hi

let bounds_reset_from_tree t =
  match Rangetree.bounds t.tree with
  | None ->
      t.bound_lo <- max_int;
      t.bound_hi <- min_int
  | Some (lo, hi) ->
      t.bound_lo <- lo;
      t.bound_hi <- hi

let iter_metas t f =
  let rec go m =
    f m;
    match m.Clf_meta.next with None -> () | Some n -> go n
  in
  go t.first_meta

(* Effective flushing state of a slot, accounting for the collective
   interval state (slots of an All_flushed interval are flushed even when
   their individual flag was never touched). *)
let slot_flushed t (m : Clf_meta.t) (s : Slot.t) =
  ignore t;
  s.Slot.flushed || m.Clf_meta.state = Clf_meta.All_flushed

let tree_insert_payload t ~lo ~hi (p : Slot.payload) =
  bounds_add t ~lo ~hi;
  Rangetree.insert t.tree ~lo ~hi p

(* A store dirties its cache line again: any tracked overlapping
   location that was flushed (but not yet fenced) loses its flushed
   state, exactly as the hardware voids a CLWB that precedes a new
   store. Returns whether any tracked location overlapped — the
   observation the multiple-overwrites rule needs, collected here so the
   store path scans the bookkeeping space once. *)
(* Drop the pending-flush registration of a superseded tree node, so
   the registration list stays proportional to the interval's live
   flushed nodes even under hot addresses. Identity plus exact range
   keeps split pieces that share a payload distinct. *)
let purge_registration t ~lo ~hi (p : Slot.payload) =
  if t.tree_flushed_nodes <> [] then
    t.tree_flushed_nodes <-
      List.filter (fun (flo, fhi, fp) -> not (fp == p && flo = lo && fhi = hi)) t.tree_flushed_nodes

(* Cap on prior-store seqs collected per store: causal chains need the
   earliest few overwritten stores, not an unbounded history under hot
   addresses. The cross-shard merge re-caps the union of per-shard
   lists, so both must use one constant. *)
let max_prior_seqs = Pmtrace.Shard_router.max_prior_seqs

let unflush_overlaps t ~need_overlap ~lo ~hi =
  if bounds_miss t ~lo ~hi then begin
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    (false, [])
  end
  else begin
  let probe = Addr.range ~lo ~hi in
  let found = ref false in
  let priors = ref [] in
  let note_prior seq =
    found := true;
    if need_overlap then priors := seq :: !priors
  in
  let visit_meta (m : Clf_meta.t) =
    (* Every overlapping interval is scanned whatever its flush state:
       superseding fully-covered slots is observable (pending walks,
       later CLF match counts), and skipping it for all-unflushed
       intervals — the former Pattern 3 fast path — made that outcome
       depend on the flush state of unrelated slots sharing the
       interval: a cross-line effect that diverged from the tree mode and
       the flat oracle and broke shard parity. [need_overlap] now gates
       only the prior-seq observation. *)
    if not (Clf_meta.is_empty m) then
      match Clf_meta.addr_range m with
      | Some r when Addr.overlaps r probe ->
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
            if s.Slot.valid && Addr.overlaps (Slot.range s) probe then begin
              note_prior s.Slot.seq;
              (* A fully covered slot is superseded outright (the new
                 store re-tracks the address); partial overlaps merely
                 lose their flushed state. *)
              if Addr.covers probe (Slot.range s) then begin
                s.Slot.valid <- false;
                m.Clf_meta.invalidated <- m.Clf_meta.invalidated + 1
              end
              else if s.Slot.flushed then begin
                s.Slot.flushed <- false;
                s.Slot.clf_seq <- -1
              end
            end
          done
      | _ -> ()
  in
  iter_metas t visit_meta;
  (* Cheap emptiness probe before the allocating overlap pass. *)
  if Rangetree.find_first_overlap t.tree ~lo ~hi = None then (!found, !priors)
  else begin
  (* Tree nodes: a fully covered node is superseded outright (the new
     store re-tracks the address), preventing stale duplicates from
     piling up under hot addresses; a partially covered flushed node
     keeps only its non-overlapped parts flushed — marking the whole
     region unflushed would orphan bytes whose lines are no longer
     dirty. *)
  let visited =
    Rangetree.map_overlapping t.tree ~lo ~hi ~f:(fun r (p : Slot.payload) ->
        note_prior p.Slot.p_seq;
        if Addr.covers probe r then begin
          (* Superseded outright: its pending-flush registration (if
             any) points at a node that no longer exists. *)
          if p.Slot.p_flushed then purge_registration t ~lo:r.Addr.lo ~hi:r.Addr.hi p;
          []
        end
        else if not p.Slot.p_flushed then [ (r, p) ]
        else begin
          (* The original node is replaced by its pieces below, so its
             own registration is dead too. *)
          purge_registration t ~lo:r.Addr.lo ~hi:r.Addr.hi p;
          List.map
            (fun (piece : Addr.range) ->
              let fp = { p with Slot.p_flushed = true } in
              (* Register the replacement pieces so the next fence still
                 drops them. *)
              t.tree_flushed_nodes <- (piece.Addr.lo, piece.Addr.hi, fp) :: t.tree_flushed_nodes;
              (piece, fp))
            (Addr.diff r probe)
        end)
  in
  if visited > 0 then found := true;
  (!found, !priors)
  end
  end

type store_result = { overlapped : bool; prior_seqs : int list }

let take n l =
  let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
  go n l

let process_store t ?(check_overlap = true) ~addr ~size ~epoch ~seq ~tid ~strand () =
  let overlapped, priors = unflush_overlaps t ~need_overlap:check_overlap ~lo:addr ~hi:(addr + size) in
  if t.mode = Tree_only || t.live >= t.capacity then begin
    (* Rare overflow path (§4.1): spill straight to the tree. *)
    tree_insert_payload t ~lo:addr ~hi:(addr + size)
      { Slot.p_flushed = false; p_epoch = epoch; p_seq = seq; p_tid = tid; p_strand = strand; p_clf_seq = -1; p_fence_seq = -1 };
    Obs.Metrics.inc t.metrics "space_tree_spills_total"
  end
  else begin
    let idx = t.live in
    if idx = Array.length t.slots then grow t;
    Slot.fill t.slots.(idx) ~addr ~size ~epoch ~seq ~tid ~strand;
    t.live <- idx + 1;
    bounds_add t ~lo:addr ~hi:(addr + size);
    Clf_meta.note_store t.cur_meta ~idx ~lo:addr ~hi:(addr + size);
    Obs.Metrics.inc t.metrics "space_array_hits_total";
    Obs.Metrics.max_set t.metrics "space_array_live_peak" (float_of_int t.live)
  end;
  (* Canonical provenance: sorted, deduped, capped — independent of the
     bookkeeping walk order (array vs tree vs hybrid). *)
  { overlapped; prior_seqs = take max_prior_seqs (List.sort_uniq compare priors) }

let find_overlap t ~lo ~hi =
  if bounds_miss t ~lo ~hi then begin
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    None
  end
  else begin
  let found = ref None in
  let probe_range = Addr.range ~lo ~hi in
  let check_meta (m : Clf_meta.t) =
    if !found = None && not (Clf_meta.is_empty m) then
      match Clf_meta.addr_range m with
      | Some r when Addr.overlaps r probe_range ->
          let i = ref m.Clf_meta.start_idx in
          while !found = None && !i <= m.Clf_meta.end_idx do
            let s = t.slots.(!i) in
            if s.Slot.valid && Addr.overlaps (Slot.range s) probe_range then found := Some s.Slot.seq;
            incr i
          done
      | _ -> ()
  in
  iter_metas t check_meta;
  (if !found = None then
     match Rangetree.find_first_overlap t.tree ~lo ~hi with
     | Some (_, p) -> found := Some p.Slot.p_seq
     | None -> ());
  !found
  end

type clf_result = {
  matched : int;
  newly_flushed : int;
  redundant : (int * int) list;
  redundant_prov : (int * int) list;
}

(* Split a partially covered slot (§4.3): the covered part stays in the
   array (flushed); uncovered remainders go to the tree, not flushed. *)
let split_slot t (s : Slot.t) ~(flush : Addr.range) ~seq =
  let r = Slot.range s in
  match Addr.inter r flush with
  | None -> ()
  | Some covered ->
      let rest = Addr.diff r covered in
      List.iter
        (fun (part : Addr.range) ->
          tree_insert_payload t ~lo:part.Addr.lo ~hi:part.Addr.hi
            {
              Slot.p_flushed = false;
              p_epoch = s.Slot.epoch;
              p_seq = s.Slot.seq;
              p_tid = s.Slot.tid;
              p_strand = s.Slot.strand;
              p_clf_seq = -1;
              p_fence_seq = -1;
            })
        rest;
      s.Slot.addr <- covered.Addr.lo;
      s.Slot.size <- Addr.size covered;
      s.Slot.flushed <- true;
      s.Slot.clf_seq <- seq

(* Close the current CLF interval and open the next (§4.3). *)
let close_interval t =
  if not (Clf_meta.is_empty t.cur_meta) then begin
    let next = Clf_meta.make ~start_idx:t.live in
    t.cur_meta.Clf_meta.next <- Some next;
    t.cur_meta <- next
  end

let process_clf ?(seq = -1) t ~lo ~hi =
  if bounds_miss t ~lo ~hi then begin
    (* Nothing tracked can overlap, but the CLF still ends the current
       interval. *)
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    close_interval t;
    { matched = 0; newly_flushed = 0; redundant = []; redundant_prov = [] }
  end
  else begin
  let flush = Addr.range ~lo ~hi in
  let matched = ref 0 in
  let newly = ref 0 in
  let redundant = ref [] in
  let redundant_prov = ref [] in
  let visit_slot (m : Clf_meta.t) (s : Slot.t) =
    if s.Slot.valid && Addr.overlaps (Slot.range s) flush then begin
      incr matched;
      if slot_flushed t m s then begin
        redundant := (s.Slot.addr, s.Slot.size) :: !redundant;
        let prior = if s.Slot.clf_seq >= 0 then s.Slot.clf_seq else m.Clf_meta.clf_seq in
        redundant_prov := (s.Slot.seq, prior) :: !redundant_prov
      end
      else if Addr.covers flush (Slot.range s) then begin
        s.Slot.flushed <- true;
        s.Slot.clf_seq <- seq;
        incr newly
      end
      else begin
        split_slot t s ~flush ~seq;
        incr newly
      end
    end
  in
  let visit_meta (m : Clf_meta.t) =
    if not (Clf_meta.is_empty m) then begin
      match Clf_meta.addr_range m with
      | None -> ()
      | Some r ->
          if not (Addr.overlaps r flush) then ()
          else if t.interval_metadata && Addr.covers flush r && m.Clf_meta.state = Clf_meta.Not_flushed then begin
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
              visit_slot m t.slots.(i)
            done;
            if t.interval_metadata && m.Clf_meta.state = Clf_meta.Not_flushed then
              m.Clf_meta.state <- Clf_meta.Partially_flushed
          end
    end
  in
  iter_metas t visit_meta;
  (* Then the tree (§4.3): update flushing state of overlapping nodes,
     splitting partially covered ones. *)
  let visited =
    Rangetree.map_overlapping t.tree ~lo ~hi ~f:(fun r (p : Slot.payload) ->
        if p.Slot.p_flushed then begin
          redundant := (r.Addr.lo, Addr.size r) :: !redundant;
          redundant_prov := (p.Slot.p_seq, p.Slot.p_clf_seq) :: !redundant_prov;
          [ (r, p) ]
        end
        else if Addr.covers flush r then begin
          p.Slot.p_flushed <- true;
          p.Slot.p_clf_seq <- seq;
          incr newly;
          t.tree_flushed_nodes <- (r.Addr.lo, r.Addr.hi, p) :: t.tree_flushed_nodes;
          [ (r, p) ]
        end
        else begin
          match Addr.inter r flush with
          | None -> [ (r, p) ]
          | Some covered ->
              incr newly;
              let rest = Addr.diff r covered in
              let fp = { p with Slot.p_flushed = true; p_clf_seq = seq } in
              t.tree_flushed_nodes <- (covered.Addr.lo, covered.Addr.hi, fp) :: t.tree_flushed_nodes;
              (covered, fp) :: List.map (fun part -> (part, { p with Slot.p_flushed = false; p_clf_seq = -1 })) rest
        end)
  in
  matched := !matched + visited;

  close_interval t;
  {
    matched = !matched;
    newly_flushed = !newly;
    redundant = List.rev !redundant;
    redundant_prov = List.rev !redundant_prov;
  }
  end

let process_fence ?(seq = -1) t =
  (* Tree first (§4.4): drop the nodes this fence interval's CLFs
     flushed (unless a later store un-flushed or superseded them). *)
  List.iter
    (fun (lo, hi, (p : Slot.payload)) ->
      if p.Slot.p_flushed then ignore (Rangetree.remove_first t.tree ~lo ~hi (fun x -> x == p)))
    t.tree_flushed_nodes;
  t.tree_flushed_nodes <- [];
  (* Array: per interval, All_flushed drops wholesale (metadata
     invalidation only); otherwise flushed slots drop and unflushed
     slots migrate to the tree. A migrating payload is stamped with
     this fence's seq — the first fence the location crossed without
     persisting, which causal chains report; tree survivors keep the
     stamp of their own first crossing (no O(tree) sweep). *)
  let migrated = ref 0 in
  let visit_meta (m : Clf_meta.t) =
    if not (Clf_meta.is_empty m) then
      if t.interval_metadata && m.Clf_meta.state = Clf_meta.All_flushed then ()
      else
        for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
          let s = t.slots.(i) in
          if s.Slot.valid && not (slot_flushed t m s) then begin
            let p = Slot.payload_of s in
            p.Slot.p_fence_seq <- seq;
            tree_insert_payload t ~lo:s.Slot.addr ~hi:(s.Slot.addr + s.Slot.size) p;
            incr migrated
          end
        done
  in
  iter_metas t visit_meta;
  Obs.Metrics.inc t.metrics ~by:!migrated "space_fence_migrations_total";
  Obs.Metrics.max_set t.metrics "space_tree_size_peak" (float_of_int (Rangetree.size t.tree));
  t.live <- 0;
  let meta = Clf_meta.make ~start_idx:0 in
  t.first_meta <- meta;
  t.cur_meta <- meta;
  (* Merge only past the threshold (§4.4) and only when the tree has
     actually grown since the last pass — re-merging an unmergeable
     tree at every fence would be quadratic. *)
  if Rangetree.size t.tree > t.merge_threshold && Rangetree.size t.tree >= t.last_reorg_size + (t.merge_threshold / 2)
  then begin
    t.last_reorg_size <- Rangetree.size t.tree;
    Rangetree.reorganize t.tree
      ~eq:(fun (a : Slot.payload) b -> a.Slot.p_flushed = b.Slot.p_flushed && a.Slot.p_epoch = b.Slot.p_epoch && a.Slot.p_strand = b.Slot.p_strand)
      ~merge:(fun a b -> if a.Slot.p_seq >= b.Slot.p_seq then a else b);
    Obs.Metrics.inc t.metrics "space_reorganizations_total";
    Obs.Metrics.inc t.metrics ~by:(max 0 (t.last_reorg_size - Rangetree.size t.tree)) "space_interval_merges_total";
    t.last_reorg_size <- Rangetree.size t.tree
  end;
  (* The array is empty again: only the tree bounds the tracked set. *)
  bounds_reset_from_tree t

let fold_pending t ~init ~f =
  let acc = ref init in
  let visit_meta (m : Clf_meta.t) =
    if not (Clf_meta.is_empty m) then
      for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
        let s = t.slots.(i) in
        if s.Slot.valid then begin
          (* Individually flushed slots carry their own CLF seq; a slot
             flushed only via the collective interval state inherits the
             interval's. An unflushed slot reports none, even when its
             interval was flushed collectively before a partial
             overwrite dirtied it again. *)
          let flushed = slot_flushed t m s in
          let clf_seq =
            if not flushed then -1 else if s.Slot.clf_seq >= 0 then s.Slot.clf_seq else m.Clf_meta.clf_seq
          in
          acc :=
            f !acc ~addr:s.Slot.addr ~size:s.Slot.size ~flushed ~epoch:s.Slot.epoch ~seq:s.Slot.seq ~clf_seq
              ~fence_seq:(-1)
        end
      done
  in
  iter_metas t visit_meta;
  Rangetree.iter t.tree (fun r (p : Slot.payload) ->
      acc :=
        f !acc ~addr:r.Addr.lo ~size:(Addr.size r) ~flushed:p.Slot.p_flushed ~epoch:p.Slot.p_epoch ~seq:p.Slot.p_seq
          ~clf_seq:p.Slot.p_clf_seq ~fence_seq:p.Slot.p_fence_seq);
  !acc

let has_pending_overlap t ~lo ~hi = find_overlap t ~lo ~hi <> None

exception Found

let exists_epoch_pending t =
  try
    let visit_meta (m : Clf_meta.t) =
      if not (Clf_meta.is_empty m) then
        for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
          let s = t.slots.(i) in
          if s.Slot.valid && s.Slot.epoch then raise Found
        done
    in
    iter_metas t visit_meta;
    Rangetree.iter t.tree (fun _ (p : Slot.payload) -> if p.Slot.p_epoch then raise Found);
    false
  with Found -> true

let iter_pending t f =
  fold_pending t ~init:() ~f:(fun () ~addr ~size ~flushed ~epoch ~seq ~clf_seq ~fence_seq ->
      f ~addr ~size ~flushed ~epoch ~seq ~clf_seq ~fence_seq)

let pending_count t =
  fold_pending t ~init:0 ~f:(fun acc ~addr:_ ~size:_ ~flushed:_ ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ -> acc + 1)

let clear t =
  t.live <- 0;
  let meta = Clf_meta.make ~start_idx:0 in
  t.first_meta <- meta;
  t.cur_meta <- meta;
  Rangetree.clear t.tree;
  (* Forget everything derived from the cleared contents: pending flush
     registrations would replay pre-clear bookkeeping into the next
     fence, and a stale reorg baseline suppresses merging until the
     empty tree regrows past the pre-clear high-water mark. *)
  t.tree_flushed_nodes <- [];
  t.last_reorg_size <- 0;
  t.bound_lo <- max_int;
  t.bound_hi <- min_int

let tree_size t = Rangetree.size t.tree

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
    ("tree_flushed_nodes", float_of_int (List.length t.tree_flushed_nodes));
    ("tree_max_size", float_of_int (Rangetree.stats t.tree).Rangetree.max_size);
    ("array_live", float_of_int t.live);
    ("array_slots", float_of_int (Array.length t.slots));
    ("avg_tree_nodes_per_fence", avg_tree_nodes_per_fence t);
    ("reorganizations", float_of_int (reorganizations t));
    ("rotations", float_of_int (Rangetree.stats t.tree).Rangetree.rotations);
  ]
