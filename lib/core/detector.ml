open Pmem
open Pmtrace

type model = Strict | Epoch | Strand

type rule_set = {
  no_durability : bool;
  multiple_overwrites : bool;
  no_order_guarantee : bool;
  redundant_flush : bool;
  flush_nothing : bool;
  redundant_logging : bool;
  lack_durability_in_epoch : bool;
  redundant_epoch_fence : bool;
  lack_ordering_in_strands : bool;
  cross_failure : bool;
}

let default_rules = function
  | Strict ->
      {
        no_durability = true;
        multiple_overwrites = true;
        no_order_guarantee = true;
        redundant_flush = true;
        flush_nothing = true;
        redundant_logging = true;
        lack_durability_in_epoch = false;
        redundant_epoch_fence = false;
        lack_ordering_in_strands = false;
        cross_failure = true;
      }
  | Epoch ->
      {
        no_durability = true;
        (* Overwriting before durability is legal under relaxed models. *)
        multiple_overwrites = false;
        no_order_guarantee = true;
        redundant_flush = true;
        flush_nothing = true;
        redundant_logging = true;
        lack_durability_in_epoch = true;
        redundant_epoch_fence = true;
        lack_ordering_in_strands = false;
        cross_failure = true;
      }
  | Strand ->
      {
        no_durability = true;
        multiple_overwrites = false;
        no_order_guarantee = true;
        redundant_flush = true;
        flush_nothing = true;
        redundant_logging = true;
        lack_durability_in_epoch = true;
        redundant_epoch_fence = true;
        lack_ordering_in_strands = true;
        cross_failure = true;
      }

let all_rules_off =
  {
    no_durability = false;
    multiple_overwrites = false;
    no_order_guarantee = false;
    redundant_flush = false;
    flush_nothing = false;
    redundant_logging = false;
    lack_durability_in_epoch = false;
    redundant_epoch_fence = false;
    lack_ordering_in_strands = false;
    cross_failure = false;
  }

(* One CLF's bookkeeping observation, summed over every space it
   touched, reused for every CLF. The hit, when [has_hit], is the
   canonical redundant hit: the minimum over (store seq, addr, size,
   prior CLF), independent of bookkeeping walk order and of how shards
   partitioned the range. *)
type clf_tally = {
  mutable matched : int;
  mutable newly : int;
  mutable has_hit : bool;
  mutable hit_seq : int;
  mutable hit_addr : int;
  mutable hit_size : int;
  mutable hit_prior : int;
}

(* A thread's epoch sections. [fences] holds the fence seqs of its
   current (or last) outermost section, newest first; [begin_seq] is
   the seq of its last outermost epoch_begin, -1 before the first
   (seqs start at 1). *)
type epoch = { mutable depth : int; mutable begin_seq : int; mutable fences : int list }

type t = {
  model : model;
  rules : rule_set;
  make_space : unit -> Space.t;
  dspace : Space.t;
  (* Strand spaces in ascending strand id order, [strand_spaces.(i)] for
     strand [strand_ids.(i)]: extended when [space_for] creates one, so
     no CLF sorts them. *)
  mutable strand_ids : int array;
  mutable strand_spaces : Space.t array;
  clf : clf_tally;
  cur_strand : (int, int) Hashtbl.t; (* tid -> active strand section *)
  epochs : (int, epoch) Hashtbl.t;
  logs : Tx_logs.t;
  mutable registered : Addr.range list;
  mutable track_all : bool;
  order : Persist_order.t;
  ledger : Bug.Ledger.t;
  walk_dedup : bool;
  mutable events : int;
  mutable seq : int;
  mutable cur_class : string; (* Event.class_name of the event being dispatched *)
  pm : State.t option;
  recovery : (Image.t -> bool) option;
  crash_check_every_fence : bool;
  metrics : Obs.Metrics.t;
  heatmap : Obs.Heatmap.t;
  mutable finished : bool;
  (* Shard-replica mode: run all bookkeeping but suppress findings —
     set by the router on non-owner shards of a broadcast event. *)
  mutable silent : bool;
}

let create ?(model = Strict) ?rules ?(config = Order_config.empty) ?array_capacity ?merge_threshold ?mode
    ?interval_metadata ?pm ?recovery ?(crash_check_every_fence = false) ?max_bugs_per_kind
    ?(walk_dedup = true) ?(metrics = Obs.Metrics.disabled) ?(heatmap = Obs.Heatmap.disabled) () =
  let rules = match rules with Some r -> r | None -> default_rules model in
  let make_space () = Space.create ?array_capacity ?merge_threshold ?mode ?interval_metadata ~metrics () in
  (* Declare one zero counter per rule so a run's metrics file always
     carries the complete per-rule vector, fired or not. *)
  if Obs.Metrics.is_on metrics then
    List.iter
      (fun kind -> Obs.Metrics.inc metrics ~labels:[ ("rule", Bug.kind_name kind) ] ~by:0 "detector_rule_fires_total")
      Bug.all_kinds;
  {
    model;
    rules;
    make_space;
    dspace = make_space ();
    strand_ids = [||];
    strand_spaces = [||];
    clf = { matched = 0; newly = 0; has_hit = false; hit_seq = 0; hit_addr = 0; hit_size = 0; hit_prior = 0 };
    cur_strand = Hashtbl.create 8;
    epochs = Hashtbl.create 8;
    logs = Tx_logs.create ();
    registered = [];
    track_all = true;
    order = Persist_order.create config;
    ledger = Bug.Ledger.create ?max_per_kind:max_bugs_per_kind ();
    walk_dedup;
    events = 0;
    seq = 0;
    cur_class = "program_end";
    pm;
    recovery;
    crash_check_every_fence;
    metrics;
    heatmap;
    finished = false;
    silent = false;
  }

(* Deterministic space order — default space first, then strand spaces
   by strand id; a hashtable-layout-dependent order here would make
   reports depend on which strands happened to hash where, breaking
   shard parity. (The pending walks additionally sort their candidates
   canonically — see [pending_walk_candidates].) *)
let all_spaces t = t.dspace :: Array.to_list t.strand_spaces

(* Pending-location candidates for the walks (epoch end, program end).
   The walks build their findings first and admit them in
   {!Bug.compare_canonical} order rather than bookkeeping-structure
   order: which finding wins the per-(kind, addr) dedup must not depend
   on the space's internal layout (array vs tree) — and the
   shard router's merge, which re-applies the same dedup over all
   shards' findings in the same canonical order, then reaches the same
   decisions. *)
let pending_walk_candidates ?(epoch_only = false) spaces =
  let acc = ref [] in
  List.iter
    (fun space ->
      Space.iter_pending space (fun ~addr ~size ~flushed ~epoch ~seq ~clf_seq ~fence_seq ->
          if epoch || not epoch_only then acc := (addr, size, flushed, seq, clf_seq, fence_seq) :: !acc))
    spaces;
  List.rev !acc

let build_bug t kind ~addr ~size ~chain ~detail =
  (* Annotation names make reports readable without a memory map:
     every rule's message is prefixed with the registered variable
     covering the primary address, when there is one. *)
  let detail =
    match if addr >= 0 then Persist_order.name_covering t.order addr else None with
    | Some name -> name ^ ": " ^ detail
    | None -> detail
  in
  (* Every finding cites at least the event it fired at; rule code
     prepends the bookkeeping history (stores, CLFs, fences). *)
  let chain = Bug.cause ~addr ~size ~note:"rule fired here" ~cls:t.cur_class t.seq :: chain in
  Bug.make ~addr ~size ~seq:t.seq ~detail ~chain kind

(* Rules ask the ledger first and build a finding only once it is
   admitted: most fires on hot addresses are (kind, addr) duplicates,
   and building a finding — its chain, the covering variable's name,
   the chain sort — costs far more than the lookup. So every rule site
   reads [if admit t kind ~addr then emit t kind ...]. [silent]
   (replica updates) admits nothing. *)
let admit t kind ~addr =
  (not t.silent)
  &&
  match Bug.Ledger.admit t.ledger kind ~addr with
  | Bug.Ledger.Admitted -> true
  | Bug.Ledger.Capped ->
      if Obs.Metrics.is_on t.metrics then
        Obs.Metrics.inc t.metrics ~labels:[ ("rule", Bug.kind_name kind) ] "detector_bugs_suppressed_total";
      false
  | Bug.Ledger.Duplicate -> false

(* Record a finding the ledger has admitted. *)
let append_bug t (bug : Bug.t) =
  Bug.Ledger.append t.ledger bug;
  if Obs.Heatmap.is_on t.heatmap && bug.Bug.addr >= 0 then
    Obs.Heatmap.on_bug t.heatmap ~line:(Addr.line_of bug.Bug.addr);
  if Obs.Metrics.is_on t.metrics then
    Obs.Metrics.inc t.metrics ~labels:[ ("rule", Bug.kind_name bug.Bug.kind) ] "detector_rule_fires_total"

let emit t kind ~addr ~size ~chain ~detail = append_bug t (build_bug t kind ~addr ~size ~chain ~detail)

(* The pending walks build their candidates first and admit them in
   canonical order (see [pending_walk_candidates]). [dedup = false]
   (pending walks of a sharded worker): record every finding, skipping
   the per-(kind, addr) suppression and the per-kind cap — replicated
   locations make a shard's local dedup and cap decisions diverge from
   the single-shard ones; only the router's merge, which sees every
   shard's findings, can replicate them. *)
let admit_built t ~dedup (bug : Bug.t) =
  if not dedup then append_bug t bug
  else if admit t bug.Bug.kind ~addr:bug.Bug.addr then append_bug t bug

let rec overlaps_any ~lo ~hi = function
  | [] -> false
  | r :: rest -> Addr.overlaps_span r ~lo ~hi || overlaps_any ~lo ~hi rest

let in_registered t ~lo ~hi = t.track_all || overlaps_any ~lo ~hi t.registered

(* The strand and epoch tables are empty on most traces: check their
   size before hashing the tid. *)
let strand_of t tid =
  if Hashtbl.length t.cur_strand = 0 then -1
  else match Hashtbl.find t.cur_strand tid with s -> s | exception Not_found -> -1

(* Binary search of [strand_ids]: the strand's index, or [-i - 1] when
   it belongs at index [i]. *)
let find_strand t strand =
  let ids = t.strand_ids in
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ids.(mid) < strand then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length ids && ids.(!lo) = strand then !lo else - !lo - 1

let add_strand_space t ~at strand =
  let s = t.make_space () in
  let insert a x =
    Array.init (Array.length a + 1) (fun j -> if j < at then a.(j) else if j = at then x else a.(j - 1))
  in
  t.strand_ids <- insert t.strand_ids strand;
  t.strand_spaces <- insert t.strand_spaces s;
  s

let space_for t tid =
  if Hashtbl.length t.cur_strand = 0 then t.dspace
  else
    match Hashtbl.find t.cur_strand tid with
    | exception Not_found -> t.dspace
    | strand ->
        let i = find_strand t strand in
        if i >= 0 then t.strand_spaces.(i) else add_strand_space t ~at:(-i - 1) strand

let in_epoch t tid =
  Hashtbl.length t.epochs > 0 && match Hashtbl.find t.epochs tid with e -> e.depth > 0 | exception Not_found -> false

let epoch_of t tid =
  match Hashtbl.find t.epochs tid with
  | e -> e
  | exception Not_found ->
      let e = { depth = 0; begin_seq = -1; fences = [] } in
      Hashtbl.replace t.epochs tid e;
      e

(* A variable is durable when it has been stored to and no space still
   tracks an unpersisted location overlapping it. *)
let check_order t =
  if Persist_order.constrained t.order then begin
    let spaces = all_spaces t in
    Persist_order.update t.order ~seq:t.seq ~cls:t.cur_class ~pending:(fun ~lo ~hi ->
        List.exists (fun s -> Space.has_pending_overlap s ~lo ~hi) spaces);
    Persist_order.check t.order
      ~enabled:(function
        | Order_config.Intra -> t.rules.no_order_guarantee
        | Order_config.Cross_strand -> t.rules.lack_ordering_in_strands)
      (fun e ~addr ~at:(seq, cls) ->
        let kind =
          match e.Order_config.kind with
          | Order_config.Intra -> Bug.No_order_guarantee
          | Order_config.Cross_strand -> Bug.Lack_ordering_in_strands
        in
        if admit t kind ~addr then begin
          let note = e.Order_config.next ^ " became durable here, before " ^ e.Order_config.first in
          emit t kind ~addr ~size:0
            ~chain:[ Bug.cause ~addr ~cls ~note seq ]
            ~detail:(Printf.sprintf "%s persisted before %s" e.Order_config.next e.Order_config.first)
        end)
  end

let run_crash_check t =
  match (t.pm, t.recovery) with
  | Some pm, Some recovery when t.rules.cross_failure ->
      Obs.Metrics.inc t.metrics "detector_crash_checks_total";
      let violations, _ = Pmem.State.check_crash_images pm ~max_images:64 ~recovery in
      if violations > 0 && admit t Bug.Cross_failure_semantic ~addr:(-1) then
        emit t Bug.Cross_failure_semantic ~addr:(-1) ~size:0 ~chain:[]
          ~detail:(Printf.sprintf "%d inconsistent crash image(s)" violations)
  | _ -> ()

let overwrites_checked t = t.rules.multiple_overwrites && t.model = Strict

(* The store path is split into a bookkeeping scan and a rule fire so
   the shard router can scan per-line clips on several shards and fire
   once with the merged observation; the single-shard [on_store] is the
   composition of the two over the full range. The scan returns the
   overlap observation and leaves the prior seqs in [space]. *)
let store_scan t space ~tid ~lo ~hi =
  let overlapped =
    Space.process_store space ~check_overlap:(overwrites_checked t) ~addr:lo ~size:(hi - lo)
      ~epoch:(in_epoch t tid) ~seq:t.seq ~tid ~strand:(strand_of t tid)
  in
  Persist_order.note_store t.order ~lo ~hi;
  (* Per-line traffic/dirty accounting, owner events only ([silent]
     replica updates would double-count a broadcast line once per
     shard). An allocation-free line loop: the heatmap hook must not
     cost a list per store when enabled, and costs one branch when
     not. *)
  if Obs.Heatmap.is_on t.heatmap && (not t.silent) && hi > lo then
    for line = Addr.line_of lo to Addr.line_of (hi - 1) do
      Obs.Heatmap.on_store t.heatmap ~seq:t.seq ~line
    done;
  overlapped

let fire_overwrite t ~addr ~size prior_seqs =
  emit t Bug.Multiple_overwrites ~addr ~size
    ~chain:(List.map (fun seq -> Bug.cause ~addr ~size ~cls:"store" ~note:"earlier store, not yet durable" seq) prior_seqs)
    ~detail:"overwrite before durability guaranteed"

let store_fire t ~addr ~size (obs : Shard_router.store_obs) =
  if obs.Shard_router.so_overlapped && overwrites_checked t && admit t Bug.Multiple_overwrites ~addr then
    fire_overwrite t ~addr ~size obs.Shard_router.so_prior_seqs

let on_store t ~addr ~size ~tid =
  let hi = addr + size in
  if in_registered t ~lo:addr ~hi then begin
    let space = space_for t tid in
    if store_scan t space ~tid ~lo:addr ~hi && overwrites_checked t && admit t Bug.Multiple_overwrites ~addr then
      fire_overwrite t ~addr ~size (Space.prior_seqs space)
  end

let tally_reset c ~matched ~newly =
  c.matched <- matched;
  c.newly <- newly;
  c.has_hit <- false

(* (store seq, addr, size, prior CLF) sorts before the tally's hit. *)
let hit_before c ~addr ~size ~seq ~prior =
  if seq <> c.hit_seq then seq < c.hit_seq
  else if addr <> c.hit_addr then addr < c.hit_addr
  else if size <> c.hit_size then size < c.hit_size
  else prior < c.hit_prior

let tally_hit c ~addr ~size ~seq ~prior =
  if (not c.has_hit) || hit_before c ~addr ~size ~seq ~prior then begin
    c.has_hit <- true;
    c.hit_seq <- seq;
    c.hit_addr <- addr;
    c.hit_size <- size;
    c.hit_prior <- prior
  end

let rec tally_hits c redundant prov =
  match (redundant, prov) with
  | (addr, size) :: redundant, (seq, prior) :: prov ->
      tally_hit c ~addr ~size ~seq ~prior;
      tally_hits c redundant prov
  | _ -> ()

(* Redundant hits matter only to a CLF that persists nothing new, so a
   space where it persists something adds none. *)
let tally_add c (r : Space.clf_result) =
  c.matched <- c.matched + r.Space.matched;
  c.newly <- c.newly + r.Space.newly_flushed;
  if r.Space.newly_flushed = 0 then tally_hits c r.Space.redundant r.Space.redundant_prov

(* A CLWB acts on the physical line: under the strand extension it
   must also update any other strand's space tracking the line. *)
let clf_other t ~primary ~lo ~hi space =
  if space != primary && Space.has_pending_overlap space ~lo ~hi then
    tally_add t.clf (Space.process_clf space ~seq:t.seq ~lo ~hi)

(* Like the store path, the CLF path is a scan (bookkeeping over one
   contiguous range, possibly a per-line clip) plus a fire (rules over
   the merged observation and the event's full range). The scan leaves
   its observation in [t.clf]. *)
let clf_scan t ~tid ~lo ~hi =
  let primary = space_for t tid in
  tally_reset t.clf ~matched:0 ~newly:0;
  tally_add t.clf (Space.process_clf primary ~seq:t.seq ~lo ~hi);
  if Array.length t.strand_spaces > 0 then begin
    clf_other t ~primary ~lo ~hi t.dspace;
    for i = 0 to Array.length t.strand_spaces - 1 do
      clf_other t ~primary ~lo ~hi t.strand_spaces.(i)
    done
  end;
  if Obs.Heatmap.is_on t.heatmap && (not t.silent) && hi > lo then
    for line = Addr.line_of lo to Addr.line_of (hi - 1) do
      Obs.Heatmap.on_clf t.heatmap ~seq:t.seq ~line
    done

let clf_fire t ~addr ~size (c : clf_tally) =
  let matched = c.matched and newly = c.newly in
  if t.rules.flush_nothing && matched = 0 && admit t Bug.Flush_nothing ~addr then
    emit t Bug.Flush_nothing ~addr ~size ~chain:[] ~detail:"CLF persists no prior store";
  (* A CLF is redundant only when it covers tracked locations yet
     persists nothing new: a line writeback that also persists a fresh
     store is useful, however many already-flushed neighbours share
     the line. The reported hit is the canonical one. *)
  if t.rules.redundant_flush && matched > 0 && newly = 0 then begin
    if c.has_hit then begin
      let a = c.hit_addr and s = c.hit_size and store_seq = c.hit_seq and prior_clf = c.hit_prior in
      if admit t Bug.Redundant_flush ~addr:a then
          emit t Bug.Redundant_flush ~addr:a ~size:s
            ~chain:
              (Bug.cause ~addr:a ~size:s ~cls:"store" ~note:"the store being re-flushed" store_seq
              ::
              (if prior_clf >= 0 then [ Bug.cause ~addr:a ~size:s ~cls:"clf" ~note:"already flushed here" prior_clf ]
               else []))
            ~detail:"store flushed again before the fence"
    end
    else if admit t Bug.Redundant_flush ~addr then
      emit t Bug.Redundant_flush ~addr ~size ~chain:[] ~detail:"store flushed again before the fence"
  end;
  (* §5.2, Fig. 7b: a CLF that persists a location with a cross-strand
     ordering requirement violates it when the predecessor variable is
     not yet durable (its barrier has not completed). *)
  if t.rules.lack_ordering_in_strands && Persist_order.constrained t.order then
    Persist_order.check_writeback t.order ~lo:addr ~hi:(addr + size) (fun e ~addr ->
        if admit t Bug.Lack_ordering_in_strands ~addr then
          emit t Bug.Lack_ordering_in_strands ~addr ~size:0 ~chain:[]
            ~detail:(Printf.sprintf "%s written back before %s is durable" e.Order_config.next e.Order_config.first))

let on_clf t ~addr ~size ~tid =
  let hi = addr + size in
  if in_registered t ~lo:addr ~hi then begin
    clf_scan t ~tid ~lo:addr ~hi;
    clf_fire t ~addr ~size t.clf
  end

let on_fence t ~tid =
  let space = space_for t tid in
  Space.note_fence_sample space;
  Space.process_fence space ~seq:t.seq;
  if in_epoch t tid then begin
    let e = epoch_of t tid in
    e.fences <- t.seq :: e.fences
  end;
  check_order t;
  if t.crash_check_every_fence then run_crash_check t

let on_epoch_begin t ~tid =
  let e = epoch_of t tid in
  (* Nested transactions collapse into the outermost one (§6). *)
  if e.depth = 0 then begin
    e.fences <- [];
    e.begin_seq <- t.seq;
    Tx_logs.reset t.logs ~tid
  end;
  e.depth <- e.depth + 1

let epoch_begin_cause e =
  if e.begin_seq >= 0 then [ Bug.cause ~cls:"epoch" ~note:"epoch section opened here" e.begin_seq ] else []

let on_epoch_end t ~tid =
  let e = epoch_of t tid in
  if e.depth <= 1 then begin
    e.depth <- 0;
    (* Rules at the outermost epoch end (§5.2). *)
    let nfences = List.length e.fences in
    if t.rules.redundant_epoch_fence && nfences > 1 && admit t Bug.Redundant_epoch_fence ~addr:(-tid - 1) then
      emit t Bug.Redundant_epoch_fence ~addr:(-tid - 1) ~size:0
        ~chain:
          (epoch_begin_cause e
          @ List.rev_map (fun seq -> Bug.cause ~cls:"fence" ~note:"fence inside the epoch section" seq) e.fences)
        ~detail:(Printf.sprintf "%d fences inside one epoch section" nfences);
    if t.rules.lack_durability_in_epoch && not t.silent then begin
      let space = space_for t tid in
      if Space.exists_epoch_pending space then
        (* Report each still-pending epoch location, in canonical order
           — see [pending_walk_candidates]. *)
        List.map
          (fun (addr, size, flushed, seq, clf_seq, fence_seq) ->
            let chain =
              epoch_begin_cause e
              @ Bug.cause ~addr ~size ~cls:"store" ~note:"stored inside the epoch" seq
                ::
                (if flushed && clf_seq >= 0 then
                   [ Bug.cause ~addr ~size ~cls:"clf" ~note:"flushed here but not fenced" clf_seq ]
                 else [])
              @
              if fence_seq >= 0 then
                [ Bug.cause ~addr ~size ~cls:"fence" ~note:"crossed this fence unpersisted" fence_seq ]
              else []
            in
            build_bug t Bug.Lack_durability_in_epoch ~addr ~size ~chain
              ~detail:"epoch ends with unpersisted store")
          (pending_walk_candidates ~epoch_only:true [ space ])
        |> List.sort Bug.compare_canonical
        |> List.iter (admit_built t ~dedup:t.walk_dedup)
    end;
    Tx_logs.reset t.logs ~tid
  end
  else e.depth <- e.depth - 1

let on_tx_log t ~obj_addr ~size ~tid =
  if t.rules.redundant_logging then
    if
      Tx_logs.note t.logs ~tid ~lo:obj_addr ~hi:(obj_addr + size) ~seq:t.seq
      && admit t Bug.Redundant_logging ~addr:obj_addr
    then begin
      let lo = Tx_logs.prior_lo t.logs in
      emit t Bug.Redundant_logging ~addr:obj_addr ~size
        ~chain:
          [
            Bug.cause ~addr:lo ~size:(Tx_logs.prior_hi t.logs - lo) ~cls:"tx_log" ~note:"object first logged here"
              (Tx_logs.prior_seq t.logs);
          ]
        ~detail:"object logged more than once in one transaction"
    end

let on_program_end t =
  if not t.finished then begin
    t.finished <- true;
    (if t.rules.no_durability && not t.silent then
       List.map
         (fun (addr, size, flushed, seq, clf_seq, fence_seq) ->
           let detail =
             if flushed then "flushed but never fenced (missing fence)"
             else "never flushed (missing CLF)"
           in
           let chain =
             Bug.cause ~addr ~size ~cls:"store"
               ~note:(if flushed then "the store left unfenced" else "the store left unflushed")
               seq
             ::
             (if flushed && clf_seq >= 0 then
                [ Bug.cause ~addr ~size ~cls:"clf" ~note:"flushed here, awaiting a fence" clf_seq ]
              else [])
             @
             if fence_seq >= 0 then
               [ Bug.cause ~addr ~size ~cls:"fence" ~note:"crossed this fence unpersisted" fence_seq ]
             else []
           in
           build_bug t Bug.No_durability ~addr ~size ~chain ~detail)
         (pending_walk_candidates (all_spaces t))
       |> List.sort Bug.compare_canonical
       |> List.iter (admit_built t ~dedup:t.walk_dedup));
    (* Order constraints where the later var persisted but the earlier
       one never did are caught here even without a closing fence. *)
    check_order t;
    run_crash_check t
  end

let dispatch t ev =
  match ev with
  | Event.Store { addr; size; tid } -> on_store t ~addr ~size ~tid
  | Event.Clf { addr; size; tid; kind = _ } -> on_clf t ~addr ~size ~tid
  | Event.Fence { tid } -> on_fence t ~tid
  | Event.Register_pmem { base; size } ->
      t.track_all <- false;
      t.registered <- Addr.of_base_size base size :: t.registered
  | Event.Epoch_begin { tid } -> on_epoch_begin t ~tid
  | Event.Epoch_end { tid } -> on_epoch_end t ~tid
  | Event.Strand_begin { tid; strand } -> Hashtbl.replace t.cur_strand tid strand
  | Event.Strand_end { tid; strand = _ } -> Hashtbl.remove t.cur_strand tid
  | Event.Join_strand _ -> ()
  | Event.Tx_log { obj_addr; size; tid } -> on_tx_log t ~obj_addr ~size ~tid
  | Event.Register_var { name; addr; size } ->
      Persist_order.register t.order ~name (Addr.of_base_size addr size);
      if Obs.Heatmap.is_on t.heatmap && size > 0 then
        for line = Addr.line_of addr to Addr.line_of (addr + size - 1) do
          Obs.Heatmap.set_name t.heatmap ~line name
        done
  | Event.Call { func; tid = _ } -> Persist_order.call t.order func
  | Event.Annotation _ -> () (* PMTest-style annotations are not needed *)
  | Event.Program_end -> on_program_end t

(* [seq] is the engine's dispatch sequence number. The single-shard
   sink counts for itself ([on_event]); a shard worker is told the
   stream position explicitly, since it only sees the subsequence of
   events routed to it. [silent] runs all bookkeeping but reports
   nothing — replica updates on non-owner shards. *)
let on_event_at t ~seq ?(silent = false) ev =
  t.events <- t.events + 1;
  t.seq <- seq;
  t.cur_class <- Event.class_name ev;
  t.silent <- silent;
  dispatch t ev;
  t.silent <- false

let on_event t ev = on_event_at t ~seq:(t.seq + 1) ev

let stats t =
  let spaces = all_spaces t in
  let tree_nodes = List.fold_left (fun acc s -> acc + Space.tree_size s) 0 spaces in
  let reorgs = List.fold_left (fun acc s -> acc + Space.reorganizations s) 0 spaces in
  [
    ("tree_size", float_of_int tree_nodes);
    ("reorganizations", float_of_int reorgs);
    ("avg_tree_nodes_per_fence", Space.avg_tree_nodes_per_fence t.dspace);
    ("spaces", float_of_int (List.length spaces));
  ]

let report t =
  { Bug.detector = "pmdebugger"; bugs = Bug.Ledger.findings t.ledger; events_processed = t.events; stats = stats t; failure = None }

let avg_tree_nodes_per_fence t = Space.avg_tree_nodes_per_fence t.dspace

let reorganizations t = List.fold_left (fun acc s -> acc + Space.reorganizations s) 0 (all_spaces t)

let sink t =
  Sink.make ~name:"pmdebugger"
    ~on_event:(fun ev -> on_event t ev)
    ~finish:(fun () ->
      on_program_end t;
      report t)

(* One detector as one shard worker: the full event path for routed
   events, and the scan/fire halves for the router's stall path. The
   scans position the detector at the event's stream location
   themselves, because they bypass [on_event_at]. *)
let worker t =
  {
    Shard_router.w_event = (fun ~seq ~silent ev -> on_event_at t ~seq ~silent ev);
    w_scan_store =
      (fun ~seq ~tid ~lo ~hi ->
        t.seq <- seq;
        t.cur_class <- "store";
        let space = space_for t tid in
        let overlapped = store_scan t space ~tid ~lo ~hi in
        { Shard_router.so_overlapped = overlapped; so_prior_seqs = Space.prior_seqs space });
    w_fire_store =
      (fun ~seq ~addr ~size obs ->
        t.seq <- seq;
        t.cur_class <- "store";
        store_fire t ~addr ~size obs);
    w_scan_clf =
      (fun ~seq ~tid ~lo ~hi ->
        t.seq <- seq;
        t.cur_class <- "clf";
        clf_scan t ~tid ~lo ~hi;
        let c = t.clf in
        {
          Shard_router.co_matched = c.matched;
          co_newly = c.newly;
          co_redundant = (if c.has_hit then [ (c.hit_addr, c.hit_size, c.hit_seq, c.hit_prior) ] else []);
        });
    w_fire_clf =
      (fun ~seq ~addr ~size obs ->
        t.seq <- seq;
        t.cur_class <- "clf";
        let c = t.clf in
        tally_reset c ~matched:obs.Shard_router.co_matched ~newly:obs.Shard_router.co_newly;
        List.iter (fun (addr, size, seq, prior) -> tally_hit c ~addr ~size ~seq ~prior) obs.Shard_router.co_redundant;
        clf_fire t ~addr ~size c);
    w_finish =
      (fun () ->
        on_program_end t;
        report t);
  }
