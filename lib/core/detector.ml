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

type t = {
  model : model;
  rules : rule_set;
  make_space : unit -> Space.t;
  dspace : Space.t;
  strand_spaces : (int, Space.t) Hashtbl.t;
  cur_strand : (int, int) Hashtbl.t; (* tid -> active strand section *)
  epoch_depth : (int, int) Hashtbl.t;
  epoch_fences : (int, int list ref) Hashtbl.t; (* tid -> fence seqs, newest first *)
  epoch_begin_seq : (int, int) Hashtbl.t; (* tid -> seq of the outermost epoch_begin *)
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
    strand_spaces = Hashtbl.create 8;
    cur_strand = Hashtbl.create 8;
    epoch_depth = Hashtbl.create 8;
    epoch_fences = Hashtbl.create 8;
    epoch_begin_seq = Hashtbl.create 8;
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
let all_spaces t =
  let strands = Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.strand_spaces [] in
  t.dspace :: List.map snd (List.sort (fun (a, _) (b, _) -> compare (a : int) b) strands)

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

let space_for t tid =
  if Hashtbl.length t.cur_strand = 0 then t.dspace
  else
    match Hashtbl.find_opt t.cur_strand tid with
    | None -> t.dspace
    | Some strand -> (
        match Hashtbl.find_opt t.strand_spaces strand with
        | Some s -> s
        | None ->
            let s = t.make_space () in
            Hashtbl.replace t.strand_spaces strand s;
            s)

let in_epoch t tid =
  Hashtbl.length t.epoch_depth > 0
  && match Hashtbl.find t.epoch_depth tid with d -> d > 0 | exception Not_found -> false

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

(* Like the store path, the CLF path is a scan (bookkeeping over one
   contiguous range, possibly a per-line clip) plus a fire (rules over
   the merged observation and the event's full range). *)
let clf_scan t ~tid ~lo ~hi =
  let primary = space_for t tid in
  let result = Space.process_clf primary ~seq:t.seq ~lo ~hi in
  (* A CLWB acts on the physical line: under the strand extension it
     must also update any other strand's space tracking the line. *)
  let result =
    if Hashtbl.length t.strand_spaces = 0 then result
    else
      List.fold_left
        (fun (acc : Space.clf_result) space ->
          if space == primary || not (Space.has_pending_overlap space ~lo ~hi) then acc
          else begin
            let r = Space.process_clf space ~seq:t.seq ~lo ~hi in
            {
              Space.matched = acc.Space.matched + r.Space.matched;
              newly_flushed = acc.Space.newly_flushed + r.Space.newly_flushed;
              redundant = acc.Space.redundant @ r.Space.redundant;
              redundant_prov = acc.Space.redundant_prov @ r.Space.redundant_prov;
            }
          end)
        result (all_spaces t)
  in
  if Obs.Heatmap.is_on t.heatmap && (not t.silent) && hi > lo then
    for line = Addr.line_of lo to Addr.line_of (hi - 1) do
      Obs.Heatmap.on_clf t.heatmap ~seq:t.seq ~line
    done;
  result

(* (addr, size, store seq, prior CLF seq) per redundant hit. *)
let redundant_hits (r : Space.clf_result) =
  List.map2
    (fun (a, s) (store_seq, prior_clf) -> (a, s, store_seq, prior_clf))
    r.Space.redundant r.Space.redundant_prov

(* The canonical redundant hit: the minimum over (store seq, addr,
   size, prior CLF), first one on ties. *)
let rec canonical_hit best = function
  | [] -> best
  | (((a : int), (s : int), (q : int), (c : int)) as hit) :: rest ->
      let better =
        match best with
        | None -> true
        | Some (a', s', q', c') ->
            q < q' || (q = q' && (a < a' || (a = a' && (s < s' || (s = s' && c < c')))))
      in
      canonical_hit (if better then Some hit else best) rest

let clf_fire t ~addr ~size ~matched ~newly ~redundant =
  if t.rules.flush_nothing && matched = 0 && admit t Bug.Flush_nothing ~addr then
    emit t Bug.Flush_nothing ~addr ~size ~chain:[] ~detail:"CLF persists no prior store";
  (* A CLF is redundant only when it covers tracked locations yet
     persists nothing new: a line writeback that also persists a fresh
     store is useful, however many already-flushed neighbours share
     the line. The reported hit is the canonical minimum over
     (store seq, addr, size, prior CLF), independent of bookkeeping
     walk order and of how shards partitioned the range. *)
  if t.rules.redundant_flush && matched > 0 && newly = 0 then begin
    match canonical_hit None redundant with
    | Some (a, s, store_seq, prior_clf) ->
        if admit t Bug.Redundant_flush ~addr:a then
          emit t Bug.Redundant_flush ~addr:a ~size:s
            ~chain:
              (Bug.cause ~addr:a ~size:s ~cls:"store" ~note:"the store being re-flushed" store_seq
              ::
              (if prior_clf >= 0 then [ Bug.cause ~addr:a ~size:s ~cls:"clf" ~note:"already flushed here" prior_clf ]
               else []))
            ~detail:"store flushed again before the fence"
    | None ->
        if admit t Bug.Redundant_flush ~addr then
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
    let r = clf_scan t ~tid ~lo:addr ~hi in
    let matched = r.Space.matched and newly = r.Space.newly_flushed in
    (* Redundant hits matter only to a redundant-flush candidate. *)
    let redundant = if matched > 0 && newly = 0 && t.rules.redundant_flush then redundant_hits r else [] in
    clf_fire t ~addr ~size ~matched ~newly ~redundant
  end

let on_fence t ~tid =
  let space = space_for t tid in
  Space.note_fence_sample space;
  Space.process_fence space ~seq:t.seq;
  if in_epoch t tid then begin
    let fences =
      match Hashtbl.find_opt t.epoch_fences tid with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace t.epoch_fences tid l;
          l
    in
    fences := t.seq :: !fences
  end;
  check_order t;
  if t.crash_check_every_fence then run_crash_check t

let on_epoch_begin t ~tid =
  let d = match Hashtbl.find_opt t.epoch_depth tid with None -> 0 | Some d -> d in
  (* Nested transactions collapse into the outermost one (§6). *)
  if d = 0 then begin
    Hashtbl.replace t.epoch_fences tid (ref []);
    Hashtbl.replace t.epoch_begin_seq tid t.seq;
    Tx_logs.reset t.logs ~tid
  end;
  Hashtbl.replace t.epoch_depth tid (d + 1)

let epoch_begin_cause t ~tid =
  match Hashtbl.find_opt t.epoch_begin_seq tid with
  | Some seq -> [ Bug.cause ~cls:"epoch" ~note:"epoch section opened here" seq ]
  | None -> []

let on_epoch_end t ~tid =
  let d = match Hashtbl.find_opt t.epoch_depth tid with None -> 0 | Some d -> d in
  if d <= 1 then begin
    Hashtbl.replace t.epoch_depth tid 0;
    (* Rules at the outermost epoch end (§5.2). *)
    let fences = match Hashtbl.find_opt t.epoch_fences tid with None -> [] | Some l -> List.rev !l in
    if t.rules.redundant_epoch_fence && List.length fences > 1 && admit t Bug.Redundant_epoch_fence ~addr:(-tid - 1)
    then
      emit t Bug.Redundant_epoch_fence ~addr:(-tid - 1) ~size:0
        ~chain:
          (epoch_begin_cause t ~tid
          @ List.map (fun seq -> Bug.cause ~cls:"fence" ~note:"fence inside the epoch section" seq) fences)
        ~detail:(Printf.sprintf "%d fences inside one epoch section" (List.length fences));
    if t.rules.lack_durability_in_epoch && not t.silent then begin
      let space = space_for t tid in
      if Space.exists_epoch_pending space then
        (* Report each still-pending epoch location, in canonical order
           — see [pending_walk_candidates]. *)
        List.map
          (fun (addr, size, flushed, seq, clf_seq, fence_seq) ->
            let chain =
              epoch_begin_cause t ~tid
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
  else Hashtbl.replace t.epoch_depth tid (d - 1)

let on_tx_log t ~obj_addr ~size ~tid =
  if t.rules.redundant_logging then
    match Tx_logs.note t.logs ~tid (Addr.of_base_size obj_addr size) ~seq:t.seq with
    | Some { Tx_logs.range = prior; seq = log_seq } ->
        if admit t Bug.Redundant_logging ~addr:obj_addr then
          emit t Bug.Redundant_logging ~addr:obj_addr ~size
            ~chain:
              [ Bug.cause ~addr:prior.Addr.lo ~size:(Addr.size prior) ~cls:"tx_log" ~note:"object first logged here" log_seq ]
            ~detail:"object logged more than once in one transaction"
    | None -> ()

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
        let r = clf_scan t ~tid ~lo ~hi in
        { Shard_router.co_matched = r.Space.matched; co_newly = r.Space.newly_flushed; co_redundant = redundant_hits r });
    w_fire_clf =
      (fun ~seq ~addr ~size obs ->
        t.seq <- seq;
        t.cur_class <- "clf";
        clf_fire t ~addr ~size ~matched:obs.Shard_router.co_matched ~newly:obs.Shard_router.co_newly
          ~redundant:obs.Shard_router.co_redundant);
    w_finish =
      (fun () ->
        on_program_end t;
        report t);
  }
