open Pmem

(* Sharded, domain-parallel detection: one router (the engine-facing
   sink, running on the dispatching domain) partitions the event stream
   by cache line across N workers, each owning its own bookkeeping and
   per-rule state. Line L belongs to shard [L mod N]; global events
   (fences, epochs, strands, registrations, program end) are broadcast
   to every worker, so each worker sees exactly the subsequence of the
   trace that concerns its lines, in trace order. The merge reassembles
   one canonical report whose findings equal the single-shard run —
   see DESIGN.md "Sharded detection" for the equality contract.

   Transport: [route] appends each event to its destination shard's
   open frame; a full frame (or the barrier/finish flush of a partial
   one) is published as an immutable [frame] record over the shard's
   [Spsc] queue. The worker runs a frame at a time and bumps
   [processed] once per frame. Inline mode runs the same per-frame
   step on the router's domain at each publish. *)

let max_prior_seqs = 8
(* Must match the bookkeeping cap (Space.max_prior_seqs references
   this constant): the cross-shard merge keeps the 8 smallest seqs of
   the union, which equals the single-shard cap because each shard's
   list is itself the 8 smallest of its partition. *)

(* Events per full frame, and frames a shard's queue holds before the
   router blocks (~1024 events in flight per shard). *)
let frame_events = 256
let queue_frames = 4

type store_obs = { so_overlapped : bool; so_prior_seqs : int list }

type clf_obs = {
  co_matched : int;
  co_newly : int;
  co_redundant : (int * int * int * int) list;
      (* (addr, size, store seq, prior CLF seq) per already-flushed hit *)
}

type worker = {
  w_event : seq:int -> silent:bool -> Event.t -> unit;
  w_scan_store : seq:int -> tid:int -> lo:int -> hi:int -> store_obs;
  w_fire_store : seq:int -> addr:int -> size:int -> store_obs -> unit;
  w_scan_clf : seq:int -> tid:int -> lo:int -> hi:int -> clf_obs;
  w_fire_clf : seq:int -> addr:int -> size:int -> clf_obs -> unit;
  w_finish : unit -> Bug.report;
}

let cap_priors priors =
  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
  take max_prior_seqs (List.sort_uniq compare priors)

let merge_store_obs obs =
  {
    so_overlapped = List.exists (fun o -> o.so_overlapped) obs;
    so_prior_seqs = cap_priors (List.concat_map (fun o -> o.so_prior_seqs) obs);
  }

let merge_clf_obs obs =
  {
    co_matched = List.fold_left (fun acc o -> acc + o.co_matched) 0 obs;
    co_newly = List.fold_left (fun acc o -> acc + o.co_newly) 0 obs;
    co_redundant = List.concat_map (fun o -> o.co_redundant) obs;
  }

(* {2 Frames and the worker side} *)

(* One published batch of a shard's events, in stream order. Never
   mutated after the publish: its arrays are fresh copies, so the
   consumer owns them outright. [f_stop] marks a shard's last frame. *)
type frame = {
  f_events : Event.t array;
  f_seqs : int array;
  f_silent : bool array;
  f_count : int;
  f_stop : bool;
}

(* A shard's worker and its accounting. [c_failure] belongs to the
   domain that runs the shard's frames (its own domain, or the router's
   inline); the router reads [c_processed], and calls [c_worker]
   directly only while the shard is drained. *)
type consumer = {
  c_worker : worker;
  c_processed : int Atomic.t; (* events run, bumped once per frame *)
  mutable c_failure : string option; (* first detector exception *)
}

(* The one per-frame step, for the domain loop and inline mode alike.
   A detector exception is recorded and the remaining events skipped,
   so the stream keeps draining. The [processed] bump comes last: a
   router that reads it may touch the worker's state directly. *)
let run_frame c f =
  for k = 0 to f.f_count - 1 do
    if c.c_failure = None then
      try c.c_worker.w_event ~seq:f.f_seqs.(k) ~silent:f.f_silent.(k) f.f_events.(k)
      with exn -> c.c_failure <- Some (Printexc.to_string exn)
  done;
  ignore (Atomic.fetch_and_add c.c_processed f.f_count)

let finish_worker c =
  let r =
    try c.c_worker.w_finish ()
    with exn -> { (Bug.empty_report "sharded") with Bug.failure = Some (Printexc.to_string exn) }
  in
  match c.c_failure with None -> r | Some msg -> { r with Bug.failure = Some msg }

(* The queue is closed on every exit path: if a worker domain ever dies
   (it should not — detector exceptions are caught in [run_frame]), the
   router's next push raises [Spsc.Closed] instead of blocking forever
   on a consumer that is gone; the engine then quarantines the router
   sink. *)
let worker_loop c q =
  Fun.protect ~finally:(fun () -> Spsc.close q) @@ fun () ->
  let rec go () =
    let f = Spsc.pop q in
    run_frame c f;
    if f.f_stop then finish_worker c else go ()
  in
  go ()

(* {2 The router} *)

(* A shard's open frame: [fill] events staged since the last publish. *)
type staging = {
  s_events : Event.t array;
  s_seqs : int array;
  s_silent : bool array;
  mutable s_fill : int;
}

type t = {
  shards : int;
  consumers : consumer array;
  staging : staging array;
  queues : frame Spsc.t array; (* empty in inline mode *)
  pushed : int array; (* per shard: events published *)
  domains : Bug.report Domain.t array; (* empty in inline mode *)
  mutable registered : Addr.range list;
  mutable track_all : bool;
  pinned : (int, unit) Hashtbl.t; (* line index -> (), lines of registered vars *)
  mutable events : int;
  max_bugs_per_kind : int;
  mutable result : Bug.report option;
}

let use_domains t = Array.length t.queues > 0

(* Close shard [i]'s open frame and hand it over: pushed to the worker
   domain, or run right here in inline mode. *)
let publish t i ~stop =
  let s = t.staging.(i) in
  let n = s.s_fill in
  let f =
    {
      f_events = Array.sub s.s_events 0 n;
      f_seqs = Array.sub s.s_seqs 0 n;
      f_silent = Array.sub s.s_silent 0 n;
      f_count = n;
      f_stop = stop;
    }
  in
  s.s_fill <- 0;
  t.pushed.(i) <- t.pushed.(i) + n;
  if use_domains t then Spsc.push t.queues.(i) f else run_frame t.consumers.(i) f

let send t i ~seq ~silent ev =
  let s = t.staging.(i) in
  let k = s.s_fill in
  s.s_events.(k) <- ev;
  s.s_seqs.(k) <- seq;
  s.s_silent.(k) <- silent;
  s.s_fill <- k + 1;
  if k + 1 = frame_events then publish t i ~stop:false

let broadcast t ~seq ?silent_except ev =
  for i = 0 to t.shards - 1 do
    let silent = match silent_except with None -> false | Some owner -> i <> owner in
    send t i ~seq ~silent ev
  done

(* Wait until every worker has run everything routed so far. Partial
   frames are published first: a drain that did not flush would spin
   forever on staged events no worker can see. The Atomic read of
   [processed] after the worker's last mutation gives the router a
   happens-before edge: once drained, the router may touch worker state
   directly (the workers are parked in [Spsc.pop]). *)
let drain t =
  for i = 0 to t.shards - 1 do
    if t.staging.(i).s_fill > 0 then publish t i ~stop:false
  done;
  if use_domains t then
    for i = 0 to t.shards - 1 do
      let n = ref 0 in
      while Atomic.get t.consumers.(i).c_processed < t.pushed.(i) do
        if !n < 64 then Domain.cpu_relax () else Unix.sleepf 0.000_05;
        incr n
      done
    done

(* {2 Address-range decomposition} *)

let owner t line = line mod t.shards

let in_registered t ~lo ~hi =
  t.track_all || List.exists (fun r -> Addr.overlaps r (Addr.range ~lo ~hi)) t.registered

(* Stalled (multi-line) address event: drain everyone, pin the lines
   when the event is a store (the spanning location it creates must be
   replicated, and every later event on those lines broadcast to keep
   the replicas in step), then scan the event's FULL range synchronously
   on every shard and fire the rule exactly once, with the merged
   observation, on the owner of the first line.

   The full-range scan — never a per-line clip — is what the equality
   contract rests on: a location's extent is observable (a partial
   overwrite unflushes the whole slot; findings report slot extents), so
   a clipped slot would evolve differently from the single-shard run.
   Scanning everywhere means replicas and owner-resident locations are
   each observed once per holding shard; the merged observation dedups
   (priors are sorted/uniqued, counts are used as zero-tests, the
   redundant-flush pick is a canonical minimum), so multiplicity never
   shows. *)
let stalled_address_event t ~seq ~tid ~lo ~hi ev =
  drain t;
  let fire_shard = owner t (Addr.line_of lo) in
  match ev with
  | `Store ->
      List.iter (fun l -> Hashtbl.replace t.pinned l ()) (Addr.lines_of_range ~lo ~hi);
      let obs =
        List.init t.shards (fun i -> t.consumers.(i).c_worker.w_scan_store ~seq ~tid ~lo ~hi)
      in
      t.consumers.(fire_shard).c_worker.w_fire_store ~seq ~addr:lo ~size:(hi - lo) (merge_store_obs obs)
  | `Clf ->
      let obs = List.init t.shards (fun i -> t.consumers.(i).c_worker.w_scan_clf ~seq ~tid ~lo ~hi) in
      t.consumers.(fire_shard).c_worker.w_fire_clf ~seq ~addr:lo ~size:(hi - lo) (merge_clf_obs obs)

let address_event t ~seq ~tid ~addr ~size ev_tag ev =
  let lo = addr and hi = addr + size in
  if size <= 0 || not (in_registered t ~lo ~hi) then ()
  else
    match Addr.lines_of_range ~lo ~hi with
    | [ l ] when Hashtbl.mem t.pinned l ->
        (* A pinned line is replicated: every shard applies the event to
           its replica; only the owner reports. The owner's observation
           is complete — every location overlapping its line lives on it
           (its own residents plus every replica). *)
        broadcast t ~seq ~silent_except:(owner t l) ev
    | [ l ] -> send t (owner t l) ~seq ~silent:false ev
    | l :: rest
      when (not (List.exists (Hashtbl.mem t.pinned) (l :: rest)))
           && List.for_all (fun l' -> owner t l' = owner t l) rest ->
        (* Multi-line but single-owner and unpinned: the spanning
           location stays whole on one shard. *)
        send t (owner t l) ~seq ~silent:false ev
    | _ -> stalled_address_event t ~seq ~tid ~lo ~hi ev_tag

let route t ev =
  t.events <- t.events + 1;
  let seq = t.events in
  match ev with
  | Event.Store { addr; size; tid } -> address_event t ~seq ~tid ~addr ~size `Store ev
  | Event.Clf { addr; size; tid; kind = _ } -> address_event t ~seq ~tid ~addr ~size `Clf ev
  | Event.Tx_log _ ->
      (* Redundant-logging state is per transaction, not per line: keep
         the whole log view on shard 0 so overlap checks see every
         append. Epoch begin/end (which scope the log) are broadcast,
         so shard 0 sees them too. *)
      send t 0 ~seq ~silent:false ev
  | Event.Register_pmem { base; size } ->
      t.track_all <- false;
      t.registered <- Addr.of_base_size base size :: t.registered;
      broadcast t ~seq ev
  | Event.Register_var { name = _; addr; size } ->
      (* Pin the variable's lines: every shard replicates them so the
         broadcast order/durability rules read identical var state.
         Contract: Register_var precedes stores to its range. *)
      List.iter (fun l -> Hashtbl.replace t.pinned l ()) (Addr.lines_of_range ~lo:addr ~hi:(addr + size));
      broadcast t ~seq ev
  | Event.Fence _ | Event.Epoch_begin _ | Event.Epoch_end _ | Event.Strand_begin _ | Event.Strand_end _
  | Event.Join_strand _ | Event.Call _ | Event.Annotation _ | Event.Program_end ->
      broadcast t ~seq ev

(* {2 Merging shard reports} *)

(* Since no location is ever clipped (spanning ranges are replicated
   whole, see [stalled_address_event]), a shard's findings are exactly a
   subset of the single-shard run's — replicated locations just report
   once per holding shard, byte-identically. Canonical sorting brings
   the replicas together; dropping equal neighbours leaves the
   single-shard multiset. *)
let dedup_replicas bugs =
  let rec go = function
    | a :: b :: rest when Bug.compare_canonical a b = 0 -> go (a :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go bugs

let dedup_by_kind_addr bugs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (b : Bug.t) ->
      let key = (b.Bug.kind, b.Bug.addr) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    bugs

(* The kept findings, and (kind, seq) for every kind whose cut fell
   between two findings of the same seq. The plain run caps in
   discovery order, the merge in canonical order; both are sorted by
   seq, so they keep the same findings unless the cut splits a run of
   equal-seq findings, whose order may differ. *)
let cap_per_kind limit bugs =
  let counts = Hashtbl.create 16 and last_kept = Hashtbl.create 16 in
  let ambiguous = ref [] in
  let kept =
    List.filter
      (fun (b : Bug.t) ->
        let n = match Hashtbl.find_opt counts b.Bug.kind with None -> 0 | Some n -> n in
        Hashtbl.replace counts b.Bug.kind (n + 1);
        if n < limit then begin
          Hashtbl.replace last_kept b.Bug.kind b.Bug.seq;
          true
        end
        else begin
          if n = limit && Hashtbl.find_opt last_kept b.Bug.kind = Some b.Bug.seq then
            ambiguous := (b.Bug.kind, b.Bug.seq) :: !ambiguous;
          false
        end)
      bugs
  in
  (kept, List.rev !ambiguous)

(* Merge over the *union* of stat keys: a key present only in shards
   1..N-1 (a backend counter that never tripped on shard 0's partition,
   say) must not vanish from the merged report. Keys keep first-
   appearance order across the shard list — shard 0's order first, then
   later shards' extras — so the merged list is deterministic. Counters
   sum across shards; [avg_*] stats are taken from the first shard that
   carries them (shard 0 when present, whose fence cadence every shard
   shares). *)
let merge_stats reports =
  match reports with
  | [] -> []
  | _ ->
      let order = ref [] in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun r ->
          List.iter
            (fun (key, _) ->
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                order := key :: !order
              end)
            r.Bug.stats)
        reports;
      List.rev_map
        (fun key ->
          if String.length key >= 4 && String.sub key 0 4 = "avg_" then
            let v =
              List.fold_left
                (fun acc r -> match acc with Some _ -> acc | None -> List.assoc_opt key r.Bug.stats)
                None reports
            in
            (key, match v with Some v -> v | None -> 0.0)
          else
            ( key,
              List.fold_left
                (fun acc r -> acc +. (try List.assoc key r.Bug.stats with Not_found -> 0.0))
                0.0 reports ))
        !order

(* The contract breaches the merge can see (DESIGN "Sharded detection"):
   a shard that reorganized its spill tree has coarsened provenance,
   and a per-kind cap that cut inside a run of equal-seq findings may
   keep other findings than the plain run's. Either may make the merged
   findings differ from the plain run, so the report says so instead
   of diverging silently. *)
let contract_breach ~limit reports ambiguous =
  let reorganized =
    List.concat
      (List.mapi
         (fun i r ->
           match List.assoc_opt "reorganizations" r.Bug.stats with
           | Some n when n > 0.0 -> [ Printf.sprintf "shard %d reorganized its spill tree %.0f time(s)" i n ]
           | _ -> [])
         reports)
  in
  let capped =
    List.map
      (fun (kind, seq) ->
        Printf.sprintf "the per-kind cap (%d) cut the %s findings of seq %d" limit (Bug.kind_name kind) seq)
      ambiguous
  in
  match reorganized @ capped with
  | [] -> None
  | conditions ->
      Some
        ("sharded equality contract breached: " ^ String.concat "; " conditions
       ^ "; findings may differ from the unsharded run")

let merge_reports t reports =
  let bugs = List.concat_map (fun r -> r.Bug.bugs) reports in
  let bugs, ambiguous =
    List.sort Bug.compare_canonical bugs |> dedup_replicas |> dedup_by_kind_addr
    |> cap_per_kind t.max_bugs_per_kind
  in
  let failure =
    match List.find_map (fun r -> r.Bug.failure) reports with
    | Some _ as f -> f
    | None -> contract_breach ~limit:t.max_bugs_per_kind reports ambiguous
  in
  {
    Bug.detector = (match reports with r :: _ -> r.Bug.detector | [] -> "sharded");
    bugs;
    events_processed = t.events;
    stats = merge_stats reports;
    failure;
  }

(* {2 The sink} *)

let finish t =
  match t.result with
  | Some r -> r
  | None ->
      (* Guarantee every worker observes the end of the trace even when
         the replayed file lacks an explicit Program_end (end-of-trace
         rules are idempotent on a second delivery). Each shard's last
         frame carries its staged tail and the stop. *)
      broadcast t ~seq:t.events Event.Program_end;
      for i = 0 to t.shards - 1 do
        publish t i ~stop:true
      done;
      let reports =
        if use_domains t then Array.to_list (Array.map Domain.join t.domains)
        else Array.to_list (Array.map finish_worker t.consumers)
      in
      let r = merge_reports t reports in
      t.result <- Some r;
      r

let sink ~shards ?(domains = true) ?(max_bugs_per_kind = 1000) make_worker =
  if shards < 1 then invalid_arg "Shard_router.sink: shards must be >= 1";
  let consumers =
    Array.init shards (fun i -> { c_worker = make_worker i; c_processed = Atomic.make 0; c_failure = None })
  in
  let queues = if domains then Array.init shards (fun _ -> Spsc.create ~capacity:queue_frames) else [||] in
  let t =
    {
      shards;
      consumers;
      staging =
        Array.init shards (fun _ ->
            {
              s_events = Array.make frame_events Event.Program_end;
              s_seqs = Array.make frame_events 0;
              s_silent = Array.make frame_events false;
              s_fill = 0;
            });
      queues;
      pushed = Array.make shards 0;
      domains = Array.mapi (fun i q -> Domain.spawn (fun () -> worker_loop consumers.(i) q)) queues;
      registered = [];
      track_all = true;
      pinned = Hashtbl.create 16;
      events = 0;
      max_bugs_per_kind;
      result = None;
    }
  in
  Sink.make ~name:"pmdebugger-sharded" ~on_event:(fun ev -> route t ev) ~finish:(fun () -> finish t)
