(* The sharded detection pipeline: SPSC queue, router parity against
   the single-detector run (the equality contract), cross-shard
   prior-seq merging, finish_all ordering, and the bookkeeping space
   against the flat reference oracle. *)

open Pmtrace
module D = Pmdebugger.Detector
module Space = Pmdebugger.Space
module F = Flat_oracle

(* The plain detector reports findings in discovery order, the sharded
   merge in canonical order; sort both before comparing renders. *)
let canon (r : Bug.report) =
  Bug.render_canonical { r with Bug.bugs = List.sort Bug.compare_canonical r.Bug.bugs }

let replay_plain ?mode ?(model = D.Strict) trace =
  Recorder.replay trace (D.sink (D.create ~model ?mode ()))

let replay_sharded ?mode ?(model = D.Strict) ?(domains = false) ~shards trace =
  Recorder.replay trace
    (Shard_router.sink ~shards ~domains (fun _ -> D.worker (D.create ~model ?mode ~walk_dedup:false ())))

(* ---------------------------------------------------------------- *)
(* SPSC queue                                                        *)
(* ---------------------------------------------------------------- *)

let test_spsc_fifo () =
  let q = Spsc.create ~capacity:5 in
  for i = 0 to 5 do
    Spsc.push q i
  done;
  for i = 0 to 5 do
    Alcotest.(check int) "FIFO order" i (Spsc.pop q)
  done

let test_spsc_wraparound () =
  let q = Spsc.create ~capacity:4 in
  for round = 0 to 20 do
    Spsc.push q (2 * round);
    Spsc.push q ((2 * round) + 1);
    Alcotest.(check int) "pop even" (2 * round) (Spsc.pop q);
    Alcotest.(check int) "pop odd" ((2 * round) + 1) (Spsc.pop q)
  done

(* A queue much smaller than the payload forces both the full-queue
   and the empty-queue backoff paths across a real domain boundary. *)
let test_spsc_cross_domain () =
  let n = 50_000 in
  let q = Spsc.create ~capacity:64 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Spsc.push q i
        done)
  in
  let ok = ref true in
  for i = 1 to n do
    if Spsc.pop q <> i then ok := false
  done;
  Domain.join producer;
  Alcotest.(check bool) "every element, in order" true !ok

(* Close-race exact delivery (regression): the producer's push used to
   re-check [closed] only while the ring was full, so a push racing a
   consumer-side close on a non-full ring could return normally yet
   publish an element no drain would ever see — the router then counts
   a pushed event its worker never processed. Now a push that returns
   normally is guaranteed visible to a closer's final drain (pop drains
   before raising Closed), so the consumer's tally can never fall short
   of the producer's success count; it can exceed it by at most the one
   in-flight push that raised after its publishing store. *)
let test_spsc_close_race_exact_delivery () =
  for _round = 1 to 50 do
    let q = Spsc.create ~capacity:4 in
    let producer =
      Domain.spawn (fun () ->
          let successes = ref 0 in
          (try
             while true do
               Spsc.push q !successes;
               incr successes
             done
           with Spsc.Closed -> ());
          !successes)
    in
    let consumed = ref 0 in
    (try
       (* A worker-style consumer: pop a while, then tear the stream
          down mid-flight and keep popping — [pop] drains what was
          published before raising [Closed]. *)
       while !consumed < 100 do
         ignore (Spsc.pop q);
         incr consumed
       done;
       Spsc.close q;
       while true do
         ignore (Spsc.pop q);
         incr consumed
       done
     with Spsc.Closed -> ());
    let successes = Domain.join producer in
    if !consumed < successes then
      Alcotest.failf "silent loss: producer delivered %d but consumer saw only %d" successes !consumed;
    if !consumed > successes + 1 then
      Alcotest.failf "over-delivery: producer delivered %d but consumer saw %d" successes !consumed
  done

(* ---------------------------------------------------------------- *)
(* Frames: the shard transport, observed through the sink            *)
(* ---------------------------------------------------------------- *)

(* A worker that records every (seq, silent) it runs, for the frame
   tests. Each shard's log is touched only by the domain running that
   shard's frames, and read after [finish] has joined it. *)
let recording_workers shards =
  let logs = Array.init shards (fun _ -> ref []) in
  let make i =
    {
      Shard_router.w_event = (fun ~seq ~silent _ -> logs.(i) := (seq, silent) :: !(logs.(i)));
      w_scan_store = (fun ~seq:_ ~tid:_ ~lo:_ ~hi:_ -> { Shard_router.so_overlapped = false; so_prior_seqs = [] });
      w_fire_store = (fun ~seq:_ ~addr:_ ~size:_ _ -> ());
      w_scan_clf = (fun ~seq:_ ~tid:_ ~lo:_ ~hi:_ -> { Shard_router.co_matched = 0; co_newly = 0; co_redundant = [] });
      w_fire_clf = (fun ~seq:_ ~addr:_ ~size:_ _ -> ());
      w_finish = (fun () -> Bug.empty_report "recording");
    }
  in
  (logs, make)

(* Tx_log appends all route to shard 0, so the frame boundaries are
   exact: a frame goes out at every 256th event, and the stop frame
   carries the partial tail plus the end-of-trace broadcast. *)
let test_frame_boundary_and_stop_partial () =
  let logs, make = recording_workers 2 in
  let sink = Shard_router.sink ~shards:2 ~domains:false make in
  let tx = Event.Tx_log { obj_addr = 0; size = 8; tid = 0 } in
  for _ = 1 to 512 do
    sink.Sink.on_event tx
  done;
  Alcotest.(check int) "two full frames published and run" 512 (List.length !(logs.(0)));
  sink.Sink.on_event tx;
  Alcotest.(check int) "the 513th event is staged, not run" 512 (List.length !(logs.(0)));
  for _ = 1 to 86 do
    sink.Sink.on_event tx
  done;
  ignore (sink.Sink.finish ());
  Alcotest.(check (list int)) "every event exactly once, in order, then the end of trace"
    (List.init 599 (fun i -> i + 1) @ [ 599 ])
    (List.rev_map fst !(logs.(0)));
  Alcotest.(check (list int)) "shard 1: only the end of trace" [ 599 ] (List.map fst !(logs.(1)))

(* Exact, ordered delivery across a real domain boundary: stores
   alternate between shard 0's and shard 1's lines, so each shard
   sees every other seq, through many full frames and a partial stop
   frame. *)
let test_frame_cross_domain () =
  let n = 50_000 in
  let logs, make = recording_workers 2 in
  let sink = Shard_router.sink ~shards:2 make in
  for i = 1 to n do
    sink.Sink.on_event (Event.Store { addr = (i land 1) * 64; size = 8; tid = 0 })
  done;
  ignore (sink.Sink.finish ());
  (* Each log ends with the end-of-trace broadcast. *)
  let stores shard = List.rev (List.tl !(logs.(shard))) in
  Alcotest.(check bool) "shard 1 ran the odd seqs, in order" true
    (List.map fst (stores 1) = List.init (n / 2) (fun i -> (2 * i) + 1));
  Alcotest.(check bool) "shard 0 ran the even seqs, in order" true
    (List.map fst (stores 0) = List.init (n / 2) (fun i -> (2 * i) + 2));
  Alcotest.(check bool) "no replica silenced" true (List.for_all (fun (_, silent) -> not silent) (stores 0 @ stores 1))

(* ---------------------------------------------------------------- *)
(* Engine.finish_all ordering (regression for the documented          *)
(* guarantee the shard merge relies on)                               *)
(* ---------------------------------------------------------------- *)

let mk_named name = Sink.make ~name ~on_event:(fun _ -> ()) ~finish:(fun () -> Bug.empty_report name)

let drive_engine e =
  Engine.register_pmem e ~base:0 ~size:4096;
  Engine.store_int e ~addr:0 42;
  Engine.clwb e ~addr:0;
  Engine.sfence e;
  Engine.program_end e

let test_finish_all_attach_order () =
  let e = Engine.create () in
  Engine.attach e (mk_named "first");
  Engine.attach e (Shard_router.sink ~shards:2 ~domains:false (fun _ -> D.worker (D.create ~walk_dedup:false ())));
  Engine.attach e (mk_named "last");
  drive_engine e;
  let names = List.map (fun r -> r.Bug.detector) (Engine.finish_all e) in
  Alcotest.(check (list string)) "one report per sink, in attach order" [ "first"; "pmdebugger"; "last" ] names

let test_finish_all_order_survives_quarantine () =
  let e = Engine.create () in
  Engine.attach e (mk_named "a");
  Engine.attach e (Sink.make ~name:"boom" ~on_event:(fun _ -> ()) ~finish:(fun () -> failwith "kaboom"));
  Engine.attach e (mk_named "z");
  drive_engine e;
  let reports = Engine.finish_all e in
  Alcotest.(check int) "still three reports" 3 (List.length reports);
  Alcotest.(check string) "first in place" "a" (List.nth reports 0).Bug.detector;
  Alcotest.(check string) "last in place" "z" (List.nth reports 2).Bug.detector;
  Alcotest.(check bool) "middle carries the failure" true ((List.nth reports 1).Bug.failure <> None)

(* ---------------------------------------------------------------- *)
(* prior_seqs across shard boundaries (cap of the union = smallest 8) *)
(* ---------------------------------------------------------------- *)

let test_merge_store_obs_cap () =
  let o1 = { Shard_router.so_overlapped = true; so_prior_seqs = [ 1; 3; 5; 7; 9; 11; 13; 15 ] } in
  let o2 = { Shard_router.so_overlapped = false; so_prior_seqs = [ 2; 4; 6; 8; 10; 12; 14; 16 ] } in
  let m = Shard_router.merge_store_obs [ o1; o2 ] in
  Alcotest.(check bool) "overlap ORs" true m.Shard_router.so_overlapped;
  Alcotest.(check (list int))
    "cap keeps the smallest max_prior_seqs of the union" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    m.Shard_router.so_prior_seqs;
  Alcotest.(check int) "the cap is 8" 8 Shard_router.max_prior_seqs

(* A store spanning two shards' cache lines with more prior stores than
   the cap: the merged chain must be the 8 smallest seqs of the union,
   exactly as a single-shard run reports. *)
let test_prior_seqs_span_two_shards () =
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  emit (Event.Register_pmem { base = 0; size = 1024 });
  (* Twelve non-overlapping 4-byte stores: six on line 0, six on line 1
     (seqs 2..13), none durable. *)
  for i = 0 to 11 do
    emit (Event.Store { addr = 40 + (4 * i); size = 4; tid = 0 })
  done;
  (* Seq 14 overwrites all twelve across the line-0/line-1 boundary. *)
  emit (Event.Store { addr = 40; size = 48; tid = 0 });
  emit Event.Program_end;
  let trace = Array.of_list (List.rev !evs) in
  let single = replay_plain trace in
  let sharded = replay_sharded ~shards:2 trace in
  Alcotest.(check string) "reports identical" (canon single) (canon sharded);
  let mo =
    match List.find_opt (fun b -> b.Bug.kind = Bug.Multiple_overwrites) sharded.Bug.bugs with
    | Some b -> b
    | None -> Alcotest.fail "no multiple-overwrites finding"
  in
  Alcotest.(check int) "full range reported" 48 mo.Bug.size;
  let seqs =
    (* The chain's prior-store causes, without the trailing cause for
       the firing store itself. *)
    List.filter_map
      (fun c -> if c.Bug.c_class = "store" && c.Bug.c_seq <> mo.Bug.seq then Some c.Bug.c_seq else None)
      mo.Bug.chain
  in
  Alcotest.(check (list int)) "chain = 8 smallest priors of the union" [ 2; 3; 4; 5; 6; 7; 8; 9 ] seqs

(* ---------------------------------------------------------------- *)
(* merge_stats: union of keys (regression)                           *)
(* ---------------------------------------------------------------- *)

(* The merge used to map over shard 0's stat list only, silently
   dropping any key that first appears on a later shard (a backend
   counter that never tripped on shard 0's partition). *)
let mk_stat_worker stats shard =
  {
    Shard_router.w_event = (fun ~seq:_ ~silent:_ _ -> ());
    w_scan_store = (fun ~seq:_ ~tid:_ ~lo:_ ~hi:_ -> { Shard_router.so_overlapped = false; so_prior_seqs = [] });
    w_fire_store = (fun ~seq:_ ~addr:_ ~size:_ _ -> ());
    w_scan_clf = (fun ~seq:_ ~tid:_ ~lo:_ ~hi:_ -> { Shard_router.co_matched = 0; co_newly = 0; co_redundant = [] });
    w_fire_clf = (fun ~seq:_ ~addr:_ ~size:_ _ -> ());
    w_finish = (fun () -> { (Bug.empty_report "stats-worker") with Bug.stats = stats shard });
  }

let test_merge_stats_union () =
  let stats = function
    | 0 -> [ ("shared", 1.0); ("avg_everywhere", 4.0) ]
    | _ -> [ ("shared", 2.0); ("only_on_shard_1", 5.0); ("avg_only_on_shard_1", 7.0) ]
  in
  let report =
    Recorder.replay [| Event.Program_end |]
      (Shard_router.sink ~shards:2 ~domains:false (mk_stat_worker stats))
  in
  let get key =
    match List.assoc_opt key report.Bug.stats with
    | Some v -> v
    | None -> Alcotest.failf "stat %S missing from the merged report" key
  in
  Alcotest.(check (float 0.0)) "shared counters sum across shards" 3.0 (get "shared");
  Alcotest.(check (float 0.0)) "key present only on shard 1 survives the merge" 5.0 (get "only_on_shard_1");
  Alcotest.(check (float 0.0)) "avg_ key from the first shard carrying it" 7.0 (get "avg_only_on_shard_1");
  Alcotest.(check (float 0.0)) "avg_ key on shard 0 stays shard 0's" 4.0 (get "avg_everywhere");
  Alcotest.(check (list string)) "first-appearance key order"
    [ "shared"; "avg_everywhere"; "only_on_shard_1"; "avg_only_on_shard_1" ]
    (List.map fst report.Bug.stats)

(* ---------------------------------------------------------------- *)
(* QCheck parity: random traces, sharded vs single                   *)
(* ---------------------------------------------------------------- *)

let lines = 8
let region = lines * 64

(* Random but contract-respecting traces: Register_pmem first, then
   optional Register_var pins (before any store), then a mix of
   (possibly line-crossing) stores, line-granular CLFs, fences, epoch
   and strand markers, tx-log appends and call markers. Small address
   space so line collisions, overwrites and cross-shard ranges are
   common. *)
let trace_of (vars, ops) =
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  emit (Event.Register_pmem { base = 0; size = region });
  List.iter
    (fun (line, wide) ->
      let line = line mod lines in
      let size = if wide then 80 else 16 in
      let size = min size (region - (line * 64) - 8) in
      if size > 0 then emit (Event.Register_var { name = "v"; addr = (line * 64) + 8; size }))
    vars;
  let strand = ref 0 in
  List.iter
    (fun (op, (a, s)) ->
      match op with
      | 0 | 1 | 2 | 3 ->
          let addr = a land lnot 7 in
          let size = min (8 * s) (region - addr) in
          if size > 0 then emit (Event.Store { addr; size; tid = 0 })
      | 4 | 5 ->
          let addr = a / 64 * 64 in
          let size = min (if s > 2 then 128 else 64) (region - addr) in
          emit (Event.Clf { addr; size; kind = Event.Clwb; tid = 0 })
      | 6 -> emit (Event.Fence { tid = 0 })
      | 7 -> emit (if s land 1 = 0 then Event.Epoch_begin { tid = 0 } else Event.Epoch_end { tid = 0 })
      | 8 ->
          if s land 1 = 0 then begin
            incr strand;
            emit (Event.Strand_begin { tid = 0; strand = !strand land 3 })
          end
          else emit (Event.Join_strand { tid = 0 })
      | 9 -> emit (Event.Tx_log { obj_addr = a land lnot 7; size = 8; tid = 0 })
      | _ -> emit (Event.Call { func = "persist_obj"; tid = 0 })
    )
    ops;
  emit Event.Program_end;
  Array.of_list (List.rev !evs)

let gen_ops size =
  QCheck.(
    pair
      (list_of_size Gen.(0 -- 2) (pair (int_range 0 (lines - 1)) bool))
      (list_of_size size (pair (int_range 0 10) (pair (int_range 0 (region - 1)) (int_range 1 4)))))

let gen_trace = gen_ops QCheck.Gen.(0 -- 60)

(* Long enough that every shard, even one of 8, runs past two full
   frames (512 events): about a third of the ops are broadcasts. *)
let gen_long_trace = gen_ops QCheck.Gen.(1600 -- 2400)

(* Crash-image findings (cross-failure) are vacuously equal here: the
   rule needs a live PM state, which neither the plain nor the sharded
   replay has — so the byte-identical report comparison covers every
   rule that can fire on a replayed trace. *)
let parity_prop ?mode ?(model = D.Strict) ~shards input =
  let trace = trace_of input in
  let expected = canon (replay_plain ?mode ~model trace) in
  canon (replay_sharded ?mode ~model ~shards trace) = expected

let prop_parity_modes =
  QCheck.Test.make ~name:"sharded report equals single run (2 modes x 1/2/4/8 shards, strict)" ~count:30 gen_trace
    (fun input ->
      List.for_all
        (fun mode ->
          List.for_all
            (fun shards -> parity_prop ~mode ~shards input)
            [ 1; 2; 4; 8 ])
        [ Pmdebugger.Space.Hybrid; Pmdebugger.Space.Tree_only ])

let prop_parity_relaxed_models =
  QCheck.Test.make ~name:"sharded report equals single run (epoch and strand models)" ~count:25 gen_trace
    (fun input ->
      List.for_all (fun model -> List.for_all (fun shards -> parity_prop ~model ~shards input) [ 2; 4 ])
        [ D.Epoch; D.Strand ])

let prop_parity_domains =
  QCheck.Test.make ~name:"sharded report equals single run (real domains)" ~count:6 gen_trace (fun input ->
      let trace = trace_of input in
      let expected = canon (replay_plain trace) in
      canon (Recorder.replay trace (Shard_router.sink ~shards:2 (fun _ -> D.worker (D.create ~walk_dedup:false ())))) = expected)

(* Parity on traces longer than two frames per shard, so full-frame
   publishes, barrier flushes of partial frames and the stop frame all
   occur within one run — inline, and on real domains. *)
let long_parity ~domains shards input =
  let trace = trace_of input in
  canon (replay_sharded ~domains ~shards trace) = canon (replay_plain trace)

let prop_parity_long_inline =
  QCheck.Test.make ~name:"framed transport parity (frames past two per shard x 2/4/8 shards, inline)" ~count:10
    gen_long_trace (fun input -> List.for_all (fun shards -> long_parity ~domains:false shards input) [ 2; 4; 8 ])

let prop_parity_long_domains =
  QCheck.Test.make ~name:"framed transport parity (real domains, frames past two per shard)" ~count:4
    gen_long_trace (fun input -> long_parity ~domains:true 2 input)

(* Deterministic frame-boundary edge case: a cross-shard store arrives
   while both shards hold partially staged frames. The barrier must
   flush them before scanning (inline and with real domains), or the
   scans would run against workers that have not seen the preceding
   stores — and with domains the drain would spin on staged events no
   worker can see. *)
let test_barrier_mid_frame () =
  let trace =
    [|
      Event.Register_pmem { base = 0; size = region };
      Event.Store { addr = 0; size = 8; tid = 0 };
      Event.Store { addr = 64; size = 8; tid = 0 };
      Event.Store { addr = 56; size = 16; tid = 0 };
      Event.Clf { addr = 0; size = 128; kind = Event.Clwb; tid = 0 };
      Event.Fence { tid = 0 };
      Event.Program_end;
    |]
  in
  let expected = canon (replay_plain trace) in
  List.iter
    (fun domains ->
      Alcotest.(check string) "report survives a mid-frame barrier" expected
        (canon (replay_sharded ~domains ~shards:2 trace)))
    [ false; true ]

(* ---------------------------------------------------------------- *)
(* Equality-contract breaches fail loudly                            *)
(* ---------------------------------------------------------------- *)

let run_workload_sharded name ~n ~shards =
  let spec = Workloads.Registry.find_exn name in
  let model = spec.Workloads.Workload.model in
  let engine = Engine.create () in
  Engine.attach engine
    (Shard_router.sink ~shards ~domains:false (fun _ -> D.worker (D.create ~model ~walk_dedup:false ())));
  spec.Workloads.Workload.run (Workloads.Workload.params ~n ()) engine;
  match Engine.finish_all engine with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* memcached n=10000 reorganizes the spill tree on a shard, and its
   2-shard findings differ from the plain run's: the merged report
   must carry a failure naming the shard, not pass as equal. The
   CI-sized 4-shard run stays inside the contract. *)
let test_breach_reorganization () =
  let r = run_workload_sharded "memcached" ~n:10_000 ~shards:2 in
  (match r.Bug.failure with
  | Some msg ->
      Alcotest.(check bool) (Printf.sprintf "failure names the condition and the shard: %s" msg) true
        (contains msg "reorganized" && contains msg "shard ")
  | None -> Alcotest.fail "a reorganizing 2-shard run passed as equal to the plain run");
  let r = run_workload_sharded "memcached" ~n:2000 ~shards:4 in
  Alcotest.(check (option string)) "0 reorganizations: no failure" None r.Bug.failure

(* The merged cap keeps the canonically first findings of a kind, the
   plain run the first discovered; both orders are sorted by seq, so
   they agree unless the cap cuts between findings of one seq. Six
   stores left unflushed at the end of the trace: their six findings
   all carry the end-of-trace seq, and a cap of 2 cuts inside them. *)
let test_breach_cap () =
  let evs = ref [ Event.Register_pmem { base = 0; size = region } ] in
  for i = 0 to 2 do
    evs := Event.Store { addr = 64 + (8 * i); size = 8; tid = 0 } :: Event.Store { addr = 8 * i; size = 8; tid = 0 } :: !evs
  done;
  let trace = Array.of_list (List.rev (Event.Program_end :: !evs)) in
  let r =
    Recorder.replay trace
      (Shard_router.sink ~shards:2 ~domains:false ~max_bugs_per_kind:2 (fun _ ->
           D.worker (D.create ~walk_dedup:false ())))
  in
  Alcotest.(check int) "capped" 2 (List.length r.Bug.bugs);
  match r.Bug.failure with
  | Some msg ->
      Alcotest.(check bool) (Printf.sprintf "failure names the cap: %s" msg) true
        (contains msg "cap (2) cut the no-durability-guarantee findings of seq 8")
  | None -> Alcotest.fail "a cap cutting equal-seq findings passed as equal to the plain run"

(* A cap that cuts between findings of different seqs keeps exactly
   the plain run's findings under the same cap, and is no breach. *)
let prop_cap_parity =
  QCheck.Test.make ~name:"merged per-kind cap keeps the plain run's findings" ~count:40
    QCheck.(pair (int_range 1 4) gen_trace)
    (fun (cap, input) ->
      let trace = trace_of input in
      let plain = Recorder.replay trace (D.sink (D.create ~max_bugs_per_kind:cap ())) in
      List.for_all
        (fun shards ->
          let r =
            Recorder.replay trace
              (Shard_router.sink ~shards ~domains:false ~max_bugs_per_kind:cap (fun _ ->
                   D.worker (D.create ~walk_dedup:false ())))
          in
          canon { r with Bug.failure = None } = canon plain)
        [ 2; 4 ])

(* The space and the flat oracle in lockstep over a detector-shaped
   trace: after every store, CLF and fence, each observation a rule can
   read must agree — the op's own result, overlap queries on its range,
   the epoch query, the count of epoch tree nodes behind it, and the
   whole pending set with its provenance. The
   rules are a function of these observations, so agreement here means
   the findings agree too. Redundant hits are compared as a sorted set
   of (hit, provenance) pairs: their order is walk order. *)
let prop_flat_oracle_lockstep =
  QCheck.Test.make ~name:"space observations equal the flat oracle's, op by op" ~count:200 gen_trace (fun input ->
      let sp = Space.create () and fl = F.create () in
      let epoch = ref false in
      let pending iter =
        let acc = ref [] in
        iter (fun ~addr ~size ~flushed ~epoch ~seq ~clf_seq ~fence_seq ->
            acc := (addr, size, flushed, epoch, seq, clf_seq, fence_seq) :: !acc);
        List.sort compare !acc
      in
      let canon_clf (r : Space.clf_result) =
        (r.Space.matched, r.Space.newly_flushed, List.sort compare (List.combine r.Space.redundant r.Space.redundant_prov))
      in
      let range_agrees ~lo ~hi = Space.has_pending_overlap sp ~lo ~hi = F.has_pending_overlap fl ~lo ~hi in
      let step seq ev =
        let op_agrees =
          match ev with
          | Event.Store { addr; size; tid } ->
              F.space_store sp ~addr ~size ~epoch:!epoch ~seq ~tid ~strand:(-1)
              = F.process_store fl ~addr ~size ~epoch:!epoch ~seq ~tid ~strand:(-1) ()
              && range_agrees ~lo:addr ~hi:(addr + size)
          | Event.Clf { addr; size; _ } ->
              canon_clf (Space.process_clf ~seq sp ~lo:addr ~hi:(addr + size))
              = canon_clf (F.process_clf ~seq fl ~lo:addr ~hi:(addr + size))
              && range_agrees ~lo:addr ~hi:(addr + size)
          | Event.Fence _ ->
              Space.process_fence ~seq sp;
              F.process_fence ~seq fl;
              true
          | Event.Epoch_begin _ ->
              epoch := true;
              true
          | Event.Epoch_end _ ->
              epoch := false;
              true
          | _ -> true
        in
        op_agrees
        && Space.exists_epoch_pending sp = F.exists_epoch_pending fl
        && pending (Space.iter_pending sp) = pending (F.iter_pending fl)
        &&
        (* The space's count of epoch tree nodes equals a walk. *)
        (Space.check_invariants sp;
         true)
      in
      let trace = trace_of input in
      let rec go i = i = Array.length trace || (step (i + 1) trace.(i) && go (i + 1)) in
      go 0)

(* ---------------------------------------------------------------- *)
(* Flat oracle semantics                                             *)
(* ---------------------------------------------------------------- *)

let test_flat_lifecycle () =
  let f = F.create () in
  ignore (F.process_store f ~addr:100 ~size:8 ~epoch:false ~seq:1 ~tid:0 ~strand:(-1) ());
  Alcotest.(check int) "tracked" 1 (F.pending_count f);
  let r = F.process_clf f ~lo:64 ~hi:128 in
  Alcotest.(check int) "matched" 1 r.Space.matched;
  Alcotest.(check int) "newly flushed" 1 r.Space.newly_flushed;
  F.process_fence f;
  Alcotest.(check int) "fence drains flushed" 0 (F.pending_count f)

let test_flat_partial_clf_splits () =
  let f = F.create () in
  (* One store straddling the flush boundary: the covered half persists,
     the remainder stays tracked unflushed. *)
  ignore (F.process_store f ~addr:60 ~size:8 ~epoch:false ~seq:1 ~tid:0 ~strand:(-1) ());
  ignore (F.process_clf f ~lo:0 ~hi:64);
  F.process_fence f;
  let remaining = ref [] in
  F.iter_pending f (fun ~addr ~size ~flushed ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ ->
      remaining := (addr, size, flushed) :: !remaining);
  Alcotest.(check (list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.bool)))
    "unflushed remainder survives" [ (64, 4, false) ] !remaining

(* Ten prior stores under one overwrite: both the oracle and the space
   keep the earliest max_prior_seqs of them. *)
let test_flat_overwrite_priors () =
  let check name store =
    for i = 0 to 9 do
      ignore (store ~addr:(8 * i) ~size:8 ~seq:(i + 1))
    done;
    let (r : F.store_result) = store ~addr:0 ~size:80 ~seq:11 in
    Alcotest.(check bool) (name ^ ": overlap seen") true r.F.overlapped;
    Alcotest.(check (list int)) (name ^ ": priors sorted, capped at 8") [ 1; 2; 3; 4; 5; 6; 7; 8 ] r.F.prior_seqs
  in
  let f = F.create () in
  check "flat" (fun ~addr ~size ~seq -> F.process_store f ~addr ~size ~epoch:false ~seq ~tid:0 ~strand:(-1) ());
  let sp = Space.create () in
  check "space" (fun ~addr ~size ~seq -> F.space_store sp ~addr ~size ~epoch:false ~seq ~tid:0 ~strand:(-1))

(* ---------------------------------------------------------------- *)
(* Diff: opt-in gauge gating                                         *)
(* ---------------------------------------------------------------- *)

let snap setup =
  let m = Obs.Metrics.create () in
  setup m;
  Obs.Metrics.snapshot m

let test_diff_gauge_gating () =
  let before = snap (fun m -> Obs.Metrics.set m "space_array_live_peak" 10.0) in
  let after = snap (fun m -> Obs.Metrics.set m "space_array_live_peak" 30.0) in
  let d = Obs.Diff.compute ~before ~after in
  Alcotest.(check int) "gauges never gate by default" 0 (List.length (Obs.Diff.regressions d));
  Alcotest.(check int) "grown gauge gates when opted in" 1
    (List.length (Obs.Diff.regressions ~gauge_threshold:0.5 d));
  (* (30 - 10) / 10 = 2.0 relative growth: below a looser threshold. *)
  Alcotest.(check int) "tolerated below its own threshold" 0
    (List.length (Obs.Diff.regressions ~gauge_threshold:3.0 d))

let test_diff_gauge_added () =
  let before = snap (fun _ -> ()) in
  let after = snap (fun m -> Obs.Metrics.set m "g" 5.0) in
  let d = Obs.Diff.compute ~before ~after in
  Alcotest.(check int) "added gauge ignored by default" 0 (List.length (Obs.Diff.regressions d));
  Alcotest.(check int) "added positive gauge gates when opted in" 1
    (List.length (Obs.Diff.regressions ~gauge_threshold:0.1 d))

let suite =
  [
    Alcotest.test_case "spsc: fifo and capacity" `Quick test_spsc_fifo;
    Alcotest.test_case "spsc: ring wraparound" `Quick test_spsc_wraparound;
    Alcotest.test_case "spsc: cross-domain ordering" `Quick test_spsc_cross_domain;
    Alcotest.test_case "spsc: close race loses nothing" `Quick test_spsc_close_race_exact_delivery;
    Alcotest.test_case "frame ring: boundary publish and stop with partial frame" `Quick
      test_frame_boundary_and_stop_partial;
    Alcotest.test_case "frame ring: cross-domain ordering" `Quick test_frame_cross_domain;
    Alcotest.test_case "finish_all: reports in attach order" `Quick test_finish_all_attach_order;
    Alcotest.test_case "finish_all: order survives quarantine" `Quick test_finish_all_order_survives_quarantine;
    Alcotest.test_case "merge_store_obs: cap of union" `Quick test_merge_store_obs_cap;
    Alcotest.test_case "prior seqs across a shard boundary" `Quick test_prior_seqs_span_two_shards;
    Alcotest.test_case "merge_stats: union of keys" `Quick test_merge_stats_union;
    Alcotest.test_case "barrier with partial frames staged" `Quick test_barrier_mid_frame;
    QCheck_alcotest.to_alcotest prop_parity_modes;
    QCheck_alcotest.to_alcotest prop_parity_relaxed_models;
    QCheck_alcotest.to_alcotest prop_parity_domains;
    QCheck_alcotest.to_alcotest prop_parity_long_inline;
    QCheck_alcotest.to_alcotest prop_parity_long_domains;
    Alcotest.test_case "contract breach: reorganization fails loudly" `Quick test_breach_reorganization;
    Alcotest.test_case "contract breach: cap cuts equal-seq findings" `Quick test_breach_cap;
    QCheck_alcotest.to_alcotest prop_cap_parity;
    QCheck_alcotest.to_alcotest prop_flat_oracle_lockstep;
    Alcotest.test_case "flat store: lifecycle" `Quick test_flat_lifecycle;
    Alcotest.test_case "flat store: partial CLF splits" `Quick test_flat_partial_clf_splits;
    Alcotest.test_case "flat store: overwrite priors" `Quick test_flat_overwrite_priors;
    Alcotest.test_case "diff: gauge gating opt-in" `Quick test_diff_gauge_gating;
    Alcotest.test_case "diff: added gauge" `Quick test_diff_gauge_added;
  ]
