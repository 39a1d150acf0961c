open Pmtrace
module FI = Faultinject

(* ------------------------------------------------------------------ *)
(* Capture / replay.                                                   *)
(* ------------------------------------------------------------------ *)

let test_capture_payloads () =
  let steps =
    FI.Replay.capture (fun e ->
        Engine.store_string e ~addr:100 "hello";
        Engine.persist e ~addr:100 ~size:5)
  in
  (* store + clf + fence + synthesized program_end *)
  Alcotest.(check int) "step count" 4 (Array.length steps);
  (match steps.(0) with
  | FI.Replay.Store_data { addr; data; _ } ->
      Alcotest.(check int) "addr" 100 addr;
      Alcotest.(check string) "payload captured" "hello" (Bytes.to_string data)
  | _ -> Alcotest.fail "expected captured store");
  (* Replaying the steps reproduces the durable contents. *)
  let st = Pmem.State.create () in
  Array.iter (FI.Replay.apply st) steps;
  Alcotest.(check string) "durable after replay" "hello"
    (Pmem.Image.get_string (Pmem.State.durable st) ~addr:100 ~len:5)

let test_events_projection () =
  let steps =
    [| FI.Replay.Ev (Event.Fence { tid = 0 }); FI.Replay.Evict { line = 3 }; FI.Replay.Ev Event.Program_end |]
  in
  let events = FI.Replay.events_of_steps steps in
  Alcotest.(check int) "evictions invisible to detectors" 2 (Array.length events)

(* ------------------------------------------------------------------ *)
(* Crash-point explorer.                                               *)
(* ------------------------------------------------------------------ *)

module CE = FI.Crash_explore

let xfail_cases =
  lazy
    (List.filter_map
       (fun (c : Bugbench.Cases.t) ->
         match c.Bugbench.Cases.recovery with
         | Some recovery -> Some (c.Bugbench.Cases.id, FI.Replay.capture c.Bugbench.Cases.run, recovery)
         | None -> None)
       Bugbench.Cases.buggy)

let failure_indexes (o : CE.outcome) = List.map (fun f -> f.CE.index) o.result.CE.failures

(* A full exhaustive scan of the plan. *)
let scan ?boundaries ?stop_at_first ~recovery steps =
  (CE.run ?stop_at_first ~recovery (CE.make_plan ?boundaries steps) CE.exhaustive).CE.result

let magic = 0xC0FFEEL

(* flag persisted before the data it guards: the canonical cross-failure
   bug. Recovery: flag set implies data = magic. *)
let flag_before_data e =
  Engine.register_pmem e ~base:0 ~size:4096;
  Engine.store_i64 e ~addr:0 1L;
  Engine.persist e ~addr:0 ~size:8;
  Engine.store_i64 e ~addr:64 magic;
  Engine.persist e ~addr:64 ~size:8;
  Engine.program_end e

let data_then_flag e =
  Engine.register_pmem e ~base:0 ~size:4096;
  Engine.store_i64 e ~addr:64 magic;
  Engine.persist e ~addr:64 ~size:8;
  Engine.store_i64 e ~addr:0 1L;
  Engine.persist e ~addr:0 ~size:8;
  Engine.program_end e

let recovery_flag_data img =
  Pmem.Image.get_i64 img 0 = 0L || Pmem.Image.get_i64 img 64 = magic

let test_explorer_finds_cross_failure () =
  let steps = FI.Replay.capture flag_before_data in
  let result = scan ~recovery:recovery_flag_data steps in
  Alcotest.(check bool) "failures found" true (result.CE.failures <> []);
  (* Every-op exploration pins the earliest exposure: right after the
     flag store (index 1, after Register_pmem), where an eviction could
     make the flag durable before the data exists. Fence-only sampling
     only sees it once the fence drains the flag line (index 3). *)
  (match CE.minimal_failing_prefix ~recovery:recovery_flag_data steps with
  | None -> Alcotest.fail "expected a minimal failing prefix"
  | Some f ->
      Alcotest.(check bool) "earliest exposure is the flag store" true (FI.Replay.is_store f.CE.step);
      Alcotest.(check int) "exact event index" 1 f.CE.index);
  let coarse = scan ~boundaries:CE.Fences_only ~stop_at_first:true ~recovery:recovery_flag_data steps in
  match coarse.CE.failures with
  | [ f ] ->
      Alcotest.(check bool) "fence-only failure at a fence" true (FI.Replay.is_fence f.CE.step);
      Alcotest.(check int) "fence index" 3 f.CE.index
  | _ -> Alcotest.fail "fence-only pass should report exactly one failure"

let test_explorer_clean_program () =
  let steps = FI.Replay.capture data_then_flag in
  let result = scan ~recovery:recovery_flag_data steps in
  Alcotest.(check int) "no failures on correct ordering" 0 (List.length result.CE.failures);
  Alcotest.(check bool) "boundaries were checked" true (result.CE.boundaries_checked >= 6)

(* Two flag/data pairs. The first pair's window opens at its flag store
   and the fence that persists both lines closes it; the second pair's
   flag is persisted with no data at all. A fence-coarse search sees the
   first fence pass, the second fail, and answers with the second pair's
   flag store (index 6); the minimal failing prefix ends at the first
   pair's flag store (index 2). *)
let closed_window e =
  Engine.register_pmem e ~base:0 ~size:4096;
  Engine.store_i64 e ~addr:64 magic;
  Engine.store_i64 e ~addr:0 1L;
  Engine.clwb e ~addr:0;
  Engine.clwb e ~addr:64;
  Engine.sfence e;
  Engine.store_i64 e ~addr:128 1L;
  Engine.clwb e ~addr:128;
  Engine.sfence e;
  Engine.program_end e

let recovery_two_flags = FI.Predicate.recovery (Result.get_ok (FI.Predicate.parse "ifset@0=>64,ifset@128=>192"))

let test_minimal_prefix_behind_closed_window () =
  let steps = FI.Replay.capture closed_window in
  match CE.minimal_failing_prefix ~recovery:recovery_two_flags steps with
  | Some f ->
      Alcotest.(check int) "first pair's flag store" 2 f.CE.index;
      Alcotest.(check (list int))
        "the fence closes the first window"
        [ 2; 3; 4; 6; 7; 8 ]
        (List.map (fun f -> f.CE.index) (scan ~recovery:recovery_two_flags steps).CE.failures)
  | None -> Alcotest.fail "the trace must fail"

let bisect_cases () =
  ("flag_before_data", FI.Replay.capture flag_before_data, recovery_flag_data)
  :: ("closed_window", FI.Replay.capture closed_window, recovery_two_flags)
  :: Lazy.force xfail_cases

let first_failure o = match o.CE.result.CE.failures with f :: _ -> Some f | [] -> None
let failure_triple = Option.map (fun f -> (f.CE.index, f.CE.failing_images, f.CE.images_checked))

(* The minimal failing prefix is the full scan's first failure (same
   index and image counts). *)
let test_bisect_agrees_with_scan () =
  List.iter
    (fun (id, steps, recovery) ->
      let expect = failure_triple (first_failure (CE.run ~recovery (CE.make_plan steps) CE.exhaustive)) in
      Alcotest.(check bool) (id ^ ": the trace fails") true (expect <> None);
      Alcotest.(check (option (triple int int int)))
        (id ^ ": minimal prefix = full scan's first failure")
        expect
        (failure_triple (CE.minimal_failing_prefix ~recovery steps)))
    (bisect_cases ())

let test_explorer_on_bugbench_xfail () =
  (* Every cross-failure case the fence-sampling detector already flags
     must also be found by the explorer, with an exact event index. *)
  let xfail =
    List.filter (fun (c : Bugbench.Cases.t) -> c.Bugbench.Cases.recovery <> None) Bugbench.Cases.buggy
  in
  Alcotest.(check bool) "dataset has cross-failure cases" true (List.length xfail >= 4);
  List.iter
    (fun (c : Bugbench.Cases.t) ->
      let recovery = Option.get c.Bugbench.Cases.recovery in
      let steps = FI.Replay.capture c.Bugbench.Cases.run in
      match FI.Crash_explore.minimal_failing_prefix ~recovery steps with
      | None -> Alcotest.fail (Printf.sprintf "%s: explorer found no failing prefix" c.Bugbench.Cases.id)
      | Some f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: failure index within trace" c.Bugbench.Cases.id)
            true
            (f.FI.Crash_explore.index >= 0 && f.FI.Crash_explore.index < Array.length steps))
    xfail

let test_eviction_changes_crash_images () =
  (* Without eviction, the dirty flag line is absent from the
     nothing-persisted crash image; an injected eviction pins it into
     every image. *)
  let program evict e =
    Engine.register_pmem e ~base:0 ~size:4096;
    Engine.store_i64 e ~addr:0 1L;
    ignore evict;
    Engine.program_end e
  in
  let steps = FI.Replay.capture (program false) in
  let mutated, injections = FI.Injector.apply (FI.Injector.plan FI.Injector.Evict_line) steps in
  Alcotest.(check int) "one eviction injected" 1 (List.length injections);
  let flag_durable steps =
    let st = Pmem.State.create () in
    Array.iter (FI.Replay.apply st) steps;
    Pmem.Image.get_i64 (Pmem.State.durable st) 0 = 1L
  in
  Alcotest.(check bool) "dirty line not durable without eviction" false (flag_durable steps);
  Alcotest.(check bool) "evicted line durable with no flush issued" true (flag_durable mutated)

(* ------------------------------------------------------------------ *)
(* Exploration strategies.                                             *)
(* ------------------------------------------------------------------ *)

let test_guided_unbounded_matches_exhaustive () =
  List.iter
    (fun (id, steps, recovery) ->
      let full = failure_indexes (CE.run ~recovery (CE.make_plan steps) CE.exhaustive) in
      let g = failure_indexes (CE.run ~recovery (CE.make_plan steps) CE.guided) in
      Alcotest.(check (list int)) (id ^ ": guided covers the exhaustive set") full g)
    (Lazy.force xfail_cases)

(* Every bounded guided run stays within its image budget and reports only
   failures the exhaustive scan of the same plan reports, at the
   default per-boundary image count and at 4. A plan with no images
   per boundary is refused rather than reported clean. *)
let test_budget_caps_images () =
  Alcotest.check_raises "no per-boundary images" (Invalid_argument "Crash_explore.make_plan: max_images must be >= 1")
    (fun () -> ignore (CE.make_plan ~max_images:0 [||]));
  List.iter
    (fun (id, steps, recovery) ->
      List.iter
        (fun max_images ->
          let full = failure_indexes (CE.run ~recovery (CE.make_plan ~max_images steps) CE.exhaustive) in
          List.iter
            (fun budget ->
              let plan = CE.make_plan ~max_images ~budget steps in
              let o = CE.run ~recovery plan CE.guided in
              Alcotest.(check bool)
                (Printf.sprintf "%s: <= %d images (got %d)" id budget o.CE.result.CE.images_checked)
                true
                (o.CE.result.CE.images_checked <= budget);
              Alcotest.(check bool)
                (Printf.sprintf "%s: budget %d failures within exhaustive's" id budget)
                true
                (List.for_all (fun i -> List.mem i full) (failure_indexes o));
              Alcotest.(check int)
                (id ^ ": skipped accounts for every unexplored boundary")
                (Array.length plan.CE.boundary_indexes - o.CE.explored)
                o.CE.skipped)
            [ 1; 3; 8 ])
        [ 64; 4 ])
    (Lazy.force xfail_cases)

(* Risk ranking on a long trace: 16 backup/counter commit rounds on two
   lines, where correct rounds persist the backup before the counter
   that must never exceed it and rounds 6 and 11 run the counter ahead
   (the xfail_counter_before_backup shape, buried in an otherwise
   correct trace). With a quarter of exhaustive's images, guided must
   still find at least 90% of exhaustive's failures; a trace-order
   schedule spends that budget on the first rounds. *)
let test_guided_quarter_budget_finds_planted () =
  let rounds = 16 and planted = [ 6; 11 ] in
  let backup_addr = 0 and counter_addr = 64 in
  let steps =
    FI.Replay.capture (fun e ->
        Engine.register_pmem e ~base:0 ~size:4096;
        for r = 1 to rounds do
          let commit ~addr =
            Engine.store_i64 e ~addr (Int64.of_int r);
            Engine.persist e ~addr ~size:8
          in
          if List.mem r planted then (
            commit ~addr:counter_addr;
            commit ~addr:backup_addr)
          else (
            commit ~addr:backup_addr;
            commit ~addr:counter_addr)
        done)
  in
  let recovery img =
    Int64.compare (Pmem.Image.get_i64 img counter_addr) (Pmem.Image.get_i64 img backup_addr) <= 0
  in
  let max_images = 4 in
  let ex = CE.run ~recovery (CE.make_plan ~max_images steps) CE.exhaustive in
  let full = failure_indexes ex in
  Alcotest.(check bool) "exhaustive finds the planted rounds" true (full <> []);
  let budget = max 1 (ex.CE.result.CE.images_checked / 4) in
  let found = failure_indexes (CE.run ~recovery (CE.make_plan ~max_images ~budget steps) CE.guided) in
  Alcotest.(check bool)
    (Printf.sprintf "guided at %d images finds %d/%d failures (need >= 90%%)" budget (List.length found)
       (List.length full))
    true
    (10 * List.length found >= 9 * List.length full)

let test_strategy_metrics () =
  let _, steps, recovery = List.hd (Lazy.force xfail_cases) in
  let metrics = Obs.Metrics.create () in
  let o = CE.run ~metrics ~recovery (CE.make_plan ~budget:8 steps) CE.guided in
  let value name =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        match s.Obs.Metrics.value with
        | Obs.Metrics.V_counter v when s.Obs.Metrics.name = name -> acc + v
        | _ -> acc)
      0 (Obs.Metrics.snapshot metrics)
  in
  Alcotest.(check int) "bugs counter" (List.length o.CE.result.CE.failures) (value "explore_bugs_found_total");
  Alcotest.(check int) "skipped counter" o.CE.skipped (value "explore_skipped_low_risk_total")

let test_guided_bisect_converges () =
  (* Unbounded guided exploration covers every boundary in risk order;
     its first failure in trace order is the minimal failing prefix,
     with the same image counts. *)
  List.iter
    (fun (id, steps, recovery) ->
      match CE.minimal_failing_prefix ~recovery steps with
      | None -> Alcotest.fail (id ^ ": the trace must fail")
      | Some f ->
          Alcotest.(check (option (triple int int int)))
            (id ^ ": guided's first failure = minimal prefix")
            (failure_triple (Some f))
            (failure_triple (first_failure (CE.run ~recovery (CE.make_plan steps) CE.guided))))
    (bisect_cases ())

(* QCheck soundness harness: on random small traces over four lines,
   bounded guided verdicts are a subset of the exhaustive scan's,
   and unbounded guided reports exactly the exhaustive failure set. Ops:
   (0..2 = store to line with that op as value-salt, 3 = persist line,
   4 = flush line only, 5 = fence). *)
let gen_program = QCheck.(list_of_size Gen.(1 -- 24) (pair (int_bound 5) (int_range 0 3)))

let steps_of_program ops =
  FI.Replay.capture (fun e ->
      Engine.register_pmem e ~base:0 ~size:4096;
      List.iter
        (fun (op, line) ->
          let addr = line * 64 in
          match op with
          | 0 | 1 | 2 -> Engine.store_i64 e ~addr (Int64.of_int (op + 1))
          | 3 -> Engine.persist e ~addr ~size:8
          | 4 -> Engine.flush_range e ~addr ~size:8
          | _ -> Engine.sfence e)
        ops;
      Engine.program_end e)

(* ifset-style recovery: a non-zero guard on line 0 requires line 1 to
   be non-zero too — random programs violate it often. *)
let qc_recovery img = Pmem.Image.get_i64 img 0 = 0L || Pmem.Image.get_i64 img 64 <> 0L

let prop_guided_sound =
  QCheck.Test.make ~name:"bounded guided verdicts are within exhaustive's" ~count:120 gen_program (fun ops ->
      let steps = steps_of_program ops in
      let full = failure_indexes (CE.run ~recovery:qc_recovery (CE.make_plan steps) CE.exhaustive) in
      List.for_all
        (fun budget ->
          let o = CE.run ~recovery:qc_recovery (CE.make_plan ~budget steps) CE.guided in
          o.CE.result.CE.images_checked <= budget && List.for_all (fun i -> List.mem i full) (failure_indexes o))
        [ 2; 6; 16 ])

let prop_guided_complete =
  QCheck.Test.make ~name:"unbounded guided equals the exhaustive failure set" ~count:120 gen_program
    (fun ops ->
      let steps = steps_of_program ops in
      let full = failure_indexes (CE.run ~recovery:qc_recovery (CE.make_plan steps) CE.exhaustive) in
      failure_indexes (CE.run ~recovery:qc_recovery (CE.make_plan steps) CE.guided) = full)

(* The forward walk against the reference walk (a fresh prefix replay
   per risk-ordered boundary): the whole outcome must be equal — every
   failure with its index, step and both image counts, the totals, and
   the schedule counts — under both strategies, every per-boundary cap, image
   budget and stop rule. Caps below 16 make the four-line programs
   sample, where repeated samples shrink a boundary's image count. *)
let prop_walk_matches_reference =
  QCheck.Test.make ~name:"forward walk equals the fresh-prefix reference" ~count:40 gen_program (fun ops ->
      let steps = steps_of_program ops in
      let invariants = CE.plan_invariants (CE.make_plan steps) in
      List.for_all
        (fun ((name, strat), max_images, budget, stop_at_first) ->
          let plan = CE.make_plan ~max_images ?budget ~invariants steps in
          let got = CE.run ~stop_at_first ~recovery:qc_recovery plan strat in
          let want = Crash_explore_oracle.run ~stop_at_first ~recovery:qc_recovery plan strat in
          got = want
          || QCheck.Test.fail_reportf "%s max_images=%d budget=%s stop_at_first=%b" name max_images
               (match budget with None -> "none" | Some b -> string_of_int b)
               stop_at_first)
        (List.concat_map
           (fun strat ->
             List.concat_map
               (fun max_images ->
                 List.concat_map
                   (fun budget -> [ (strat, max_images, budget, false); (strat, max_images, budget, true) ])
                   [ None; Some 1; Some 3; Some 17; Some 100 ])
               [ 1; 2; 4; 64 ])
           [ ("exhaustive", CE.exhaustive); ("guided", CE.guided) ]))

(* Images are derived in place, so exploring costs what the replay and
   the kept lines cost, not a pool copy per image: b_tree registers a
   2 MiB pool. Allocation is counted in bytes, not timed, so the bound
   is deterministic. *)
let test_explore_allocates_little () =
  let steps = FI.Replay.capture (fun e -> Workloads.Btree.spec.Workloads.Workload.run (Workloads.Workload.params ~n:20 ()) e) in
  let module P = Minipmdk.Pool in
  let recovery img =
    let get = Pmem.Image.get_int img in
    (Pmem.Image.get_i64 img P.off_magic = 0L || get P.off_heap_top <> 0)
    && (get P.off_root_off = 0 || get P.off_root_off < get P.off_heap_top)
  in
  let plan = CE.make_plan ~max_images:64 steps in
  let before = Test_space.allocated_bytes () in
  let o = CE.run ~recovery plan CE.exhaustive in
  let allocated = Test_space.allocated_bytes () -. before in
  let images = o.CE.result.CE.images_checked in
  let per_image = allocated /. float_of_int images in
  Alcotest.(check bool) "images derived" true (images > 1000);
  Alcotest.(check bool) (Printf.sprintf "%.0f bytes per image <= 8 KiB" per_image) true (per_image <= 8192.0)

(* ------------------------------------------------------------------ *)
(* Injector.                                                           *)
(* ------------------------------------------------------------------ *)

let kv_pair = List.assoc "kv_pair" FI.Sensitivity.clean_workloads

let test_injector_deterministic () =
  let steps = FI.Replay.capture kv_pair in
  let plan = FI.Injector.plan ~target:(FI.Injector.Random 0.5) ~seed:7 FI.Injector.Drop_clf in
  let t1, i1 = FI.Injector.apply plan steps in
  let t2, i2 = FI.Injector.apply plan steps in
  Alcotest.(check bool) "same mutated trace" true (t1 = t2);
  Alcotest.(check bool) "same injection log" true (i1 = i2);
  let other = FI.Injector.apply { plan with FI.Injector.seed = 8 } steps in
  ignore other

let test_injector_shapes () =
  let steps = FI.Replay.capture kv_pair in
  let count p arr = Array.to_list arr |> List.filter p |> List.length in
  let clfs = count FI.Replay.is_clf steps and fences = count FI.Replay.is_fence steps in
  let dropped, _ = FI.Injector.apply (FI.Injector.plan FI.Injector.Drop_clf) steps in
  Alcotest.(check int) "drop-clf removes one clf" (clfs - 1) (count FI.Replay.is_clf dropped);
  let dup, _ = FI.Injector.apply (FI.Injector.plan FI.Injector.Duplicate_flush) steps in
  Alcotest.(check int) "duplicate-flush adds one clf" (clfs + 1) (count FI.Replay.is_clf dup);
  let nofence, _ = FI.Injector.apply (FI.Injector.plan ~target:FI.Injector.Last FI.Injector.Drop_fence) steps in
  Alcotest.(check int) "drop-fence removes one fence" (fences - 1) (count FI.Replay.is_fence nofence);
  let torn, notes = FI.Injector.apply (FI.Injector.plan FI.Injector.Torn_store) steps in
  Alcotest.(check int) "torn store count unchanged" (count FI.Replay.is_store steps) (count FI.Replay.is_store torn);
  Alcotest.(check int) "one tear recorded" 1 (List.length notes)

(* ------------------------------------------------------------------ *)
(* Sensitivity matrix (the acceptance-criteria assertion).             *)
(* ------------------------------------------------------------------ *)

let test_sensitivity_matrix () =
  let rows = FI.Sensitivity.run_matrix () in
  Alcotest.(check bool) "at least 3 clean workloads" true (List.length rows >= 3);
  List.iter
    (fun (r : FI.Sensitivity.row) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s baseline clean" r.FI.Sensitivity.workload)
        []
        (List.map Bug.kind_name r.FI.Sensitivity.baseline_kinds);
      Alcotest.(check int)
        (Printf.sprintf "%s covers all four fault classes" r.FI.Sensitivity.workload)
        4
        (List.length r.FI.Sensitivity.cells);
      List.iter
        (fun (c : FI.Sensitivity.cell) ->
          let name = FI.Injector.fault_name c.FI.Sensitivity.fault in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s injected" r.FI.Sensitivity.workload name)
            true (c.FI.Sensitivity.injections > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s detected by some rule" r.FI.Sensitivity.workload name)
            true
            (c.FI.Sensitivity.detected_by <> []))
        r.FI.Sensitivity.cells)
    rows;
  Alcotest.(check bool) "matrix_ok" true (FI.Sensitivity.matrix_ok rows)

let test_eviction_not_flagged () =
  (* Environmental faults must not create detector findings on clean
     programs. *)
  List.iter
    (fun (name, program) ->
      let row = FI.Sensitivity.run_row ~faults:[ FI.Injector.Evict_line ] (name, program) in
      match row.FI.Sensitivity.cells with
      | [ c ] ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: eviction invisible to rules" name)
            []
            (List.map Bug.kind_name c.FI.Sensitivity.detected_by)
      | _ -> Alcotest.fail "one cell expected")
    FI.Sensitivity.clean_workloads

(* ------------------------------------------------------------------ *)
(* Predicate DSL.                                                      *)
(* ------------------------------------------------------------------ *)

let test_predicate_parse_eval () =
  let img = Pmem.Image.create () in
  Pmem.Image.set_i64 img 0 1L;
  Pmem.Image.set_i64 img 64 5L;
  (match FI.Predicate.parse "i64@0=1, nonzero@64, le@0<=64, ifset@0=>64" with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
      Alcotest.(check bool) "holds" true (FI.Predicate.eval p img);
      Pmem.Image.set_i64 img 64 0L;
      Alcotest.(check bool) "violated after zeroing data" false (FI.Predicate.eval p img));
  (match FI.Predicate.parse "bogus@1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match FI.Predicate.parse "" with Error _ -> () | Ok _ -> Alcotest.fail "empty must not parse"

let test_predicate_with_explorer () =
  let steps = FI.Replay.capture flag_before_data in
  let p = Result.get_ok (FI.Predicate.parse "ifset@0=>64") in
  (* ifset is weaker than the exact-magic predicate but catches the same
     window: flag durable while data line is still all-zero. *)
  match FI.Crash_explore.minimal_failing_prefix ~recovery:(FI.Predicate.recovery p) steps with
  | Some _ -> ()
  | None -> Alcotest.fail "DSL predicate should fail the bad ordering"

let suite =
  [
    Alcotest.test_case "capture payloads" `Quick test_capture_payloads;
    Alcotest.test_case "events projection hides evictions" `Quick test_events_projection;
    Alcotest.test_case "explorer finds cross-failure" `Quick test_explorer_finds_cross_failure;
    Alcotest.test_case "explorer passes clean program" `Quick test_explorer_clean_program;
    Alcotest.test_case "bisect agrees with full scan" `Quick test_bisect_agrees_with_scan;
    Alcotest.test_case "minimal prefix behind a closed window" `Quick test_minimal_prefix_behind_closed_window;
    Alcotest.test_case "explorer finds all bugbench xfail cases" `Quick test_explorer_on_bugbench_xfail;
    Alcotest.test_case "guided unbounded matches exhaustive" `Quick test_guided_unbounded_matches_exhaustive;
    Alcotest.test_case "image budget is a hard cap" `Quick test_budget_caps_images;
    Alcotest.test_case "guided at a 25% budget finds planted rounds" `Quick test_guided_quarter_budget_finds_planted;
    Alcotest.test_case "strategy metrics counters" `Quick test_strategy_metrics;
    Alcotest.test_case "guided bisect converges to minimal prefix" `Quick test_guided_bisect_converges;
    QCheck_alcotest.to_alcotest prop_guided_sound;
    QCheck_alcotest.to_alcotest prop_guided_complete;
    QCheck_alcotest.to_alcotest prop_walk_matches_reference;
    Alcotest.test_case "exploration allocates per kept line, not per pool" `Quick test_explore_allocates_little;
    Alcotest.test_case "eviction changes crash images" `Quick test_eviction_changes_crash_images;
    Alcotest.test_case "injector deterministic" `Quick test_injector_deterministic;
    Alcotest.test_case "injector shapes" `Quick test_injector_shapes;
    Alcotest.test_case "sensitivity matrix" `Quick test_sensitivity_matrix;
    Alcotest.test_case "eviction not flagged" `Quick test_eviction_not_flagged;
    Alcotest.test_case "predicate parse/eval" `Quick test_predicate_parse_eval;
    Alcotest.test_case "predicate drives explorer" `Quick test_predicate_with_explorer;
  ]
