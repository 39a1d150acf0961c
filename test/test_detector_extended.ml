open Pmtrace
module D = Pmdebugger.Detector

let run ?(setup = fun _ -> ()) ?model ?(create = fun ~model -> D.create ?model ()) program =
  let engine = Engine.create () in
  let d = create ~model in
  Engine.attach engine (D.sink d);
  Engine.register_pmem engine ~base:0 ~size:(1 lsl 20);
  setup engine;
  program engine;
  Engine.program_end engine;
  D.report d

let test_two_threads_interleaved () =
  (* Two threads each store+persist their own region, interleaved: the
     strict-model bookkeeping must not cross-contaminate. *)
  let r =
    run (fun e ->
        for i = 0 to 9 do
          Engine.set_tid e 1;
          Engine.store_i64 e ~addr:(1024 + (i * 64)) 1L;
          Engine.set_tid e 2;
          Engine.store_i64 e ~addr:(4096 + (i * 64)) 2L;
          Engine.set_tid e 1;
          Engine.persist e ~addr:(1024 + (i * 64)) ~size:8;
          Engine.set_tid e 2;
          Engine.persist e ~addr:(4096 + (i * 64)) ~size:8
        done)
  in
  Alcotest.(check int) "interleaved threads clean" 0 (List.length r.Bug.bugs)

let test_epoch_isolation_per_thread () =
  (* Thread 1's epoch must not count thread 2's fences. *)
  let r =
    run ~model:D.Epoch (fun e ->
        Engine.set_tid e 1;
        Engine.epoch_begin e;
        Engine.store_i64 e ~addr:1024 1L;
        Engine.set_tid e 2;
        Engine.store_i64 e ~addr:4096 2L;
        Engine.persist e ~addr:4096 ~size:8;
        Engine.persist e ~addr:8192 ~size:0;
        Engine.set_tid e 1;
        Engine.persist e ~addr:1024 ~size:8;
        Engine.epoch_end e)
  in
  Alcotest.(check bool) "no redundant epoch fence across threads" false (Bug.has_kind r Bug.Redundant_epoch_fence)

let test_detector_array_overflow () =
  (* More stores between fences than the array holds: the overflow path
     spills to the tree and detection still works. *)
  let r =
    run
      ~create:(fun ~model -> D.create ?model ~array_capacity:8 ())
      (fun e ->
        for i = 0 to 63 do
          Engine.store_i64 e ~addr:(1024 + (i * 64)) 1L
        done;
        for i = 0 to 62 do
          Engine.persist e ~addr:(1024 + (i * 64)) ~size:8
        done)
  in
  Alcotest.(check int) "exactly the unpersisted one found" 1 (Bug.count_kind r Bug.No_durability);
  Alcotest.(check int) "its address" (1024 + (63 * 64)) (List.hd r.Bug.bugs).Bug.addr

let test_max_bugs_per_kind_cap () =
  let r =
    run
      ~create:(fun ~model -> D.create ?model ~max_bugs_per_kind:5 ())
      (fun e ->
        for i = 0 to 19 do
          Engine.store_i64 e ~addr:(1024 + (i * 64)) 1L
        done)
  in
  Alcotest.(check int) "capped" 5 (Bug.count_kind r Bug.No_durability)

let test_var_registered_after_store () =
  (* Register_var arriving after the store (late symbol resolution) must
     still bind: the order rule sees the subsequent rewrite. *)
  let config = Pmdebugger.Order_config.parse_exn "order data before valid" in
  let r =
    run
      ~create:(fun ~model -> D.create ?model ~config ())
      (fun e ->
        Engine.register_var e ~name:"data" ~addr:1024 ~size:8;
        Engine.register_var e ~name:"valid" ~addr:2048 ~size:8;
        Engine.store_i64 e ~addr:2048 1L;
        Engine.persist e ~addr:2048 ~size:8;
        Engine.store_i64 e ~addr:1024 1L;
        Engine.persist e ~addr:1024 ~size:8)
  in
  Alcotest.(check bool) "valid persisted before data" true (Bug.has_kind r Bug.No_order_guarantee)

let test_multiple_registered_regions () =
  let engine = Engine.create () in
  let d = D.create () in
  Engine.attach engine (D.sink d);
  Engine.register_pmem engine ~base:0 ~size:4096;
  Engine.register_pmem engine ~base:65536 ~size:4096;
  (* In-region stores tracked, out-of-region ignored. *)
  Engine.store_i64 engine ~addr:100 1L;
  Engine.store_i64 engine ~addr:65600 2L;
  Engine.store_i64 engine ~addr:32768 3L;
  Engine.program_end engine;
  let r = D.report d in
  Alcotest.(check int) "two tracked regions" 2 (Bug.count_kind r Bug.No_durability)

let test_multi_location_line_flush () =
  (* One CLWB covering five tracked 8-byte stores: all five must drain
     at the fence (the collective path at detector level). *)
  let r =
    run (fun e ->
        for i = 0 to 4 do
          Engine.store_i64 e ~addr:(1024 + (i * 8)) (Int64.of_int i)
        done;
        Engine.clwb e ~addr:1024;
        Engine.sfence e)
  in
  Alcotest.(check int) "all drained" 0 (List.length r.Bug.bugs)

let test_split_location_detection () =
  (* A 100-byte store with only its first line persisted: the remainder
     must be reported with its correct sub-range. *)
  let r =
    run (fun e ->
        Engine.store_bytes e ~addr:1024 (Bytes.make 100 'v');
        Engine.clwb e ~addr:1024;
        Engine.sfence e)
  in
  (match List.find_opt (fun (b : Bug.t) -> b.Bug.kind = Bug.No_durability) r.Bug.bugs with
  | Some b ->
      Alcotest.(check int) "remainder start" 1088 b.Bug.addr;
      Alcotest.(check int) "remainder size" 36 b.Bug.size
  | None -> Alcotest.fail "expected a no-durability remainder")

let test_strand_spaces_independent () =
  (* Unpersisted stores in one strand must not block another strand's
     locations from draining at its own barrier. *)
  let r =
    run ~model:D.Strand (fun e ->
        Engine.strand_begin e ~strand:0;
        Engine.store_i64 e ~addr:1024 1L;
        Engine.strand_end e ~strand:0;
        Engine.strand_begin e ~strand:1;
        Engine.store_i64 e ~addr:4096 2L;
        Engine.persist e ~addr:4096 ~size:8;
        Engine.strand_end e ~strand:1;
        Engine.strand_begin e ~strand:0;
        Engine.persist e ~addr:1024 ~size:8;
        Engine.strand_end e ~strand:0;
        Engine.join_strand e)
  in
  Alcotest.(check int) "both strands clean" 0 (List.length r.Bug.bugs)

let test_report_stats_present () =
  let r = run (fun e -> Engine.store_i64 e ~addr:1024 1L) in
  List.iter
    (fun key -> Alcotest.(check bool) (key ^ " stat present") true (List.mem_assoc key r.Bug.stats))
    [ "tree_size"; "reorganizations"; "avg_tree_nodes_per_fence"; "spaces" ]

let test_finish_idempotent () =
  let engine = Engine.create () in
  let d = D.create () in
  let sink = D.sink d in
  Engine.attach engine sink;
  Engine.register_pmem engine ~base:0 ~size:4096;
  Engine.store_i64 engine ~addr:128 1L;
  let r1 = sink.Sink.finish () in
  let r2 = sink.Sink.finish () in
  Alcotest.(check int) "same findings on double finish" (List.length r1.Bug.bugs) (List.length r2.Bug.bugs)

(* Differential property: PMDebugger and Pmemcheck agree on the set of
   never-persisted addresses for random strict-model programs. *)
let random_program ops e =
  Engine.register_pmem e ~base:0 ~size:65536;
  List.iter
    (fun (op, slot) ->
      let addr = 1024 + (slot * 64) in
      match op mod 3 with
      | 0 -> Engine.store_i64 e ~addr (Int64.of_int slot)
      | 1 -> Engine.clwb e ~addr
      | _ -> Engine.sfence e)
    ops;
  Engine.program_end e

let nodur_addrs (r : Bug.report) =
  List.sort_uniq compare
    (List.filter_map (fun (b : Bug.t) -> if b.Bug.kind = Bug.No_durability then Some b.Bug.addr else None) r.Bug.bugs)

let prop_pmdebugger_pmemcheck_agree =
  QCheck.Test.make ~name:"pmdebugger and pmemcheck agree on durability holes" ~count:150
    QCheck.(small_list (pair (int_range 0 2) (int_range 0 15)))
    (fun ops ->
      let run_tool sink =
        let engine = Engine.create () in
        Engine.attach engine sink;
        random_program ops engine;
        sink.Sink.finish ()
      in
      let pd = run_tool (D.sink (D.create ())) in
      let pc = run_tool (Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())) in
      nodur_addrs pd = nodur_addrs pc)

(* Live attachment and trace replay agree for every tool. *)
let prop_live_equals_replay =
  QCheck.Test.make ~name:"live detection equals trace replay" ~count:100
    QCheck.(small_list (pair (int_range 0 2) (int_range 0 15)))
    (fun ops ->
      let trace = Recorder.record (random_program ops) in
      let live =
        let engine = Engine.create () in
        let sink = D.sink (D.create ()) in
        Engine.attach engine sink;
        random_program ops engine;
        sink.Sink.finish ()
      in
      let replayed = Recorder.replay trace (D.sink (D.create ())) in
      nodur_addrs live = nodur_addrs replayed
      && List.length live.Bug.bugs = List.length replayed.Bug.bugs)

let test_crash_check_helper () =
  let engine = Engine.create () in
  Engine.store_i64 engine ~addr:0 1L;
  Engine.clwb engine ~addr:0;
  (* One undrained line: two crash images; the recovery predicate
     rejects the one where the flag reached PM. *)
  let recovery img = Pmem.Image.get_i64 img 0 = 0L in
  let pm = Engine.pm engine in
  let check = Pmem.State.check_crash_images pm ~max_images:64 in
  Alcotest.(check (pair int int)) "one violating image of two" (1, 2) (check ~recovery);
  Alcotest.(check (pair int int)) "accept-all is consistent" (0, 2) (check ~recovery:(fun _ -> true));
  (* The cap is hard: one image is the durable one, which the flag has
     not reached. *)
  Alcotest.(check (pair int int)) "capped at one image" (0, 1)
    (Pmem.State.check_crash_images pm ~max_images:1 ~recovery)

let suite =
  [
    Alcotest.test_case "crash check helper" `Quick test_crash_check_helper;
    Alcotest.test_case "two threads interleaved" `Quick test_two_threads_interleaved;
    Alcotest.test_case "epoch isolation per thread" `Quick test_epoch_isolation_per_thread;
    Alcotest.test_case "array overflow spill" `Quick test_detector_array_overflow;
    Alcotest.test_case "max bugs per kind cap" `Quick test_max_bugs_per_kind_cap;
    Alcotest.test_case "late var registration" `Quick test_var_registered_after_store;
    Alcotest.test_case "multiple registered regions" `Quick test_multiple_registered_regions;
    Alcotest.test_case "multi-location line flush" `Quick test_multi_location_line_flush;
    Alcotest.test_case "split location detection" `Quick test_split_location_detection;
    Alcotest.test_case "strand spaces independent" `Quick test_strand_spaces_independent;
    Alcotest.test_case "report stats present" `Quick test_report_stats_present;
    Alcotest.test_case "finish idempotent" `Quick test_finish_idempotent;
    QCheck_alcotest.to_alcotest prop_pmdebugger_pmemcheck_agree;
    QCheck_alcotest.to_alcotest prop_live_equals_replay;
  ]
