(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe             -- run everything
     dune exec bench/main.exe -- fig8     -- run one experiment
     dune exec bench/main.exe -- --quick  -- CI smoke: report only, small sizes

   Experiments: fig2a fig2b fig2c fig8 table5 table_sota table6 fig10
   fig11 newbugs ablation faultinject bechamel report streaming sharding
   serve

   The report experiment also writes BENCH_pr2.json, the streaming
   experiment BENCH_pr3.json, the sharding experiment BENCH_pr9.json
   (1/2/4/8-shard curve against the plain detector) and the serve soak
   BENCH_pr6.json (all pmdb-bench/v1: per-bench
   slowdowns + dispatch-latency quantiles + a telemetry snapshot);
   validate them with `pmdb stats --check BENCH_prN.json`. *)

open Pmtrace
module W = Workloads.Workload
module T = Harness.Table

let params ?(annotate = false) n = W.params ~annotate ~n ()

let run_spec (spec : W.spec) ?annotate n engine = spec.W.run (params ?annotate n) engine

let record_spec (spec : W.spec) ?annotate n = Recorder.record (run_spec spec ?annotate n)

let mk_pmdebugger model () = Pmdebugger.Detector.sink (Pmdebugger.Detector.create ~model ())

let mk_pmemcheck () = Baselines.Pmemcheck.sink (Baselines.Pmemcheck.create ())

let mk_pmtest () = Baselines.Pmtest.sink (Baselines.Pmtest.create ())

let mk_xfdetector () = Baselines.Xfdetector.sink (Baselines.Xfdetector.create ())

(* ------------------------------------------------------------------ *)
(* Figure 2: characterization.                                         *)
(* ------------------------------------------------------------------ *)

let is_ycsb name = String.length name > 5 && String.sub name 1 5 = "_YCSB"

let charz_traces =
  lazy
    (List.map
       (fun (spec : W.spec) ->
         let n = if is_ycsb spec.W.name then 2000 else 1000 in
         (spec.W.name, record_spec spec n))
       Workloads.Registry.characterization)

let fig2a () =
  let rows =
    List.map
      (fun (name, trace) ->
        let h = Charz.distance_histogram trace in
        let pct n = T.fmt_pct (if h.Charz.total = 0 then 0.0 else float_of_int n /. float_of_int h.Charz.total) in
        (name :: (Array.to_list h.Charz.counts |> List.map pct))
        @ [ pct h.Charz.beyond; T.fmt_pct (Charz.fraction_at_most h 3) ])
      (Lazy.force charz_traces)
  in
  T.print ~title:"Figure 2a: distribution of store-to-guaranteeing-fence distance"
    ~header:[ "workload"; "d=1"; "d=2"; "d=3"; "d=4"; "d=5"; "d>5"; "d<=3 (paper: 84.5% avg)" ]
    rows

let fig2b () =
  let rows =
    List.map
      (fun (name, trace) ->
        let c = Charz.writeback_classes trace in
        [
          name;
          string_of_int c.Charz.collective;
          string_of_int c.Charz.dispersed;
          T.fmt_pct (Charz.collective_fraction c);
        ])
      (Lazy.force charz_traces)
  in
  T.print ~title:"Figure 2b: collective vs dispersed writeback per CLF interval (paper: >71% collective)"
    ~header:[ "workload"; "collective"; "dispersed"; "% collective" ]
    rows

let fig2c () =
  let rows =
    List.map
      (fun (name, trace) ->
        let m = Charz.instruction_mix trace in
        [
          name;
          string_of_int m.Charz.stores;
          string_of_int m.Charz.writebacks;
          string_of_int m.Charz.fences;
          T.fmt_pct (Charz.store_fraction m);
        ])
      (Lazy.force charz_traces)
  in
  T.print ~title:"Figure 2c: instruction mix (paper: store >= 40.2% everywhere, ~70% typical)"
    ~header:[ "workload"; "stores"; "writebacks"; "fences"; "% store" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 8 + Table 5: slowdown vs Pmemcheck.                          *)
(* ------------------------------------------------------------------ *)

type fig8_row = {
  bench : string;
  size : int;
  native : float;
  nulgrind : float;
  pmdebugger : float;
  pmemcheck : float;
}

let measure_fig8 (spec : W.spec) n =
  let repeats = if n >= 100_000 then 1 else 3 in
  let m, _trace =
    Harness.Timing.measure ~repeats ~run:(run_spec spec n)
      ~detectors:[ ("pmdebugger", mk_pmdebugger spec.W.model); ("pmemcheck", mk_pmemcheck) ]
      ()
  in
  {
    bench = spec.W.name;
    size = n;
    native = m.Harness.Timing.native_s;
    nulgrind = m.Harness.Timing.nulgrind_s;
    pmdebugger = List.assoc "pmdebugger" m.Harness.Timing.detector_s;
    pmemcheck = List.assoc "pmemcheck" m.Harness.Timing.detector_s;
  }

let fig8_data =
  lazy
    (let micro_sizes = [ 1_000; 10_000; 100_000 ] in
     let micro = List.concat_map (fun spec -> List.map (measure_fig8 spec) micro_sizes) Workloads.Registry.micro in
     let memcached = List.map (measure_fig8 Workloads.Memcached.spec) [ 10_000; 40_000; 70_000; 100_000 ] in
     let redis = List.map (measure_fig8 Workloads.Redis.spec) [ 10_000; 30_000; 100_000 ] in
     micro @ memcached @ redis)

let fig8 () =
  let rows =
    List.map
      (fun r ->
        let sd t = T.fmt_x (t /. r.native) in
        [ r.bench; string_of_int r.size; sd r.nulgrind; sd r.pmdebugger; sd r.pmemcheck ])
      (Lazy.force fig8_data)
  in
  T.print
    ~title:"Figure 8: slowdown over the uninstrumented run (shape: Nulgrind < PMDebugger < Pmemcheck at every size)"
    ~header:[ "bench"; "n"; "Nulgrind"; "PMDebugger"; "Pmemcheck" ]
    rows

let table5 () =
  let biggest =
    List.fold_left
      (fun acc r ->
        match List.assoc_opt r.bench acc with
        | Some prev when prev.size >= r.size -> acc
        | _ -> (r.bench, r) :: List.remove_assoc r.bench acc)
      [] (Lazy.force fig8_data)
  in
  let rows =
    List.rev_map
      (fun (_, r) ->
        let with_instr = r.pmemcheck /. r.pmdebugger in
        let wo_instr =
          let instr = r.nulgrind in
          if r.pmdebugger > instr then (r.pmemcheck -. instr) /. (r.pmdebugger -. instr) else nan
        in
        [ r.bench; T.fmt_x with_instr; T.fmt_x wo_instr ])
      biggest
  in
  T.print
    ~title:"Table 5: PMDebugger speedup over Pmemcheck (paper: 2.2x avg w/ instr., 3.5x w/o; memcached largest)"
    ~header:[ "benchmark"; "with instr."; "w/o instr." ]
    rows

(* ------------------------------------------------------------------ *)
(* Sec 7.2: comparison with PMTest and XFDetector.                     *)
(* ------------------------------------------------------------------ *)

let table_sota () =
  let n = 10_000 in
  let specs =
    List.filter (fun (s : W.spec) -> s.W.name <> "r_tree") Workloads.Registry.micro
    @ [ Workloads.Memcached.spec; Workloads.Redis.spec ]
  in
  let rows, sums =
    List.fold_left
      (fun (rows, (count, sp, st, sx, sc)) (spec : W.spec) ->
        let m, _ =
          Harness.Timing.measure ~repeats:1
            ~run:(run_spec spec ~annotate:true n)
            ~detectors:
              [
                ("pmdebugger", mk_pmdebugger spec.W.model);
                ("pmtest", mk_pmtest);
                ("xfdetector", mk_xfdetector);
                ("pmemcheck", mk_pmemcheck);
              ]
            ()
        in
        let native = m.Harness.Timing.native_s in
        let get name = List.assoc name m.Harness.Timing.detector_s /. native in
        let pd = get "pmdebugger" and pt = get "pmtest" and xf = get "xfdetector" and pc = get "pmemcheck" in
        ( rows @ [ [ spec.W.name; T.fmt_x pt; T.fmt_x pd; T.fmt_x pc; T.fmt_x xf ] ],
          (count + 1, sp +. pd, st +. pt, sx +. xf, sc +. pc) ))
      ([], (0, 0.0, 0.0, 0.0, 0.0))
      specs
  in
  let count, s_pd, s_pt, s_xf, s_pc = sums in
  let avg x = x /. float_of_int count in
  T.print
    ~title:
      "Sec 7.2: slowdown vs state of the art (paper shape: PMTest < PMDebugger (within 2x) < Pmemcheck << XFDetector)"
    ~header:[ "bench"; "PMTest"; "PMDebugger"; "Pmemcheck"; "XFDetector" ]
    (rows @ [ [ "AVERAGE"; T.fmt_x (avg s_pt); T.fmt_x (avg s_pd); T.fmt_x (avg s_pc); T.fmt_x (avg s_xf) ] ]);
  Printf.printf "  XFDetector/PMDebugger speedup: %s (paper: 49.3x)\n" (T.fmt_x (s_xf /. s_pd));
  Printf.printf "  Pmemcheck/PMDebugger speedup:  %s (paper: 3.4x)\n" (T.fmt_x (s_pc /. s_pd));
  Printf.printf "  PMDebugger/PMTest ratio:       %s (paper: < 2x)\n" (T.fmt_x (s_pd /. s_pt));
  flush stdout

(* ------------------------------------------------------------------ *)
(* Table 1: qualitative tool comparison, derived from measurements.    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  (* Overhead class: slowdown on a 10K-op b_tree trace relative to
     PMDebugger's. Coverage: kinds found on the 78-case dataset (for the
     tools Table 6 evaluates) or on a PMDK bug sampler (for the two
     domain-restricted tools). *)
  let trace = record_spec Workloads.Btree.spec 10_000 in
  let time mk = Harness.Timing.median_of ~repeats:3 (fun () -> ignore (Recorder.replay trace (mk ()))) in
  let t_pd = time (mk_pmdebugger Pmdebugger.Detector.Epoch) in
  let cls t = if t < 2.0 *. t_pd then "Small" else "High" in
  let rows =
    [
      [ "PMTest"; cls (time mk_pmtest); "Low (5 kinds)"; "Any"; "High (asserts)"; "N" ];
      [ "Pmemcheck"; cls (time mk_pmemcheck); "Medium (4 kinds)"; "PMDK"; "Low"; "N" ];
      [
        "Persist. Ins.";
        cls (time (fun () -> Baselines.Persistence_inspector.sink (Baselines.Persistence_inspector.create ())));
        "Medium";
        "PMDK";
        "Low";
        "N";
      ];
      [ "Yat"; "High"; "Medium (fsck)"; "PMFS"; "Low"; "N" ];
      [ "XFDetector"; cls (time mk_xfdetector); "Medium (6 kinds)"; "Any"; "Low"; "N" ];
      [ "PMDebugger"; cls t_pd; "High (10 kinds)"; "Any"; "Low"; "Y" ];
    ]
  in
  T.print
    ~title:"Table 1: tool landscape (overhead measured on a 10K-op b_tree trace; coverage from Table 6 / design)"
    ~header:[ "tool"; "perf. overhead"; "bug coverage"; "target domain"; "prog. effort"; "relaxed models?" ]
    rows;
  (* Yat on its own domain, to show it is implemented and working. *)
  let engine = Engine.create () in
  let yat = Minipmfs.Yat.create ~pm:(Engine.pm engine) () in
  Engine.attach engine (Minipmfs.Yat.sink yat);
  Workloads.Pmfs_wl.spec.W.run (W.params ~n:400 ()) engine;
  let r = (Minipmfs.Yat.sink yat).Sink.finish () in
  Printf.printf "  Yat on the pmfs workload: %d crash state(s) checked, %d inconsistent\n"
    (Minipmfs.Yat.states_checked yat) (List.length r.Bug.bugs);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Table 6 + Sec 7.3: bug-detection capability.                        *)
(* ------------------------------------------------------------------ *)

let table6 () =
  let results = Bugbench.Eval.evaluate_all () in
  let header = "kind (cases)" :: List.map (fun r -> Bugbench.Eval.tool_name r.Bugbench.Eval.tool) results in
  let rows =
    List.map
      (fun kind ->
        let cases = Bugbench.Cases.count_by_kind kind in
        Printf.sprintf "%s (%d)" (Bug.kind_name kind) cases
        :: List.map
             (fun r ->
               let _, d, t = List.find (fun (k, _, _) -> k = kind) r.Bugbench.Eval.per_kind in
               Printf.sprintf "%d/%d" d t)
             results)
      Bug.all_kinds
  in
  let totals =
    "TOTAL (78)"
    :: List.map (fun r -> Printf.sprintf "%d/%d" r.Bugbench.Eval.detected_total r.Bugbench.Eval.case_total) results
  in
  let fn_row = "false-negative rate" :: List.map (fun r -> T.fmt_pct r.Bugbench.Eval.false_negative_rate) results in
  let fp_row =
    "false positives" :: List.map (fun r -> string_of_int (List.length r.Bugbench.Eval.false_positives)) results
  in
  let kinds_row = "bug kinds covered" :: List.map (fun r -> string_of_int r.Bugbench.Eval.kinds_covered) results in
  T.print
    ~title:
      "Table 6 + Sec 7.3 (paper: PMDebugger 78 bugs/10 kinds/0% FN; Pmemcheck 55/4/29.5%; PMTest 61/5/21.8%; \
       XFDetector 65/6/16.7%; no false positives)"
    ~header
    (rows @ [ totals; fn_row; fp_row; kinds_row ])

(* ------------------------------------------------------------------ *)
(* Figure 10: memcached thread scalability.                            *)
(* ------------------------------------------------------------------ *)

(* Each simulated thread runs against its own pool; shifting addresses
   gives threads the disjoint heaps they would have had, and round-robin
   interleaving models Valgrind's serialized scheduling. *)
let shift_event base = function
  | Event.Store s -> Event.Store { s with addr = s.addr + base }
  | Event.Clf c -> Event.Clf { c with addr = c.addr + base }
  | Event.Register_pmem r -> Event.Register_pmem { r with base = r.base + base }
  | Event.Register_var v -> Event.Register_var { v with addr = v.addr + base }
  | Event.Tx_log l -> Event.Tx_log { l with obj_addr = l.obj_addr + base }
  | ev -> ev

let retag_tid tid = function
  | Event.Store s -> Event.Store { s with tid }
  | Event.Clf c -> Event.Clf { c with tid }
  | Event.Fence _ -> Event.Fence { tid }
  | ev -> ev

let fig10 () =
  let ops_per_thread = 20_000 in
  let rows =
    List.map
      (fun threads ->
        let traces =
          List.init threads (fun tid ->
              let trace =
                Recorder.record (fun e ->
                    Workloads.Memcached.spec.W.run (W.params ~seed:(41 + tid) ~n:ops_per_thread ()) e)
              in
              Array.map (fun ev -> retag_tid tid (shift_event (tid * (1 lsl 26)) ev)) trace)
        in
        let merged = Recorder.interleave_round_robin traces in
        let native =
          Harness.Timing.median_of ~repeats:1 (fun () ->
              List.iter
                (fun tid ->
                  let e = Engine.create () in
                  Engine.set_instrumentation e false;
                  Workloads.Memcached.spec.W.run (W.params ~seed:(41 + tid) ~n:ops_per_thread ()) e)
                (List.init threads Fun.id))
        in
        let replay_time mk =
          Harness.Timing.median_of ~repeats:1 (fun () -> ignore (Recorder.replay merged (mk ())))
        in
        let t_pd = native +. replay_time (mk_pmdebugger Pmdebugger.Detector.Strict) in
        let t_pc = native +. replay_time mk_pmemcheck in
        [ string_of_int threads; T.fmt_x (t_pd /. native); T.fmt_x (t_pc /. native) ])
      [ 1; 2; 4; 6 ]
  in
  T.print
    ~title:
      "Figure 10: memcached slowdown vs thread count (paper shape: Pmemcheck grows ~linearly, PMDebugger much \
       slower growth)"
    ~header:[ "threads"; "PMDebugger"; "Pmemcheck" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 11: average AVL tree size per fence interval.                *)
(* ------------------------------------------------------------------ *)

let fig11_paper =
  [
    ("b_tree", 21.8, 39.8);
    ("c_tree", 2.3, 7.1);
    ("r_tree", 2.8, 8.3);
    ("rb_tree", 23.4, 35.6);
    ("hashmap_tx", 528.0, 619.0);
    ("hashmap_atomic", 0.4, 3.5);
    ("memcached", 0.9, 11.9);
    ("redis", 11.3, 17.2);
  ]

let fig11 () =
  let n = 10_000 in
  let rows =
    List.map
      (fun (name, paper_pd, paper_pc) ->
        let spec = Workloads.Registry.find_exn name in
        let trace = record_spec spec n in
        let d = Pmdebugger.Detector.create ~model:spec.W.model () in
        ignore (Recorder.replay trace (Pmdebugger.Detector.sink d));
        let pc = Baselines.Pmemcheck.create () in
        ignore (Recorder.replay trace (Baselines.Pmemcheck.sink pc));
        [
          name;
          T.fmt_f (Pmdebugger.Detector.avg_tree_nodes_per_fence d);
          T.fmt_f (Baselines.Pmemcheck.avg_tree_nodes_per_fence pc);
          Printf.sprintf "%.1f" paper_pd;
          Printf.sprintf "%.1f" paper_pc;
          string_of_int (Pmdebugger.Detector.reorganizations d);
          string_of_int (Baselines.Pmemcheck.reorganizations pc);
        ])
      fig11_paper
  in
  T.print
    ~title:
      "Figure 11: avg AVL tree nodes per fence interval (shape: PMDebugger < Pmemcheck everywhere; hashmap_tx \
       dominates both)"
    ~header:[ "bench"; "PMDebugger"; "Pmemcheck"; "paper-PMD"; "paper-PMC"; "reorgs-PMD"; "reorgs-PMC" ]
    rows

(* ------------------------------------------------------------------ *)
(* Sec 7.4: new bugs.                                                  *)
(* ------------------------------------------------------------------ *)

let newbugs () =
  (* Bug 1 family: the 19 memcached sites, including ITEM_set_cas. *)
  let engine = Engine.create () in
  let d = Pmdebugger.Detector.create ~model:Pmdebugger.Detector.Strict () in
  Engine.attach engine (Pmdebugger.Detector.sink d);
  let pool = Minipmdk.Pool.create engine ~size:(64 lsl 20) in
  let mc = Workloads.Memcached.create pool ~buckets:32 ~max_items:96 in
  let rng = Workloads.Prng.create 11 in
  for op = 1 to 6000 do
    let k = Printf.sprintf "key-%03d" (Workloads.Prng.below rng 400) in
    let dice = Workloads.Prng.below rng 100 in
    if dice < 5 then Workloads.Memcached.set mc ~key:k ~value:(Printf.sprintf "v%d" op)
    else if dice < 93 then ignore (Workloads.Memcached.get mc ~key:k)
    else if dice < 96 then ignore (Workloads.Memcached.delete mc ~key:k)
    else if dice < 98 then ignore (Workloads.Memcached.touch mc ~key:k ~exptime:op)
    else ignore (Workloads.Memcached.append mc ~key:k ~value:"+x")
  done;
  Workloads.Memcached.flush_all mc;
  Engine.program_end engine;
  let report = Pmdebugger.Detector.report d in
  let sites = Hashtbl.create 32 in
  List.iter
    (fun (b : Bug.t) ->
      match Workloads.Memcached.classify_addr mc b.Bug.addr with
      | Some site ->
          let kinds = match Hashtbl.find_opt sites site with Some l -> l | None -> [] in
          if not (List.mem b.Bug.kind kinds) then Hashtbl.replace sites site (b.Bug.kind :: kinds)
      | None -> ())
    report.Bug.bugs;
  let rows =
    List.map
      (fun site ->
        let kinds = match Hashtbl.find_opt sites site with Some l -> l | None -> [] in
        [ site; (if kinds = [] then "NOT FOUND" else String.concat ", " (List.map Bug.kind_name kinds)) ])
      Workloads.Memcached.bug_sites
  in
  T.print
    ~title:
      (Printf.sprintf
         "Sec 7.4 Bug 1 family: PMDebugger finds %d/19 distinct buggy sites in memcached (Fig. 9a is it.cas)"
         (Hashtbl.length sites))
    ~header:[ "code site"; "bug kind(s) detected" ]
    rows;
  (* The same run through the other tools. *)
  let trace = record_spec Workloads.Memcached.spec 6000 in
  let count_findings mk =
    let r = Recorder.replay trace (mk ()) in
    List.length r.Bug.bugs
  in
  T.print
    ~title:
      "Sec 7.4: finding counts on the same memcached run (XFDetector's failure-point budget and PMTest's missing \
       annotations hide the sites)"
    ~header:[ "tool"; "findings" ]
    [
      [ "PMDebugger"; string_of_int (count_findings (mk_pmdebugger Pmdebugger.Detector.Strict)) ];
      [ "Pmemcheck"; string_of_int (count_findings mk_pmemcheck) ];
      [ "PMTest"; string_of_int (count_findings mk_pmtest) ];
      [ "XFDetector"; string_of_int (count_findings mk_xfdetector) ];
    ];
  (* Bug 2: redundant epoch fence in the stock hashmap_atomic create
     path (Fig. 9b); Bug 3: lack of durability in the array example's
     epoch (Fig. 9c). *)
  let run_with run =
    let engine = Engine.create () in
    let d = Pmdebugger.Detector.create ~model:Pmdebugger.Detector.Epoch () in
    Engine.attach engine (Pmdebugger.Detector.sink d);
    run engine;
    Engine.program_end engine;
    Pmdebugger.Detector.report d
  in
  let stock_hm =
    run_with (fun e -> ignore (Workloads.Hashmap_atomic.create (Minipmdk.Pool.create e ~size:(8 lsl 20))))
  in
  let fixed_hm =
    run_with (fun e ->
        ignore (Workloads.Hashmap_atomic.create ~fixed_create:true (Minipmdk.Pool.create e ~size:(8 lsl 20))))
  in
  let stock_arr =
    run_with (fun e ->
        ignore (Workloads.Array_example.allocate (Minipmdk.Pool.create e ~size:(8 lsl 20)) ~name:"arr" ~n_elems:8))
  in
  let fixed_arr =
    run_with (fun e ->
        ignore
          (Workloads.Array_example.allocate ~fixed:true
             (Minipmdk.Pool.create e ~size:(8 lsl 20))
             ~name:"arr" ~n_elems:8))
  in
  let cell report kind = string_of_int (Bug.count_kind report kind) in
  T.print ~title:"Sec 7.4 Bugs 2 and 3: stock PMDK example paths vs Intel's fixes"
    ~header:[ "program"; "redundant-epoch-fence"; "lack-durability-in-epoch" ]
    [
      [ "hashmap_atomic (stock)"; cell stock_hm Bug.Redundant_epoch_fence; cell stock_hm Bug.Lack_durability_in_epoch ];
      [ "hashmap_atomic (fixed)"; cell fixed_hm Bug.Redundant_epoch_fence; cell fixed_hm Bug.Lack_durability_in_epoch ];
      [ "array (stock)"; cell stock_arr Bug.Redundant_epoch_fence; cell stock_arr Bug.Lack_durability_in_epoch ];
      [ "array (fixed)"; cell fixed_arr Bug.Redundant_epoch_fence; cell fixed_arr Bug.Lack_durability_in_epoch ];
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: the DESIGN.md design-choice knobs.                        *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let n = 10_000 in
  let targets = [ Workloads.Btree.spec; Workloads.Hashmap_tx.spec; Workloads.Hashmap_atomic.spec ] in
  let variants =
    [
      ("hybrid (paper)", fun model -> Pmdebugger.Detector.create ~model ());
      ("array-only", fun model -> Pmdebugger.Detector.create ~model ~mode:Pmdebugger.Space.Array_only ());
      ("tree-only", fun model -> Pmdebugger.Detector.create ~model ~mode:Pmdebugger.Space.Tree_only ());
      ("no interval metadata", fun model -> Pmdebugger.Detector.create ~model ~interval_metadata:false ());
      ("merge threshold 50", fun model -> Pmdebugger.Detector.create ~model ~merge_threshold:50 ());
      ("merge threshold 5000", fun model -> Pmdebugger.Detector.create ~model ~merge_threshold:5000 ());
    ]
  in
  let rows =
    List.concat_map
      (fun (spec : W.spec) ->
        let trace = record_spec spec n in
        List.map
          (fun (vname, mk) ->
            let time =
              Harness.Timing.median_of ~repeats:3 (fun () ->
                  ignore (Recorder.replay trace (Pmdebugger.Detector.sink (mk spec.W.model))))
            in
            let d = mk spec.W.model in
            let report = Recorder.replay trace (Pmdebugger.Detector.sink d) in
            [
              spec.W.name;
              vname;
              Printf.sprintf "%.1f ms" (1000.0 *. time);
              string_of_int (List.length report.Bug.bugs);
              T.fmt_f (Pmdebugger.Detector.avg_tree_nodes_per_fence d);
            ])
          variants)
      targets
  in
  T.print ~title:"Ablation: bookkeeping design knobs (same bugs found; hybrid should beat tree-only on replay time)"
    ~header:[ "bench"; "variant"; "replay time"; "bugs"; "avg tree nodes/fence" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fault injection: explorer cost and injection/replay throughput.     *)
(* ------------------------------------------------------------------ *)

let faultinject () =
  let module FI = Faultinject in
  let module CE = FI.Crash_explore in
  (* Crash-image derivation copies the durable image per boundary, so
     explorer cost is measured on short traces; n here is workload ops,
     not events. *)
  let sizes = [ 5; 10; 20 ] in
  let recovery _ = true in
  let rows =
    List.concat_map
      (fun n ->
        let steps = FI.Replay.capture (run_spec Workloads.Btree.spec n) in
        let time boundaries max_images =
          Harness.Timing.median_of ~repeats:3 (fun () ->
              ignore (CE.explore ~boundaries ~max_images ~recovery steps))
        in
        let stats boundaries max_images =
          let r = CE.explore ~boundaries ~max_images ~recovery steps in
          (r.CE.boundaries_checked, r.CE.images_checked)
        in
        List.map
          (fun (bname, boundaries, max_images) ->
            let t = time boundaries max_images in
            let b, i = stats boundaries max_images in
            [
              "b_tree";
              string_of_int n;
              bname;
              string_of_int (Array.length steps);
              string_of_int b;
              string_of_int i;
              Printf.sprintf "%.1f ms" (1000.0 *. t);
            ])
          [ ("fences-only", CE.Fences_only, 4); ("every-op", CE.Every_op, 4); ("every-op/8img", CE.Every_op, 8) ])
      sizes
  in
  T.print
    ~title:"Crash-point explorer cost (every-op checks ~3x the boundaries of fences-only; cost scales with images)"
    ~header:[ "bench"; "n"; "boundaries"; "steps"; "checked"; "images"; "time" ]
    rows;
  (* Injection + detector replay throughput on a longer trace. *)
  let n = 2_000 in
  let steps = FI.Replay.capture (run_spec Workloads.Btree.spec n) in
  let inj_rows =
    List.map
      (fun fault ->
        let plan = FI.Sensitivity.default_plan fault in
        let t =
          Harness.Timing.median_of ~repeats:3 (fun () ->
              let mutated, _ = FI.Injector.apply plan steps in
              ignore
                (Recorder.replay
                   (FI.Replay.events_of_steps mutated)
                   (mk_pmdebugger Pmdebugger.Detector.Strict ())))
        in
        let _, injections = FI.Injector.apply plan steps in
        [
          FI.Injector.fault_name fault;
          string_of_int (Array.length steps);
          string_of_int (List.length injections);
          Printf.sprintf "%.1f ms" (1000.0 *. t);
        ])
      FI.Injector.all_faults
  in
  T.print
    ~title:(Printf.sprintf "Fault injection + detector replay (b_tree, n=%d)" n)
    ~header:[ "fault"; "steps"; "injections"; "mutate+replay" ]
    inj_rows;
  (* The full sensitivity matrix, timed. *)
  let t0 = Unix.gettimeofday () in
  let rows = FI.Sensitivity.run_matrix () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "  sensitivity matrix: %d workloads x %d faults in %.1f ms, %s\n"
    (List.length rows)
    (List.length FI.Sensitivity.core_faults)
    (1000.0 *. dt)
    (if FI.Sensitivity.matrix_ok rows then "all detected" else "GAPS PRESENT");
  flush stdout

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: per-experiment kernels.                  *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let trace = record_spec Workloads.Btree.spec 1_000 in
  let mc_trace = record_spec Workloads.Memcached.spec 1_000 in
  let replay mk trace () = ignore (Recorder.replay trace (mk ())) in
  let tests =
    [
      Test.make ~name:"fig8.pmdebugger-btree" (Staged.stage (replay (mk_pmdebugger Pmdebugger.Detector.Epoch) trace));
      Test.make ~name:"fig8.pmemcheck-btree" (Staged.stage (replay mk_pmemcheck trace));
      Test.make ~name:"fig8.nulgrind-btree" (Staged.stage (replay (fun () -> Sink.noop "nulgrind") trace));
      Test.make ~name:"fig10.pmdebugger-memcached"
        (Staged.stage (replay (mk_pmdebugger Pmdebugger.Detector.Strict) mc_trace));
      Test.make ~name:"table_sota.pmtest-btree" (Staged.stage (replay mk_pmtest trace));
      Test.make ~name:"table6.bugcase-sweep"
        (Staged.stage (fun () ->
             ignore (Bugbench.Eval.run_case Bugbench.Eval.PMDebugger (List.hd Bugbench.Cases.buggy))));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Printf.printf "\nBechamel micro-kernels (ns/run):\n";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-32s %14.0f\n" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    tests;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Machine-readable run report: BENCH_pr2.json.                        *)
(* ------------------------------------------------------------------ *)

let quick = ref false

let report () =
  let q = !quick in
  let sizes = if q then [ 500 ] else [ 1_000; 10_000 ] in
  let specs = if q then [ Workloads.Btree.spec ] else [ Workloads.Btree.spec; Workloads.Hashmap_tx.spec ] in
  let repeats = if q then 1 else 3 in
  let rows =
    List.concat_map
      (fun (spec : W.spec) ->
        List.map
          (fun n ->
            let m, _ =
              Harness.Timing.measure ~repeats ~run:(run_spec spec n)
                ~detectors:[ ("pmdebugger", mk_pmdebugger spec.W.model); ("pmemcheck", mk_pmemcheck) ]
                ()
            in
            (spec.W.name, n, m, List.assoc "pmdebugger" m.Harness.Timing.dispatch))
          sizes)
      specs
  in
  T.print ~title:"Run report: slowdowns + per-event dispatch latency (PMDebugger)"
    ~header:[ "bench"; "n"; "native"; "Nulgrind"; "PMDebugger"; "Pmemcheck"; "p50 disp."; "p95 disp."; "p99 disp." ]
    (List.map
       (fun (name, n, m, prof) ->
         let sd t = T.fmt_x (Harness.Timing.slowdown m t) in
         [
           name;
           string_of_int n;
           Printf.sprintf "%.1f ms" (1000.0 *. m.Harness.Timing.native_s);
           sd m.Harness.Timing.nulgrind_s;
           sd (List.assoc "pmdebugger" m.Harness.Timing.detector_s);
           sd (List.assoc "pmemcheck" m.Harness.Timing.detector_s);
           Printf.sprintf "%.0f ns" (1e9 *. prof.Harness.Timing.p50_s);
           Printf.sprintf "%.0f ns" (1e9 *. prof.Harness.Timing.p95_s);
           Printf.sprintf "%.0f ns" (1e9 *. prof.Harness.Timing.p99_s);
         ])
       rows);
  (* One metrics-enabled replay supplies the bookkeeping telemetry the
     slowdown numbers can't show (array hits vs tree spills, reorgs...). *)
  let metrics = Obs.Metrics.create () in
  let spec = Workloads.Btree.spec in
  let trace = record_spec spec (if q then 500 else 1_000) in
  let engine = Engine.create ~metrics () in
  Engine.attach engine
    (Pmdebugger.Detector.sink (Pmdebugger.Detector.create ~model:spec.W.model ~metrics ()));
  Array.iter (Engine.emit engine) trace;
  ignore (Engine.finish_all engine);
  let open Obs.Json in
  let row_json (name, n, m, prof) =
    let sd t = Float (Harness.Timing.slowdown m t) in
    Obj
      [
        ("bench", Str name);
        ("n", Int n);
        ("native_s", Float m.Harness.Timing.native_s);
        ( "slowdowns",
          Obj
            [
              ("nulgrind", sd m.Harness.Timing.nulgrind_s);
              ("pmdebugger", sd (List.assoc "pmdebugger" m.Harness.Timing.detector_s));
              ("pmemcheck", sd (List.assoc "pmemcheck" m.Harness.Timing.detector_s));
            ] );
        ("dispatch_p50_s", Float prof.Harness.Timing.p50_s);
        ("dispatch_p95_s", Float prof.Harness.Timing.p95_s);
        ("dispatch_p99_s", Float prof.Harness.Timing.p99_s);
        ("dispatch_samples", Int prof.Harness.Timing.samples);
      ]
  in
  let json =
    Obj
      [
        ("schema", Str "pmdb-bench/v1");
        ("quick", Bool q);
        ("rows", List (Stdlib.List.map row_json rows));
        ("telemetry", Obs.Metrics.to_json metrics);
      ]
  in
  to_file "BENCH_pr2.json" json;
  Printf.printf "wrote BENCH_pr2.json (%d row(s), quick=%b)\n" (Stdlib.List.length rows) q;
  (* The same trace as a Perfetto timeline — the CI artifact a human
     loads in ui.perfetto.dev to eyeball a regression the counters
     flagged. *)
  let tb = Harness.Timeline.of_trace trace in
  Obs.Json.to_file "BENCH_timeline.json" (Obs.Perfetto.to_json tb);
  Printf.printf "wrote BENCH_timeline.json (%d timeline event(s))\n" (Obs.Perfetto.length tb);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Streaming replay: constant-memory file replay vs materialized.      *)
(* Writes BENCH_pr3.json.                                              *)
(* ------------------------------------------------------------------ *)

(* A synthetic trace big enough that holding it in memory shows up in
   Gc.stat: bursts of four stores to one cache line, one clwb and one
   fence per burst, cycling over a bounded region. Detector state stays
   O(region), so the only O(trace) storage candidate is the trace
   itself — exactly what the streamed path must not hold. *)
(* With [dirty], every 509th burst skips its writeback: the overwrites
   on the next lap and the leftovers at program end give the detector
   real findings, so a report-equality gate checks more than "both
   empty". *)
let generate_stream_trace ?(dirty = false) path ~bursts =
  let lines = 4096 in
  Trace_io.save_stream path (fun emit ->
      emit (Event.Register_pmem { base = 0; size = lines * 64 });
      for i = 0 to bursts - 1 do
        let addr = i mod lines * 64 in
        for s = 0 to 3 do
          emit (Event.Store { addr = addr + (s * 16); size = 16; tid = 0 })
        done;
        if not (dirty && i mod 509 = 0) then emit (Event.Clf { addr; size = 64; kind = Event.Clwb; tid = 0 });
        emit (Event.Fence { tid = 0 })
      done;
      emit Event.Program_end)

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* Every 128th event is individually timed: enough samples for p50/p95
   without the clock dominating the run. *)
let sampled_emit hist emit =
  let k = ref 0 in
  fun ev ->
    incr k;
    if !k land 127 = 0 then begin
      let t = Unix.gettimeofday () in
      emit ev;
      Obs.Metrics.hist_observe hist (Unix.gettimeofday () -. t)
    end
    else emit ev

let streaming () =
  let q = !quick in
  let bursts = if q then 20_000 else 170_000 in
  let path = Filename.temp_file "pmdb_streaming" ".pmt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let events = generate_stream_trace path ~bursts in
  let gen_s = Unix.gettimeofday () -. t0 in
  let mk () = mk_pmdebugger Pmdebugger.Detector.Strict () in
  let metrics = Obs.Metrics.create () in
  (* The detector's own footprint does not grow with trace length: slot
     storage grows only to the largest fence interval (4 stores here,
     within the initial slots) and the shadow covers the registered
     region — measure it once so the deltas below isolate storage
     attributable to trace LENGTH, which is what streaming must keep
     constant. *)
  let detector_words =
    let before = live_words () in
    let sink = mk () in
    sink.Sink.on_event (Event.Register_pmem { base = 0; size = 4096 * 64 });
    sink.Sink.on_event (Event.Store { addr = 0; size = 16; tid = 0 });
    let dw = live_words () - before in
    ignore (sink.Sink.finish ());
    dw
  in
  let base = live_words () in
  (* Streamed, timed. *)
  let hist_streamed = Obs.Metrics.hist_create () in
  let t0 = Unix.gettimeofday () in
  let report_streamed =
    Recorder.replay_stream
      (fun emit ->
        match Trace_io.iter_file ~metrics path ~f:(sampled_emit hist_streamed emit) with
        | Ok _ -> ()
        | Error msg -> failwith msg)
      (mk ())
  in
  let streamed_s = Unix.gettimeofday () -. t0 in
  (* Streamed, memory probe (untimed: Gc.compact mid-replay). *)
  let streamed_peak = ref base in
  let seen = ref 0 in
  ignore
    (Recorder.replay_stream
       (fun emit ->
         match
           Trace_io.iter_file path ~f:(fun ev ->
               incr seen;
               if !seen = events / 2 then streamed_peak := live_words ();
               emit ev)
         with
         | Ok _ -> ()
         | Error msg -> failwith msg)
       (mk ()));
  let streamed_delta = max 0 (!streamed_peak - base - detector_words) in
  (* Materialized: load the whole trace, then replay the array. *)
  let base_mat = live_words () in
  let t0 = Unix.gettimeofday () in
  let lenient = match Trace_io.load_lenient path with Ok l -> l | Error msg -> failwith msg in
  let load_s = Unix.gettimeofday () -. t0 in
  let mat_delta = max 0 (live_words () - base_mat) in
  let hist_mat = Obs.Metrics.hist_create () in
  let t0 = Unix.gettimeofday () in
  let report_mat =
    Recorder.replay_stream
      (fun emit -> Array.iter (sampled_emit hist_mat emit) lenient.Trace_io.trace)
      (mk ())
  in
  let mat_s = load_s +. (Unix.gettimeofday () -. t0) in
  let reports_match =
    report_streamed.Bug.events_processed = report_mat.Bug.events_processed
    && report_streamed.Bug.bugs = report_mat.Bug.bugs
  in
  let constant_memory = streamed_delta * 4 < mat_delta in
  let p hist frac = Obs.Metrics.quantile (Obs.Metrics.hist_view hist) frac in
  let eps t = float_of_int events /. t in
  T.print
    ~title:
      (Printf.sprintf "Streaming replay: %d events through iter_file vs a materialized array (quick=%b)" events q)
    ~header:[ "path"; "replay"; "events/s"; "p50 disp."; "p95 disp."; "live words held" ]
    [
      [
        "streamed";
        Printf.sprintf "%.2f s" streamed_s;
        Printf.sprintf "%.0f" (eps streamed_s);
        Printf.sprintf "%.0f ns" (1e9 *. p hist_streamed 0.5);
        Printf.sprintf "%.0f ns" (1e9 *. p hist_streamed 0.95);
        string_of_int streamed_delta;
      ];
      [
        "materialized";
        Printf.sprintf "%.2f s" mat_s;
        Printf.sprintf "%.0f" (eps mat_s);
        Printf.sprintf "%.0f ns" (1e9 *. p hist_mat 0.5);
        Printf.sprintf "%.0f ns" (1e9 *. p hist_mat 0.95);
        string_of_int mat_delta;
      ];
    ];
  Printf.printf "  reports match: %b (%d event(s), %d finding(s)); streamed holds %.1fx less\n" reports_match
    report_streamed.Bug.events_processed
    (List.length report_streamed.Bug.bugs)
    (float_of_int mat_delta /. float_of_int (max 1 streamed_delta));
  let open Obs.Json in
  let row name total_s hist delta =
    Obj
      [
        ("bench", Str name);
        ("n", Int events);
        ("native_s", Float gen_s);
        ("slowdowns", Obj [ ("replay_vs_generate", Float (total_s /. gen_s)) ]);
        ("dispatch_p50_s", Float (p hist 0.5));
        ("dispatch_p95_s", Float (p hist 0.95));
        ("dispatch_p99_s", Float (p hist 0.99));
        ("events_per_sec", Float (eps total_s));
        ("live_words_delta", Int delta);
      ]
  in
  let json =
    Obj
      [
        ("schema", Str "pmdb-bench/v1");
        ("quick", Bool q);
        ("events", Int events);
        ("reports_match", Bool reports_match);
        ("constant_memory", Bool constant_memory);
        ( "rows",
          List
            [
              row "replay-streamed" streamed_s hist_streamed streamed_delta;
              row "replay-materialized" mat_s hist_mat mat_delta;
            ] );
        ("telemetry", Obs.Metrics.to_json metrics);
      ]
  in
  to_file "BENCH_pr3.json" json;
  Printf.printf "wrote BENCH_pr3.json (events=%d, quick=%b)\n" events q;
  flush stdout;
  if not reports_match then begin
    Printf.eprintf "streaming: FAILED — streamed and materialized replays disagree\n";
    exit 1
  end;
  if not constant_memory then begin
    Printf.eprintf "streaming: FAILED — streamed replay held %d live words (materialized: %d); not constant-memory\n"
      streamed_delta mat_delta;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Sharded detection: replay the streaming trace through the            *)
(* domain-parallel Shard_router at 1/2/4/8 shards, compare each row's   *)
(* speed with the plain single detector, and check every merged report  *)
(* against the plain run. Writes BENCH_pr9.json.                        *)
(* ------------------------------------------------------------------ *)

let sharding () =
  let q = !quick in
  let bursts = if q then 20_000 else 170_000 in
  let path = Filename.temp_file "pmdb_sharding" ".pmt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let events = generate_stream_trace ~dirty:true path ~bursts in
  let gen_s = Unix.gettimeofday () -. t0 in
  (* Load once: every configuration replays the identical in-memory
     trace, so the curve measures detection throughput, not disk. *)
  let trace = match Trace_io.load_lenient path with Ok l -> l.Trace_io.trace | Error msg -> failwith msg in
  let worker _shard =
    (* Per-shard detectors run on worker domains: metrics must stay
       disabled there; the router owns the shared registry. *)
    Pmdebugger.Detector.worker (Pmdebugger.Detector.create ~model:Pmdebugger.Detector.Strict ~walk_dedup:false ())
  in
  (* The plain detector reports in discovery order, the merge in
     canonical order; sort both before comparing. *)
  let canon r = Bug.render_canonical { r with Bug.bugs = List.sort Bug.compare_canonical r.Bug.bugs } in
  let run_once mk_sink =
    let hist = Obs.Metrics.hist_create () in
    let t0 = Unix.gettimeofday () in
    let report = Recorder.replay_stream (fun emit -> Array.iter (sampled_emit hist emit) trace) (mk_sink ()) in
    (report, Unix.gettimeofday () -. t0, hist)
  in
  let plain_report, plain_s, plain_hist = run_once (fun () -> mk_pmdebugger Pmdebugger.Detector.Strict ()) in
  let sharded =
    List.map
      (fun n ->
        let reg = Obs.Metrics.create () in
        let report, dt, hist = run_once (fun () -> Shard_router.sink ~shards:n ~metrics:reg worker) in
        (Printf.sprintf "shards-%d" n, report, dt, hist, reg))
      [ 1; 2; 4; 8 ]
  in
  let expected = canon plain_report in
  let reports_match = List.for_all (fun (_, r, _, _, _) -> canon r = expected) sharded in
  (* Every row's speedup is taken against the plain detector: sharding
     pays off only where it beats running without it. *)
  let best_speedup = List.fold_left (fun acc (_, _, dt, _, _) -> Float.max acc (plain_s /. dt)) 0.0 sharded in
  let host_cores = Domain.recommended_domain_count () in
  let p hist frac = Obs.Metrics.quantile (Obs.Metrics.hist_view hist) frac in
  let eps t = float_of_int events /. t in
  let row_print name dt hist speedup =
    [
      name;
      Printf.sprintf "%.2f s" dt;
      Printf.sprintf "%.0f" (eps dt);
      Printf.sprintf "%.0f ns" (1e9 *. p hist 0.5);
      Printf.sprintf "%.0f ns" (1e9 *. p hist 0.95);
      (match speedup with None -> "-" | Some s -> T.fmt_x s);
    ]
  in
  T.print
    ~title:
      (Printf.sprintf "Sharded detection: %d events, %d host core(s) (quick=%b)" events host_cores q)
    ~header:[ "config"; "replay"; "events/s"; "p50 disp."; "p95 disp."; "vs plain" ]
    (row_print "plain" plain_s plain_hist None
    :: List.map (fun (name, _, dt, hist, _) -> row_print name dt hist (Some (plain_s /. dt))) sharded);
  Printf.printf "  reports match: %b (%d finding(s)); best sharded speedup over plain: %.2fx on %d core(s)\n"
    reports_match
    (List.length plain_report.Bug.bugs)
    best_speedup host_cores;
  if best_speedup < 1.0 then
    Printf.printf "  note: no sharded configuration beats the plain detector on this host\n";
  let open Obs.Json in
  (* Stage attribution per row: the per-shard residency and per-frame
     worker histograms folded bucket-wise across labels (the worker
     registries are absorbed into the router's at finish), p50
     interpolated. The plain run has no hand-off, so its stage fields
     are null. *)
  let stage_p50 reg name =
    let folded =
      List.fold_left
        (fun acc (s : Obs.Metrics.sample) ->
          match (s.Obs.Metrics.value, acc) with
          | Obs.Metrics.V_hist h, None when s.Obs.Metrics.name = name -> Some h
          | Obs.Metrics.V_hist h, Some t when s.Obs.Metrics.name = name && h.Obs.Metrics.h_bounds = t.Obs.Metrics.h_bounds ->
              Array.iteri (fun i c -> t.Obs.Metrics.h_counts.(i) <- t.Obs.Metrics.h_counts.(i) + c) h.Obs.Metrics.h_counts;
              Some
                {
                  t with
                  Obs.Metrics.h_sum = t.Obs.Metrics.h_sum +. h.Obs.Metrics.h_sum;
                  h_count = t.Obs.Metrics.h_count + h.Obs.Metrics.h_count;
                  h_max = Float.max t.Obs.Metrics.h_max h.Obs.Metrics.h_max;
                }
          | _ -> acc)
        None (Obs.Metrics.snapshot reg)
    in
    match folded with
    | Some h when h.Obs.Metrics.h_count > 0 -> Float (Obs.Metrics.quantile h 0.5)
    | _ -> Null
  in
  let row ?reg name total_s hist =
    let stage name = match reg with Some r -> stage_p50 r name | None -> Null in
    Obj
      [
        ("bench", Str name);
        ("n", Int events);
        ("native_s", Float gen_s);
        ( "slowdowns",
          Obj [ ("replay_vs_generate", Float (total_s /. gen_s)); ("vs_plain", Float (total_s /. plain_s)) ] );
        ("dispatch_p50_s", Float (p hist 0.5));
        ("dispatch_p95_s", Float (p hist 0.95));
        ("dispatch_p99_s", Float (p hist 0.99));
        ("residency_p50_s", stage "shard_frame_residency_seconds");
        ("frame_p50_s", stage "shard_worker_frame_seconds");
        ("events_per_sec", Float (eps total_s));
      ]
  in
  (* The 4-shard registry carries the per-shard counters
     (shard_events_total{shard}, shard_barrier_stalls_total, queue
     depth peaks, per-frame worker latency) — that's the telemetry
     worth diffing in CI. *)
  let telemetry =
    match List.find_opt (fun (name, _, _, _, _) -> name = "shards-4") sharded with
    | Some (_, _, _, _, reg) -> Obs.Metrics.to_json reg
    | None -> Obs.Metrics.to_json (Obs.Metrics.create ())
  in
  let json =
    Obj
      [
        ("schema", Str "pmdb-bench/v1");
        ("quick", Bool q);
        ("events", Int events);
        ("host_cores", Int host_cores);
        ("reports_match", Bool reports_match);
        ("best_speedup_over_plain", Float best_speedup);
        ( "rows",
          List
            (row "replay-plain" plain_s plain_hist
            :: Stdlib.List.map
                 (fun (name, _, dt, hist, reg) -> row ~reg (Printf.sprintf "replay-%s" name) dt hist)
                 sharded) );
        ("telemetry", telemetry);
      ]
  in
  to_file "BENCH_pr9.json" json;
  Printf.printf "wrote BENCH_pr9.json (events=%d, quick=%b)\n" events q;
  flush stdout;
  if not reports_match then begin
    Printf.eprintf "sharding: FAILED — sharded and single-detector replays disagree\n";
    List.iter
      (fun (name, r, _, _, _) ->
        if canon r <> expected then
          Printf.eprintf "  %s: %d finding(s) vs expected %d%s\n" name (List.length r.Bug.bugs)
            (List.length plain_report.Bug.bugs)
            (match r.Bug.failure with Some msg -> " (" ^ msg ^ ")" | None -> ""))
      sharded;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* pmdb serve soak: N concurrent clients streaming the same synthetic  *)
(* trace into an in-process daemon; gates on report equality with the  *)
(* offline replay and on flat RSS across waves. Writes BENCH_pr6.json. *)
(* ------------------------------------------------------------------ *)

let rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines ->
      List.fold_left
        (fun acc line ->
          match acc with
          | Some _ -> acc
          | None ->
              if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
              else None)
        None lines
  | exception Sys_error _ -> None

let serve_soak () =
  let q = !quick in
  let clients = if q then 4 else 16 in
  let rounds = if q then 1 else 3 in
  let bursts = if q then 4_000 else 20_000 in
  let path = Filename.temp_file "pmdb_serve" ".pmt" in
  let socket = Filename.temp_file "pmdb_serve" ".sock" in
  Sys.remove socket;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  let events = generate_stream_trace ~dirty:true path ~bursts in
  let body = In_channel.with_open_bin path In_channel.input_all in
  let mk () = mk_pmdebugger Pmdebugger.Detector.Strict () in
  (* Offline ground truth: the same trace through the same sink. *)
  let trace = match Trace_io.load_lenient path with Ok l -> l.Trace_io.trace | Error msg -> failwith msg in
  let t0 = Unix.gettimeofday () in
  let offline_report = Recorder.replay trace (mk ()) in
  let offline_s = Unix.gettimeofday () -. t0 in
  let canon r = Bug.render_canonical { r with Bug.bugs = List.sort Bug.compare_canonical r.Bug.bugs } in
  let expected = canon offline_report in
  let metrics = Obs.Metrics.create () in
  let workers = min 4 (max 2 (Domain.recommended_domain_count () - 2)) in
  let cfg = { (Serve.Daemon.default_config ~socket) with Serve.Daemon.workers; idle_timeout = 30.0 } in
  let daemon = Serve.Daemon.create ~metrics ~make_sink:(fun ~heatmap:_ -> mk ()) cfg in
  let daemon_domain = Domain.spawn (fun () -> Serve.Daemon.run daemon) in
  let run_wave wave n =
    let doms =
      List.init n (fun i ->
          Domain.spawn (fun () ->
              Serve.Client.replay_string ~socket ~name:(Printf.sprintf "w%d-c%d" wave i) body))
    in
    List.map Domain.join doms
  in
  let check frames =
    List.iteri
      (fun i frame ->
        match frame with
        | Error msg -> failwith (Printf.sprintf "client %d: %s" i msg)
        | Ok f -> (
            if f.Serve.Wire.status <> Serve.Status.Ok then
              failwith
                (Printf.sprintf "client %d: status %s" i (Serve.Status.name f.Serve.Wire.status));
            match f.Serve.Wire.report with
            | Some r when canon r = expected -> ()
            | Some r ->
                failwith
                  (Printf.sprintf "client %d: report mismatch (%d finding(s) vs offline %d)" i
                     (List.length r.Bug.bugs)
                     (List.length offline_report.Bug.bugs))
            | None -> failwith (Printf.sprintf "client %d: no report" i)))
      frames
  in
  (* Warmup wave, then the RSS baseline, then the measured waves: any
     per-session state the daemon leaks shows up as RSS growth across
     identical waves. *)
  check (run_wave 0 (min 4 clients));
  Gc.compact ();
  let rss_before = rss_kb () in
  let t0 = Unix.gettimeofday () in
  for wave = 1 to rounds do
    check (run_wave wave clients)
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  Gc.compact ();
  let rss_after = rss_kb () in
  let snap = match Serve.Client.stats ~socket with Ok s -> s | Error msg -> failwith msg in
  (match Serve.Client.stop ~socket with Ok () -> () | Error msg -> failwith msg);
  Domain.join daemon_domain;
  let ingest =
    match Obs.Metrics.find snap "serve_ingest_seconds" with
    | Some (Obs.Metrics.V_hist hv) -> hv
    | _ -> failwith "daemon stats: no serve_ingest_seconds histogram"
  in
  let quant frac = Obs.Metrics.quantile ingest frac in
  (* Domain-safe telemetry gate: the merged snapshot's per-worker
     serve_worker_events_total{domain} series must sum to exactly the
     events the dispatch domain submitted — every event the daemon
     ingested is accounted for on some worker domain. *)
  let counter_sum name =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        match s.Obs.Metrics.value with
        | Obs.Metrics.V_counter n when s.Obs.Metrics.name = name -> acc + n
        | _ -> acc)
      0 snap
  in
  let worker_events = counter_sum "serve_worker_events_total" in
  let submitted = counter_sum "serve_events_total" in
  if worker_events <> submitted then
    failwith
      (Printf.sprintf "worker telemetry mismatch: sum(serve_worker_events_total)=%d, serve_events_total=%d"
         worker_events submitted);
  let total_events = events * clients * rounds in
  let events_per_sec = float_of_int total_events /. wall_s in
  let rss_flat, rss_note =
    match (rss_before, rss_after) with
    | Some before, Some after ->
        (* Flat = bounded growth across identical waves: slack for
           allocator jitter, but nowhere near a per-wave leak. *)
        let slack_kb = max (before / 2) (64 * 1024) in
        (after - before <= slack_kb, Printf.sprintf "%d kB -> %d kB" before after)
    | _ -> (true, "VmRSS unavailable; gate skipped")
  in
  T.print
    ~title:
      (Printf.sprintf "pmdb serve soak: %d wave(s) x %d client(s) x %d events (quick=%b)" rounds clients events q)
    ~header:[ "metric"; "value" ]
    [
      [ "offline replay"; Printf.sprintf "%.2f s" offline_s ];
      [ "soak wall clock"; Printf.sprintf "%.2f s" wall_s ];
      [ "aggregate events/s"; Printf.sprintf "%.0f" events_per_sec ];
      [ "ingest p50"; Printf.sprintf "%.0f ns" (1e9 *. quant 0.5) ];
      [ "ingest p95"; Printf.sprintf "%.0f ns" (1e9 *. quant 0.95) ];
      [ "ingest p99"; Printf.sprintf "%.0f ns" (1e9 *. quant 0.99) ];
      [ "RSS"; rss_note ];
    ];
  Printf.printf "  all %d session report(s) identical to offline replay; RSS flat: %b\n"
    ((min 4 clients) + (clients * rounds))
    rss_flat;
  Printf.printf "  worker domains account for all %d ingested event(s) (sum of serve_worker_events_total)\n"
    worker_events;
  let open Obs.Json in
  let row =
    Obj
      [
        ("bench", Str (Printf.sprintf "serve-%d-clients" clients));
        ("n", Int total_events);
        ("native_s", Float offline_s);
        ( "slowdowns",
          Obj
            [
              (* Wall clock for the whole soak against serial offline
                 replays of the same load: < 1.0 means the daemon's
                 worker parallelism is paying for the socket hop. *)
              ("daemon_vs_offline_serial", Float (wall_s /. (offline_s *. float_of_int (clients * rounds))));
            ] );
        ("dispatch_p50_s", Float (quant 0.5));
        ("dispatch_p95_s", Float (quant 0.95));
        ("dispatch_p99_s", Float (quant 0.99));
        ("worker_events_total", Int worker_events);
        ("events_per_sec", Float events_per_sec);
        ("clients", Int clients);
        ("rounds", Int rounds);
        ("workers", Int workers);
      ]
  in
  let json =
    Obj
      [
        ("schema", Str "pmdb-bench/v1");
        ("quick", Bool q);
        ("events", Int total_events);
        ("reports_match", Bool true);
        ("rss_flat", Bool rss_flat);
        ("rss_before_kb", match rss_before with Some k -> Int k | None -> Null);
        ("rss_after_kb", match rss_after with Some k -> Int k | None -> Null);
        ("rows", List [ row ]);
        ("telemetry", Obs.Metrics.snapshot_to_json snap);
      ]
  in
  to_file "BENCH_pr6.json" json;
  Printf.printf "wrote BENCH_pr6.json (events=%d, quick=%b)\n" total_events q;
  flush stdout;
  if not rss_flat then begin
    Printf.eprintf "serve: FAILED — RSS grew across identical waves (%s); the daemon leaks per-session state\n"
      rss_note;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Invariant-guided crash-state exploration: bugs-found-per-N-images    *)
(* curves for guided/sampled vs the exhaustive scan, on a long          *)
(* commit-rounds trace with a sparse planted ordering bug plus the      *)
(* cross-failure bugbench cases. Writes BENCH_pr10.json and gates on    *)
(* (a) every strategy's failure set being a subset of exhaustive's,     *)
(* (b) unbounded guided finding exactly the exhaustive set, and         *)
(* (c) guided recovering >= 90% of exhaustive's bugs within 25% of its  *)
(* image spend.                                                         *)
(* ------------------------------------------------------------------ *)

let crashexplore () =
  let module FI = Faultinject in
  let module CE = FI.Crash_explore in
  let q = !quick in
  (* The rounds trace: R backup/counter commit rounds on two shared
     lines. Correct rounds persist the backup before the counter that
     must never exceed it; the planted rounds run the counter ahead —
     the xfail_counter_before_backup shape, but buried in a long
     otherwise-correct trace so risk ranking has something to rank. *)
  (* A planted round also reverses the persist cycle, so the round after
     it opens a spurious "echo" window of similar rank; the budget floor
     that matters is true + echo windows (~34 images), which 25% clears
     at these sizes with margin. *)
  let rounds = if q then 16 else 40 in
  let planted = [ (rounds / 3) + 1; (2 * rounds / 3) + 1 ] in
  let backup_addr = 0 and counter_addr = 64 in
  let run e =
    Engine.register_pmem e ~base:0 ~size:4096;
    for r = 1 to rounds do
      let v = Int64.of_int r in
      let commit ~addr = Engine.store_i64 e ~addr v; Engine.persist e ~addr ~size:8 in
      if List.mem r planted then begin
        commit ~addr:counter_addr;
        commit ~addr:backup_addr
      end
      else begin
        commit ~addr:backup_addr;
        commit ~addr:counter_addr
      end
    done
  in
  let recovery img =
    Int64.compare (Pmem.Image.get_i64 img counter_addr) (Pmem.Image.get_i64 img backup_addr) <= 0
  in
  let t0 = Unix.gettimeofday () in
  let steps = FI.Replay.capture run in
  let gen_s = Unix.gettimeofday () -. t0 in
  let max_images = 4 in
  let indexes_of (o : CE.outcome) = List.map (fun f -> f.CE.index) o.result.CE.failures in
  (* Per-image recovery-check latency feeds the dispatch percentiles. *)
  let run_strategy ?budget ?metrics strat =
    let hist = Obs.Metrics.hist_create () in
    let timed img =
      let t0 = Unix.gettimeofday () in
      let ok = recovery img in
      Obs.Metrics.hist_observe hist (Unix.gettimeofday () -. t0);
      ok
    in
    let plan = CE.make_plan ~max_images ?budget steps in
    let t0 = Unix.gettimeofday () in
    let o = CE.run ?metrics ~recovery:timed plan strat in
    (o, Unix.gettimeofday () -. t0, hist)
  in
  let ex, ex_s, ex_hist = run_strategy CE.exhaustive in
  let ex_set = indexes_of ex in
  let ex_bugs = List.length ex_set and ex_images = ex.CE.result.CE.images_checked in
  let guided_reg = Obs.Metrics.create () in
  let fractions = [ 5; 10; 25; 50; 100 ] in
  let curve =
    List.concat_map
      (fun (sname, strat) ->
        List.map
          (fun pct ->
            let budget = max 1 (ex_images * pct / 100) in
            let metrics = if sname = "guided" && pct = 25 then Some guided_reg else None in
            let o, dt, hist = run_strategy ~budget ?metrics strat in
            (sname, pct, budget, o, dt, hist))
          fractions)
      [ ("guided", CE.guided); ("sampled", CE.sampled) ]
  in
  let guided_unbounded, _, _ = run_strategy CE.guided in
  (* Gates on the bugbench cross-failure cases: sound (subset) bounded
     runs, and unbounded guided finding exactly the exhaustive set. *)
  let case_gates =
    List.filter_map
      (fun (c : Bugbench.Cases.t) ->
        match c.Bugbench.Cases.recovery with
        | None -> None
        | Some recovery ->
            let steps = FI.Replay.capture c.Bugbench.Cases.run in
            let explore ?budget strat =
              indexes_of (CE.run ~recovery (CE.make_plan ~max_images ?budget steps) strat)
            in
            let full = explore CE.exhaustive in
            let g = explore CE.guided in
            let gb = explore ~budget:8 CE.guided in
            let sb = explore ~budget:8 CE.sampled in
            let subset l = List.for_all (fun i -> List.mem i full) l in
            Some (c.Bugbench.Cases.id, g = full, subset gb && subset sb))
      Bugbench.Cases.buggy
  in
  let sound_cases = List.for_all (fun (_, _, s) -> s) case_gates in
  let complete_cases = List.for_all (fun (_, eq, _) -> eq) case_gates in
  let sound_curve =
    List.for_all (fun (_, _, _, o, _, _) -> List.for_all (fun i -> List.mem i ex_set) (indexes_of o)) curve
  in
  let guided_complete = indexes_of guided_unbounded = ex_set in
  let bugs_at sname pct =
    match List.find_opt (fun (s, p, _, _, _, _) -> s = sname && p = pct) curve with
    | Some (_, _, _, o, _, _) -> List.length (indexes_of o)
    | None -> 0
  in
  let images_at sname pct =
    match List.find_opt (fun (s, p, _, _, _, _) -> s = sname && p = pct) curve with
    | Some (_, _, _, o, _, _) -> o.CE.result.CE.images_checked
    | None -> 0
  in
  let guided_25 = bugs_at "guided" 25 in
  let guided_25_images = images_at "guided" 25 in
  let hit_rate = float_of_int guided_25 /. float_of_int (max 1 ex_bugs) in
  let per_100 images bugs = if images = 0 then 0.0 else 100.0 *. float_of_int bugs /. float_of_int images in
  let p hist frac = Obs.Metrics.quantile (Obs.Metrics.hist_view hist) frac in
  T.print
    ~title:
      (Printf.sprintf
         "Invariant-guided exploration: %d rounds, %d planted; exhaustive %d bug(s) / %d image(s) (quick=%b)"
         rounds (List.length planted) ex_bugs ex_images q)
    ~header:[ "strategy"; "budget"; "images"; "bugs"; "bugs/100img"; "time" ]
    ([ "exhaustive"; "-"; string_of_int ex_images; string_of_int ex_bugs;
       Printf.sprintf "%.1f" (per_100 ex_images ex_bugs); Printf.sprintf "%.1f ms" (1000.0 *. ex_s) ]
    :: List.map
         (fun (sname, pct, budget, o, dt, _) ->
           let bugs = List.length (indexes_of o) in
           [ sname; Printf.sprintf "%d%% (%d)" pct budget;
             string_of_int o.CE.result.CE.images_checked; string_of_int bugs;
             Printf.sprintf "%.1f" (per_100 o.CE.result.CE.images_checked bugs);
             Printf.sprintf "%.1f ms" (1000.0 *. dt) ])
         curve);
  Printf.printf
    "  guided@25%%: %d/%d bug(s) in %d/%d image(s) (%.0f%% of bugs at %.0f%% of images); soundness %b, guided-complete %b\n"
    guided_25 ex_bugs guided_25_images ex_images (100.0 *. hit_rate)
    (100.0 *. float_of_int guided_25_images /. float_of_int (max 1 ex_images))
    (sound_curve && sound_cases) (guided_complete && complete_cases);
  let open Obs.Json in
  let row name images bugs dt hist =
    Obj
      [
        ("bench", Str name);
        ("n", Int images);
        ("native_s", Float gen_s);
        ( "slowdowns",
          Obj
            [
              ("images_vs_exhaustive", Float (float_of_int images /. float_of_int (max 1 ex_images)));
              ("bugs_vs_exhaustive", Float (float_of_int bugs /. float_of_int (max 1 ex_bugs)));
              ("wall_vs_exhaustive", Float (dt /. ex_s));
            ] );
        ("dispatch_p50_s", Float (p hist 0.5));
        ("dispatch_p95_s", Float (p hist 0.95));
        ("dispatch_p99_s", Float (p hist 0.99));
        ("bugs", Int bugs);
        ("bugs_per_100_images", Float (per_100 images bugs));
      ]
  in
  let json =
    Obj
      [
        ("schema", Str "pmdb-bench/v1");
        ("quick", Bool q);
        ("rounds", Int rounds);
        ("planted_rounds", Int (List.length planted));
        ("exhaustive_bugs", Int ex_bugs);
        ("exhaustive_images", Int ex_images);
        ("guided_bugs_at_25pct", Int guided_25);
        ("guided_images_at_25pct", Int guided_25_images);
        ("guided_hit_rate_at_25pct", Float hit_rate);
        ("sound", Bool (sound_curve && sound_cases));
        ("guided_complete_unbounded", Bool (guided_complete && complete_cases));
        ( "rows",
          List
            (row "crashexplore-exhaustive" ex_images ex_bugs ex_s ex_hist
            :: Stdlib.List.map
                 (fun (sname, pct, _, o, dt, hist) ->
                   row
                     (Printf.sprintf "crashexplore-%s-b%d" sname pct)
                     o.CE.result.CE.images_checked
                     (List.length (indexes_of o))
                     dt hist)
                 curve) );
        ("telemetry", Obs.Metrics.to_json guided_reg);
      ]
  in
  to_file "BENCH_pr10.json" json;
  Printf.printf "wrote BENCH_pr10.json (rounds=%d, quick=%b)\n" rounds q;
  flush stdout;
  if not (sound_curve && sound_cases) then begin
    Printf.eprintf "crashexplore: FAILED — a bounded strategy reported a failure exhaustive did not\n";
    exit 1
  end;
  if not (guided_complete && complete_cases) then begin
    Printf.eprintf "crashexplore: FAILED — unbounded guided missed part of the exhaustive failure set\n";
    exit 1
  end;
  if hit_rate < 0.9 then begin
    Printf.eprintf "crashexplore: FAILED — guided found %.0f%% of exhaustive's bugs at a 25%% image budget (need >= 90%%)\n"
      (100.0 *. hit_rate);
    exit 1
  end

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig2a", fig2a);
    ("fig2b", fig2b);
    ("fig2c", fig2c);
    ("fig8", fig8);
    ("table5", table5);
    ("table_sota", table_sota);
    ("table1", table1);
    ("table6", table6);
    ("fig10", fig10);
    ("fig11", fig11);
    ("newbugs", newbugs);
    ("ablation", ablation);
    ("faultinject", faultinject);
    ("bechamel", bechamel);
    ("report", report);
    ("streaming", streaming);
    ("sharding", sharding);
    ("serve", serve_soak);
    ("crashexplore", crashexplore);
  ]

let () =
  (* Frame publish stamps (and thus residency) must be wall clock, not
     the Sys.time default — the producer and consumer are on different
     domains. *)
  Obs.Clock.set Unix.gettimeofday;
  let args = List.tl (Array.to_list Sys.argv) in
  let names =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  (* Quick mode with no explicit experiment is the CI smoke run: just the
     machine-readable report at small sizes. *)
  let selected =
    match names with [] -> if !quick then [ "report" ] else List.map fst experiments | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          Printf.printf "\n===== %s =====\n" name;
          flush stdout;
          f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name (String.concat " " (List.map fst experiments));
          exit 1)
    selected
