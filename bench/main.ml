(* Paper reproductions: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe           -- run everything
     dune exec bench/main.exe -- fig8   -- run one experiment

   Experiments: fig2a fig2b fig2c fig8 table5 table_sota table1 table6
   fig10 fig11 newbugs ablation

   This binary regenerates the paper's tables; it is not the speed
   ledger. Speed, memory and per-layer costs are measured by perfbench
   (perfbench/run.py, declared in BENCHMARK.json). *)

open Pmtrace
module W = Workloads.Workload
module T = Harness.Table

let params ?(annotate = false) n = W.params ~annotate ~n ()

let run_spec (spec : W.spec) ?annotate n engine = spec.W.run (params ?annotate n) engine

let record_spec (spec : W.spec) ?annotate n = Recorder.record (run_spec spec ?annotate n)

module Tool = Baselines.Tool

(* A fresh sink of a -d detector, for the replay harnesses. *)
let tool_sink ?(model = Pmdebugger.Detector.Strict) tool () =
  Tool.sink ~model ~config:Pmdebugger.Order_config.empty tool

(* [(-d name, sink maker)] for Harness.Timing.measure. *)
let timed ~model tools = List.map (fun tool -> (Tool.name tool, tool_sink ~model tool)) tools

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
      ~detectors:(timed ~model:spec.W.model [ Tool.PMDebugger; Tool.Pmemcheck ])
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
            ~detectors:(timed ~model:spec.W.model [ Tool.PMDebugger; Tool.PMTest; Tool.XFDetector; Tool.Pmemcheck ])
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
  (* Overhead class: words allocated per event replaying a 10K-op b_tree
     trace (deterministic, unlike timed medians), High at twice
     PMDebugger's. Coverage: kinds found on the 78-case dataset (for the
     tools Table 6 evaluates) or on a PMDK bug sampler (for the two
     domain-restricted tools). *)
  let trace = record_spec Workloads.Btree.spec 10_000 in
  let words_per_event mk =
    let sink = mk () in
    let w0 = Gc.minor_words () in
    ignore (Recorder.replay trace sink);
    (Gc.minor_words () -. w0) /. float_of_int (Array.length trace)
  in
  let w_pd = words_per_event (tool_sink ~model:Pmdebugger.Detector.Epoch Tool.PMDebugger) in
  let cls w = if w < 2.0 *. w_pd then "Small" else "High" in
  let cls_of mk = cls (words_per_event mk) in
  let rows =
    [
      [ "PMTest"; cls_of (tool_sink Tool.PMTest); "Low (5 kinds)"; "Any"; "High (asserts)"; "N" ];
      [ "Pmemcheck"; cls_of (tool_sink Tool.Pmemcheck); "Medium (4 kinds)"; "PMDK"; "Low"; "N" ];
      [
        "Persist. Ins.";
        cls_of (fun () -> Baselines.Persistence_inspector.sink (Baselines.Persistence_inspector.create ()));
        "Medium";
        "PMDK";
        "Low";
        "N";
      ];
      [ "Yat"; "High"; "Medium (fsck)"; "PMFS"; "Low"; "N" ];
      [ "XFDetector"; cls_of (tool_sink Tool.XFDetector); "Medium (6 kinds)"; "Any"; "Low"; "N" ];
      [ "PMDebugger"; cls w_pd; "High (10 kinds)"; "Any"; "Low"; "Y" ];
    ]
  in
  T.print
    ~title:
      "Table 1: tool landscape (overhead class from allocated words/event on a 10K-op b_tree trace; coverage from \
       Table 6 / design)"
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
  let header = "kind (cases)" :: List.map (fun r -> Tool.label r.Bugbench.Eval.tool) results in
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
        let t_pd = native +. replay_time (tool_sink Tool.PMDebugger) in
        let t_pc = native +. replay_time (tool_sink Tool.Pmemcheck) in
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
    (List.map
       (fun tool -> [ Tool.label tool; string_of_int (count_findings (tool_sink tool)) ])
       Bugbench.Eval.all_tools);
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
  ]

let () =
  let selected = match List.tl (Array.to_list Sys.argv) with [] -> List.map fst experiments | names -> names in
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
