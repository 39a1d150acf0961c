(* pmdb — command-line front end for the PMDebugger reproduction.

     pmdb run -w b_tree -n 1000                 debug a workload
     pmdb run -w memcached -d pmemcheck -n 500  with another detector
     pmdb run -w b_tree --metrics out.json      with a telemetry snapshot
     pmdb stats -w hashmap_tx -n 1000           run + print the metric table
     pmdb characterize -w hashmap_tx -n 1000    Fig. 2 metrics for one trace
     pmdb bugs                                  run the 78-case dataset
     pmdb list                                  available workloads

   The commands share one pipeline: [source] resolves a bugbench case, a
   trace file or a workload run, [detect] hands the -d detector and a feed
   to Baselines.Tool.detect — the detection path the daemon's pool,
   bugbench and the paper tables share — [print_report] prints the result
   and [with_metrics] writes the telemetry. What stays here is the CLI's
   own: resolving -d, the --trace-out write, the [die] messages and the
   exit codes. *)

open Cmdliner
open Pmtrace
module W = Workloads.Workload

let default_workload = "b_tree"
let default_ops = 1000
let default_heatmap_cap = 1024

(* Session errors share one exit-code convention between offline runs
   and the daemon (see Serve.Status): 0 ok, 2 trace/protocol error,
   3 detector quarantined, 4 evicted, 5 idle timeout, 6 daemon
   shutdown. Errors in the user's input exit 1. *)
let die ?(code = 1) fmt = Printf.ksprintf (fun msg -> Printf.eprintf "error: %s\n" msg; exit code) fmt

(* A file that fails validation: "FILE: why" on stderr, exit 1. *)
let invalid path fmt = Printf.ksprintf (fun why -> Printf.eprintf "%s: %s\n" path why; exit 1) fmt

let warn_skipped file lineno msg = Printf.eprintf "warning: %s:%d: skipped: %s\n" file lineno msg
let warn_truncated file = Printf.eprintf "warning: %s: truncated trace, synthesized program_end\n" file

let detector_error = Serve.Status.exit_code Serve.Status.Detector_error
let exit_for_report report = if report.Bug.failure <> None then exit detector_error

(* A command that talks to a daemon detects with the daemon's own
   configuration: a flag that only a local run honours is an error, not
   silently dropped. Checked before the client connects. *)
let reject_local_only ~what flags =
  match List.find_opt (fun (set, _, _) -> set) flags with
  | Some (_, flag, hint) -> die "%s needs a local %s%s" flag what hint
  | None -> ()

(* Resolve -d up front, so a bad name exits before any work starts. *)
let tool_of name = match Baselines.Tool.of_name name with Ok tool -> tool | Error msg -> die "%s" msg

(* The one detection path: [feed] drives events into an engine carrying
   the -d detector (Baselines.Tool.detect). A detector that raised is
   quarantined — its report carries the failure — instead of killing
   the run.

   [trace_out]: after the run the CLI's phase spans are written there as
   a Perfetto document (Obs.Tracecat), on a "phases" track. *)
let detect ?metrics ?(spans = Obs.Span.disabled) ?heatmap ?trace_out ?(detector = "pmdebugger") model config feed =
  let report = Baselines.Tool.detect ?metrics ~spans ?heatmap ~model ~config (tool_of detector) feed in
  Option.iter
    (fun path ->
      Obs.Json.to_file path (Obs.Tracecat.merge ~spans:(Obs.Span.finished spans) []);
      Printf.printf "phase trace written to %s (open in ui.perfetto.dev)\n" path)
    trace_out;
  report

(* Offline detection over a captured trace (inject, explain, infer,
   heatmap): with no partial report worth printing, a quarantined
   detector is a detector error. *)
let detect_trace ?metrics ?heatmap ?detector model config trace =
  let report = detect ?metrics ?heatmap ?detector model config (fun e -> Array.iter (Engine.emit e) trace) in
  Option.iter (die ~code:detector_error "%s quarantined: %s" report.Bug.detector) report.Bug.failure;
  report

let add_field key value = function
  | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ (key, value) ])
  | other -> other

(* --metrics FILE: every command records into [reg] (enabled only when
   the flag is given, or [metrics_on]) and the snapshot plus the run's
   spans land in FILE as stable JSON — or on stdout when FILE is "-".
   [spans_on] forces span recording without a metrics file (--trace-out
   and timeline need the phases even when no snapshot is written). *)
let with_metrics ?(metrics_on = false) ?(spans_on = false) file f =
  Obs.Clock.set Unix.gettimeofday;
  let metrics_on = metrics_on || file <> None in
  let reg = if metrics_on then Obs.Metrics.create () else Obs.Metrics.disabled in
  let spans = if metrics_on || spans_on then Obs.Span.create () else Obs.Span.disabled in
  let result = f reg spans in
  Option.iter
    (fun path ->
      let json = add_field "spans" (Obs.Span.to_json spans) (Obs.Metrics.to_json reg) in
      if path = "-" then print_endline (Obs.Json.to_string ~indent:true json)
      else begin
        Obs.Json.to_file path json;
        Printf.printf "metrics written to %s\n" path
      end)
    file;
  result

let print_quarantine report = Option.iter (Printf.printf "  QUARANTINED: %s\n") report.Bug.failure

let workload_arg =
  let doc = "Workload to run (see `pmdb list`)." in
  Arg.(value & opt string default_workload & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let n_arg =
  let doc = "Number of operations." in
  Arg.(value & opt int default_ops & info [ "n"; "ops" ] ~docv:"N" ~doc)

let detector_arg =
  let doc = "Detector: pmdebugger, pmemcheck, pmtest, xfdetector or nulgrind." in
  Arg.(value & opt string "pmdebugger" & info [ "d"; "detector" ] ~docv:"TOOL" ~doc)

let config_arg =
  let doc = "Persist-order configuration file (see Pmdebugger.Order_config)." in
  Arg.(value & opt (some file) None & info [ "c"; "config" ] ~docv:"FILE" ~doc)

let annotate_arg =
  let doc = "Emit the PMTest-style annotations the workload carries." in
  Arg.(value & flag & info [ "annotate" ] ~doc)

let max_bugs_arg =
  let doc = "Print at most this many findings." in
  Arg.(value & opt int 25 & info [ "max-print" ] ~docv:"K" ~doc)

(* The one report printer: a header line, the quarantine note, the first
   [max_print] findings and the kind summary, then (for live runs) the
   detector's own stats. *)
let print_report ?(stats = false) ~max_print header report =
  print_endline header;
  print_quarantine report;
  List.iteri (fun i b -> if i < max_print then Format.printf "  %a@." Bug.pp b) report.Bug.bugs;
  let total = List.length report.Bug.bugs in
  if total > max_print then Printf.printf "  ... and %d more\n" (total - max_print);
  Printf.printf "%d finding(s); kinds: %s\n" total
    (String.concat ", " (List.map Bug.kind_name (Bug.kinds_found report)));
  if stats then List.iter (fun (k, v) -> Printf.printf "  stat %-28s %.2f\n" k v) report.Bug.stats

let replayed file report =
  Printf.sprintf "%s replayed %d event(s) from %s" report.Bug.detector report.Bug.events_processed file

let workload_spec name =
  match Workloads.Registry.find name with Some spec -> spec | None -> die "unknown workload %S (see `pmdb list`)" name

let load_config = function
  | None -> Pmdebugger.Order_config.empty
  | Some path -> (
      match Pmdebugger.Order_config.load path with Ok cfg -> cfg | Error msg -> die "config: %s" msg)

(* The one trace source: a bugbench case (its own model, persist-order
   config — -c overrides — and recovery predicate), a trace file (strict
   model: a replay has no live PM state) or a workload run captured with
   its store payloads. Every source ends in program_end: a truncated file
   gets one synthesized and a captured run one appended (every registered
   workload emits its own, so event counts match a plain recording). *)
type source = {
  what : string;
  model : Pmdebugger.Detector.model;
  config : Pmdebugger.Order_config.t;
  steps : Faultinject.Replay.step array;
  recovery : (Pmem.Image.t -> bool) option;
}

let source ?(annotate = false) ?case ?trace ~workload ~n config =
  match (case, trace) with
  | Some _, Some _ -> die "--case and --trace are mutually exclusive"
  | Some id, None -> (
      let all = Bugbench.Cases.buggy @ Bugbench.Cases.clean in
      match List.find_opt (fun (c : Bugbench.Cases.t) -> c.Bugbench.Cases.id = id) all with
      | None -> die "unknown bugbench case %S (see `pmdb bugs`)" id
      | Some c ->
          let config = if config = None then c.Bugbench.Cases.config else load_config config in
          let steps = Faultinject.Replay.capture c.Bugbench.Cases.run in
          { what = id; model = c.Bugbench.Cases.model; config; steps; recovery = c.Bugbench.Cases.recovery })
  | None, Some path -> (
      match Faultinject.Replay.materialize_file path with
      | Error msg -> die "%s" msg
      | Ok (steps, stats) ->
          List.iter (fun (lineno, msg) -> warn_skipped path lineno msg) stats.Trace_io.skipped_lines;
          { what = path; model = Pmdebugger.Detector.Strict; config = load_config config; steps; recovery = None })
  | None, None ->
      let spec = workload_spec workload in
      let config = load_config config in
      let steps = Faultinject.Replay.capture (fun e -> spec.W.run (W.params ~annotate ~n ()) e) in
      { what = workload; model = spec.W.model; config; steps; recovery = None }

let events src = Faultinject.Replay.events_of_steps src.steps

(* A live run: the workload drives the detecting engine directly. [dt]
   times the workload alone, not the finish. *)
let run_workload ?trace_out ~metrics ~spans ~detector ~annotate workload n config =
  let spec = workload_spec workload in
  let dt = ref 0.0 in
  let report =
    detect ~metrics ~spans ?trace_out ~detector spec.W.model (load_config config)
      (fun engine ->
        let t0 = Unix.gettimeofday () in
        Obs.Span.record spans ~attrs:[ ("workload", workload) ] "run" (fun () ->
            spec.W.run (W.params ~annotate ~n ()) engine);
        dt := Unix.gettimeofday () -. t0)
  in
  (report, !dt)

let run_cmd workload n detector config annotate max_print metrics_file trace_out =
  with_metrics ~spans_on:(trace_out <> None) metrics_file (fun metrics spans ->
      let report, dt = run_workload ?trace_out ~metrics ~spans ~detector ~annotate workload n config in
      print_report ~stats:true ~max_print
        (Printf.sprintf "%s on %s (n=%d): %d event(s) in %.3fs" report.Bug.detector workload n
           report.Bug.events_processed dt)
        report;
      report)
  |> exit_for_report

let characterize_cmd workload n json =
  let trace = events (source ~workload ~n None) in
  if json then begin
    (* The JSON report also carries the trace's raw dispatch-latency
       profile (a noop-sink replay): p50/p95/p99 of per-event dispatch,
       the same quantiles the bench reports per tool. *)
    let p = Harness.Timing.dispatch_profile trace (Sink.noop "charz") in
    let dispatch =
      Obs.Json.(
        Obj
          [
            ("p50_s", Float p.Harness.Timing.p50_s);
            ("p95_s", Float p.Harness.Timing.p95_s);
            ("p99_s", Float p.Harness.Timing.p99_s);
            ("samples", Int p.Harness.Timing.samples);
          ])
    in
    let doc = add_field "dispatch" dispatch (Charz.characterization_json trace) in
    print_endline (Obs.Json.to_string doc)
  end
  else begin
    let h = Charz.distance_histogram trace in
    let c = Charz.writeback_classes trace in
    let m = Charz.instruction_mix trace in
    Printf.printf "%s (n=%d): %d events\n" workload n (Array.length trace);
    Printf.printf "  stores %d, writebacks %d, fences %d (store share %.1f%%)\n" m.Charz.stores m.Charz.writebacks
      m.Charz.fences
      (100.0 *. Charz.store_fraction m);
    Printf.printf "  store-to-fence distance: d=1 %.1f%%, d<=3 %.1f%%, never persisted %d\n"
      (100.0 *. Charz.fraction_at_most h 1)
      (100.0 *. Charz.fraction_at_most h 3)
      h.Charz.never_persisted;
    Printf.printf "  CLF intervals: %.1f%% collective (%d collective / %d dispersed)\n"
      (100.0 *. Charz.collective_fraction c)
      c.Charz.collective c.Charz.dispersed
  end

let bugs_cmd metrics_file =
  with_metrics metrics_file (fun metrics spans ->
      let results = Obs.Span.record spans "bugbench" Bugbench.Eval.evaluate_all in
      List.iter
        (fun r ->
          let tool = Baselines.Tool.label r.Bugbench.Eval.tool in
          Obs.Metrics.inc metrics ~labels:[ ("tool", tool) ] ~by:r.Bugbench.Eval.detected_total
            "bugbench_detected_total";
          Obs.Metrics.inc metrics ~labels:[ ("tool", tool) ] ~by:r.Bugbench.Eval.case_total "bugbench_cases_total";
          Printf.printf "%-12s %d/%d detected, %d kinds, FN %.1f%%, false positives %d\n" tool
            r.Bugbench.Eval.detected_total r.Bugbench.Eval.case_total r.Bugbench.Eval.kinds_covered
            (100.0 *. r.Bugbench.Eval.false_negative_rate)
            (List.length r.Bugbench.Eval.false_positives))
        results)

let record_cmd workload n annotate out =
  let spec = workload_spec workload in
  (* Events go to disk as they are emitted: recording never holds the
     trace in memory, so -n can be as large as the disk allows. *)
  let count =
    Trace_io.save_stream out (fun emit ->
        let engine = Engine.create () in
        Engine.attach engine (Sink.make ~name:"save" ~on_event:emit ~finish:(fun () -> Bug.empty_report "save"));
        spec.W.run (W.params ~annotate ~n ()) engine;
        Engine.detach_all engine)
  in
  Printf.printf "recorded %d event(s) from %s (n=%d) to %s\n" count workload n out

let session_name_for file =
  let sane_char = function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-') as c -> c | _ -> '_' in
  let sane = String.map sane_char (Filename.remove_extension (Filename.basename file)) in
  if Serve.Wire.name_ok sane then sane else "session"

(* Replay through a running daemon. stdout is byte-identical to the
   offline replay of the same healthy trace — the CI soak job diffs the
   two — and the frame's status picks the exit code. *)
let replay_daemon_cmd ~socket ~file ~max_print ~lenient =
  match Serve.Client.replay_file ~socket ~name:(session_name_for file) ~lenient file with
  | Error msg -> die "%s" msg
  | Ok frame ->
      (* A strict parse error ends the replay with no report, as it
         does offline: the daemon's partial report and its cut-short
         end are not shown. *)
      let parse_failed = frame.Serve.Wire.status = Serve.Status.Trace_error in
      if not parse_failed then
        Option.iter (fun report -> print_report ~max_print (replayed file report) report) frame.Serve.Wire.report;
      List.iter (fun (lineno, msg) -> warn_skipped file lineno msg) frame.Serve.Wire.skipped_lines;
      let unlisted = frame.Serve.Wire.skipped - List.length frame.Serve.Wire.skipped_lines in
      if unlisted > 0 then Printf.eprintf "warning: %s: %d more malformed line(s) skipped\n" file unlisted;
      if frame.Serve.Wire.synthesized_end && not parse_failed then warn_truncated file;
      let code = Serve.Status.exit_code frame.Serve.Wire.status in
      let error = Option.value frame.Serve.Wire.error ~default:"(no detail)" in
      (* A parse error reads as it does offline: "line N: ...". *)
      if parse_failed then die ~code "%s" error
      else if frame.Serve.Wire.status <> Serve.Status.Ok then
        die ~code "session %s: %s" (Serve.Status.name frame.Serve.Wire.status) error;
      exit code

let replay_cmd file detector config max_print lenient daemon metrics_file trace_out =
  match daemon with
  | Some socket ->
      reject_local_only ~what:"replay"
        [
          (trace_out <> None, "--trace-out", " (the daemon dumps its own via serve --flightrec-dir)");
          (metrics_file <> None, "--metrics", " (read the daemon's telemetry with stats --daemon)");
          (config <> None, "-c/--config", " (pass it to serve -c)");
          (detector <> "pmdebugger", "-d", " (pass it to serve -d)");
        ];
      replay_daemon_cmd ~socket ~file ~max_print ~lenient
  | None ->
      with_metrics ~spans_on:(trace_out <> None) metrics_file (fun metrics spans ->
          (* Replays have no live PM state: the model only gates rule
             selection, so strict covers all shared rules. The trace
             streams straight from disk into the engine — constant memory
             regardless of trace size. *)
          let report =
            detect ~metrics ~spans ?trace_out ~detector Pmdebugger.Detector.Strict
              (load_config config) (fun engine ->
                Obs.Span.record spans ~attrs:[ ("file", file) ] "replay" (fun () ->
                    let streamed =
                      if not lenient then Trace_io.iter_file_strict file ~f:(Engine.emit engine)
                      else
                        Trace_io.iter_file ~metrics ~on_skip:(warn_skipped file) file ~f:(Engine.emit engine)
                        |> Result.map (fun stats -> if stats.Trace_io.synthesized then warn_truncated file)
                    in
                    Result.iter_error (die ~code:(Serve.Status.exit_code Serve.Status.Trace_error) "%s") streamed))
          in
          print_report ~max_print (replayed file report) report;
          report)
      |> exit_for_report

(* ---------------------------------------------------------------- *)
(* crash-explore: replay a program prefix-by-prefix and test every   *)
(* derivable crash image against a recovery predicate.               *)
(* ---------------------------------------------------------------- *)

let crash_explore_cmd case trace workload n expect fences_only max_images bisect metrics_file =
  with_metrics metrics_file @@ fun metrics spans ->
  let module CE = Faultinject.Crash_explore in
  if case = None && expect = None then
    die "need --case ID, or --trace FILE / -w WORKLOAD with --expect PREDICATE";
  if max_images < 1 then die "--max-images must be >= 1";
  if bisect && fences_only then die "--bisect checks every store, CLF and fence; drop --fences-only";
  let parse_expect e =
    match Faultinject.Predicate.parse e with Ok p -> Faultinject.Predicate.recovery p | Error msg -> die "--expect: %s" msg
  in
  let expected = Option.map parse_expect expect in
  let src = source ?case ?trace ~workload ~n None in
  let recovery =
    match (src.recovery, expected) with
    | Some r, _ | None, Some r -> r
    | None, None -> die "case %S has no recovery predicate; pass --expect" src.what
  in
  let what = src.what and steps = src.steps in
  if bisect then begin
    let f =
      Obs.Span.record spans "bisect" (fun () -> CE.minimal_failing_prefix ~max_images ~metrics ~recovery steps)
    in
    match f with
    | None -> Printf.printf "%s: no crash image fails recovery (%d steps explored)\n" what (Array.length steps)
    | Some f ->
        Format.printf "%s: minimal failing prefix ends at event #%d (%a): %d/%d crash image(s) fail recovery@."
          what f.CE.index Faultinject.Replay.pp f.CE.step f.CE.failing_images f.CE.images_checked
  end
  else begin
    let boundaries = if fences_only then CE.Fences_only else CE.Every_op in
    let plan = CE.make_plan ~boundaries ~max_images steps in
    let r = (Obs.Span.record spans "explore" (fun () -> CE.run ~metrics ~recovery plan CE.exhaustive)).CE.result in
    Printf.printf "%s: %d boundar%s checked, %d crash image(s) tested\n" what r.CE.boundaries_checked
      (if r.CE.boundaries_checked = 1 then "y" else "ies")
      r.CE.images_checked;
    List.iter
      (fun (f : CE.failure) ->
        Format.printf "  event #%d (%a): %d/%d image(s) fail recovery@." f.CE.index Faultinject.Replay.pp f.CE.step
          f.CE.failing_images f.CE.images_checked)
      r.CE.failures;
    if r.CE.failures = [] then Printf.printf "  all crash images satisfy recovery\n"
    else Printf.printf "%d failing boundar%s\n" (List.length r.CE.failures)
      (if List.length r.CE.failures = 1 then "y" else "ies")
  end

(* ---------------------------------------------------------------- *)
(* inject: mutate a workload's trace and re-run the detector.        *)
(* ---------------------------------------------------------------- *)

let parse_target s =
  let fail () = die "bad --target %S (expected nth:K, every:K, last, all or random:P)" s in
  match String.split_on_char ':' s with
  | [ "last" ] -> Faultinject.Injector.Last
  | [ "all" ] -> Faultinject.Injector.All
  | [ "nth"; k ] -> (
      match int_of_string_opt k with Some k when k >= 0 -> Faultinject.Injector.Nth k | _ -> fail ())
  | [ "every"; k ] -> (
      match int_of_string_opt k with Some k when k >= 1 -> Faultinject.Injector.Every k | _ -> fail ())
  | [ "random"; p ] -> (
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Faultinject.Injector.Random p
      | _ -> fail ())
  | _ -> fail ()

let print_matrix () =
  let module S = Faultinject.Sensitivity in
  let module I = Faultinject.Injector in
  let rows = S.run_matrix () in
  Printf.printf "%-14s" "workload";
  List.iter (fun f -> Printf.printf " %-16s" (I.fault_name f)) S.core_faults;
  print_newline ();
  List.iter
    (fun (r : S.row) ->
      Printf.printf "%-14s" r.S.workload;
      List.iter
        (fun (c : S.cell) ->
          let mark =
            if c.S.injections = 0 then "no-site"
            else if c.S.detected_by = [] then "MISSED"
            else String.concat "+" (List.map Bug.kind_name c.S.detected_by)
          in
          Printf.printf " %-16s" mark)
        r.S.cells;
      if r.S.baseline_kinds <> [] then Printf.printf "  (baseline dirty!)";
      print_newline ())
    rows;
  Printf.printf "matrix %s\n" (if S.matrix_ok rows then "OK: every fault class detected on every workload" else "FAILED");
  if not (S.matrix_ok rows) then exit 1

let inject_cmd matrix workload n fault target seed detector config max_print metrics_file =
  if matrix then print_matrix ()
  else
    with_metrics metrics_file @@ fun metrics spans ->
    let module I = Faultinject.Injector in
    let fault =
      match I.fault_of_string fault with
      | Some f -> f
      | None ->
          die "unknown --fault %S (expected one of: %s)" fault
            (String.concat ", " (List.map I.fault_name I.all_faults))
    in
    let plan = { I.fault; target = parse_target target; seed } in
    let src = source ~workload ~n config in
    let mutated, injections = I.apply plan src.steps in
    Obs.Metrics.inc metrics ~by:(List.length injections)
      ~labels:[ ("fault", I.fault_name fault) ]
      "inject_injections_total";
    Printf.printf "%s (n=%d): %d step(s), %d injection(s) of %s\n" workload n (Array.length src.steps)
      (List.length injections) (I.fault_name fault);
    List.iter (fun inj -> Format.printf "  %a@." I.pp_injection inj) injections;
    let report =
      Obs.Span.record spans "inject-replay" (fun () ->
          detect_trace ~metrics ~detector src.model src.config (Faultinject.Replay.events_of_steps mutated))
    in
    print_report ~max_print (Printf.sprintf "%s on mutated trace:" report.Bug.detector) report

(* ---------------------------------------------------------------- *)
(* infer: run the invariant-inference pass over a trace and print    *)
(* (or check) the pmdb-invariants/v1 report.                         *)
(* ---------------------------------------------------------------- *)

let infer_cmd case trace workload n config check json_file max_print =
  match check with
  | Some path -> (
      match Obs.Json.of_file path with
      | Error msg -> invalid path "invalid JSON: %s" msg
      | Ok json -> (
          match Infer.Invariant.of_json json with
          | Ok r ->
              Printf.printf "%s: valid %s report (%d invariants over %d events)\n" path Infer.Invariant.schema
                (List.length r.Infer.Invariant.invariants) r.Infer.Invariant.events
          | Error msg -> invalid path "invalid %s report: %s" Infer.Invariant.schema msg))
  | None ->
      let src = source ?case ?trace ~workload ~n config in
      let trace = events src in
      (* The detector pass supplies Bug.t provenance chains — inference
         folds them in as evidence on top of the trace scan. *)
      let report = detect_trace src.model src.config trace in
      let inv = Infer.Analyze.infer ~report trace in
      Printf.printf "%s: %d event(s) (%d stores, %d fences), %d candidate invariant(s)\n" src.what
        inv.Infer.Invariant.events inv.Infer.Invariant.stores inv.Infer.Invariant.fences
        (List.length inv.Infer.Invariant.invariants);
      List.iteri
        (fun i cand ->
          if i < max_print then Format.printf "  %a@." Infer.Invariant.pp cand)
        inv.Infer.Invariant.invariants;
      if List.length inv.Infer.Invariant.invariants > max_print then
        Printf.printf "  ... (%d more)\n" (List.length inv.Infer.Invariant.invariants - max_print);
      match json_file with
      | None -> ()
      | Some path ->
          Obs.Json.to_file path (Infer.Invariant.to_json inv);
          Printf.printf "report -> %s\n" path

(* ---------------------------------------------------------------- *)
(* explain / timeline: pretty-print causal chains or export a        *)
(* Perfetto timeline of a resolved source.                           *)
(* ---------------------------------------------------------------- *)

let explain_cmd case trace workload n config max_print =
  let src = source ?case ?trace ~workload ~n config in
  let trace = events src in
  let report = detect_trace src.model src.config trace in
  Printf.printf "%s: %d event(s), %d finding(s)\n" src.what (Array.length trace)
    (List.length report.Bug.bugs);
  List.iteri
    (fun i b ->
      if i < max_print then begin
        Format.printf "@.%a@." Bug.pp b;
        match b.Bug.chain with
        | [] -> Format.printf "  (no causal history)@."
        | chain ->
            List.iter
              (fun c ->
                let resolved =
                  if c.Bug.c_seq >= 1 && c.Bug.c_seq <= Array.length trace then
                    Format.asprintf "%a" Event.pp trace.(c.Bug.c_seq - 1)
                  else Format.asprintf "<%s event outside this trace>" c.Bug.c_class
                in
                Format.printf "  #%-5d %-26s %s@." c.Bug.c_seq resolved
                  (if c.Bug.c_note = "" then "" else "— " ^ c.Bug.c_note))
              chain
      end)
    report.Bug.bugs;
  let total = List.length report.Bug.bugs in
  if total > max_print then Printf.printf "... and %d more finding(s)\n" (total - max_print)

let timeline_cmd case trace workload n annotate out max_tracks =
  (* Coarse phases (source the trace, build the timeline) overlay the
     per-line tracks as a third process. The line tracks run in virtual
     time (1 event = 1µs) while the spans are wall-clock from 0 — the
     phases read as proportions, not as aligned timestamps. *)
  with_metrics ~spans_on:true None @@ fun _ spans ->
  let src =
    Obs.Span.record spans
      ~attrs:[ ("workload", workload) ]
      (match (case, trace) with Some _, _ -> "case" | None, Some _ -> "load" | None, None -> "record")
      (fun () -> source ~annotate ?case ?trace ~workload ~n None)
  in
  let trace = events src in
  let b = Obs.Span.record spans "build" (fun () -> Harness.Timeline.of_trace ~max_tracks trace) in
  Obs.Perfetto.process_name ~pid:3 b "phases";
  Obs.Span.render ~pid:3 b (Obs.Span.finished spans);
  Obs.Json.to_file out (Obs.Perfetto.to_json b);
  Printf.printf "timeline: %d trace event(s) from %s -> %d timeline event(s) in %s\n"
    (Array.length trace) src.what (Obs.Perfetto.length b) out;
  Printf.printf "open in ui.perfetto.dev (or chrome://tracing)\n"

(* ---------------------------------------------------------------- *)
(* stats: run with telemetry enabled and print the metric table; or  *)
(* validate a previously written JSON report (--check, used by CI);  *)
(* or fetch a running daemon's live metrics (--daemon SOCK).         *)
(* ---------------------------------------------------------------- *)

(* A daemon snapshot is whole-daemon truth: the dispatch domain's
   registry merged with every worker domain's published registry, so
   the per-worker serve_worker_*{domain=..} series appear alongside the
   dispatch-side counters. *)
let print_snapshot ~title ~prometheus snap =
  if prometheus then print_string (Obs.Prometheus.render snap)
  else Harness.Table.print ~title ~header:Obs.Metrics.rows_header (Obs.Metrics.to_rows snap)

let daemon_stats_cmd ~prometheus socket =
  match Serve.Client.stats ~socket with
  | Error msg -> die "%s" msg
  | Ok snap -> print_snapshot ~title:(Printf.sprintf "daemon telemetry: %s" socket) ~prometheus snap

(* --follow: poll the daemon's stats once per stream interval and print
   each merged snapshot (--frames N stops after N; 0 follows until the
   daemon goes away). *)
let daemon_follow_cmd ~socket ~frames ~prometheus =
  let seen = ref 0 in
  match
    Serve.Client.stats_follow ~socket ~frames
      ~on_frame:(fun snap ->
        incr seen;
        print_snapshot
          ~title:(Printf.sprintf "daemon telemetry: %s (frame %d)" socket !seen)
          ~prometheus snap;
        flush stdout;
        true)
      ()
  with
  | Ok n -> Printf.printf "stream closed after %d frame(s)\n" n
  | Error msg -> die "%s" msg

let check_prometheus_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  | text -> (
      match Obs.Prometheus.validate text with
      | Ok n -> Printf.printf "%s: valid Prometheus text exposition (%d samples)\n" path n
      | Error msg -> invalid path "invalid Prometheus exposition: %s" msg)

let check_report_file path =
  match Obs.Json.of_file path with
  | Error msg -> invalid path "invalid JSON: %s" msg
  | Ok json when Obs.Json.member "traceEvents" json <> None -> (
      (* A Perfetto/Chrome trace-event document (pmdb timeline,
         --trace-out, the daemon's flight-recorder dumps) — structural check. *)
      match Obs.Perfetto.validate_json json with
      | Ok n -> Printf.printf "%s: valid trace-event document (%d events)\n" path n
      | Error msg -> invalid path "invalid trace-event document: %s" msg)
  | Ok json -> (
      match Obs.Json.member "schema" json with
      | Some (Obs.Json.Str "pmdb-metrics/v1") -> (
          match Obs.Metrics.validate_json json with
          | Ok n -> Printf.printf "%s: valid pmdb-metrics/v1 report (%d series)\n" path n
          | Error msg -> invalid path "invalid pmdb-metrics/v1 report: %s" msg)
      | Some (Obs.Json.Str "pmdb-invariants/v1") -> (
          match Infer.Invariant.of_json json with
          | Ok r ->
              Printf.printf "%s: valid pmdb-invariants/v1 report (%d invariants)\n" path
                (List.length r.Infer.Invariant.invariants)
          | Error msg -> invalid path "invalid pmdb-invariants/v1 report: %s" msg)
      | Some (Obs.Json.Str "pmdb-flightrec/v1") -> (
          match Obs.Flightrec.validate_json json with
          | Ok n -> Printf.printf "%s: valid pmdb-flightrec/v1 dump (%d entries)\n" path n
          | Error msg -> invalid path "invalid pmdb-flightrec/v1 dump: %s" msg)
      | Some (Obs.Json.Str "pmdb-charz/v1") -> (
          match Obs.Json.member "events" json with
          | Some (Obs.Json.Int n) -> Printf.printf "%s: valid pmdb-charz/v1 report (%d events)\n" path n
          | _ -> invalid path "invalid pmdb-charz/v1 report: missing integer \"events\"")
      | Some (Obs.Json.Str other) -> invalid path "unknown schema %S" other
      | _ -> invalid path "missing \"schema\" field")

(* --diff reads two pmdb-metrics/v1 snapshots. *)
let load_snapshot path =
  match Obs.Json.of_file path with
  | Error msg -> invalid path "invalid JSON: %s" msg
  | Ok json -> (
      match Obs.Metrics.snapshot_of_json json with
      | Ok snap -> snap
      | Error msg -> invalid path "%s" msg)

let diff_cmd files check_regressions threshold gauge_threshold =
  match files with
  | [ a; b ] ->
      let before = load_snapshot a and after = load_snapshot b in
      let d = Obs.Diff.compute ~before ~after in
      if Obs.Diff.is_empty d then Printf.printf "%s -> %s: no metric changes\n" a b
      else
        Harness.Table.print
          ~title:(Printf.sprintf "metrics diff: %s -> %s" a b)
          ~header:Obs.Diff.rows_header (Obs.Diff.to_rows d);
      if check_regressions then begin
        let gate_desc =
          Printf.sprintf "counter threshold %+.1f%%%s" (100.0 *. threshold)
            (match gauge_threshold with
            | None -> ""
            | Some g -> Printf.sprintf ", gauge threshold %+.1f%%" (100.0 *. g))
        in
        match Obs.Diff.regressions ~threshold ?gauge_threshold d with
        | [] -> Printf.printf "no regressions (%s)\n" gate_desc
        | regs ->
            Printf.printf "%d regression(s) over %s:\n" (List.length regs) gate_desc;
            List.iter (fun c -> Format.printf "  %a@." Obs.Diff.pp_change c) regs;
            exit 1
      end
  | _ -> die "--diff takes exactly two metrics files: pmdb stats --diff A.json B.json"

let stats_cmd workload n detector config check check_prometheus diff files check_regressions threshold
    gauge_threshold json_file daemon follow frames prometheus =
  match (daemon, check_prometheus, check) with
  | Some socket, _, _ ->
      reject_local_only ~what:"run"
        [
          (workload <> default_workload, "-w", "");
          (n <> default_ops, "-n", "");
          (detector <> "pmdebugger", "-d", " (pass it to serve -d)");
          (config <> None, "-c/--config", " (pass it to serve -c)");
          (json_file <> None, "--json", "");
        ];
      if follow || frames > 0 then daemon_follow_cmd ~socket ~frames ~prometheus
      else daemon_stats_cmd ~prometheus socket
  | None, _, _ when follow || frames > 0 -> die "--follow/--frames requires --daemon SOCK"
  | None, _, _ when diff -> diff_cmd files check_regressions threshold gauge_threshold
  | None, Some path, _ -> check_prometheus_file path
  | None, None, Some path -> check_report_file path
  | None, None, None ->
      with_metrics ~metrics_on:true json_file (fun metrics spans ->
          let report, _dt = run_workload ~metrics ~spans ~detector ~annotate:false workload n config in
          Printf.printf "%s on %s (n=%d): %d event(s), %d finding(s)\n" report.Bug.detector workload n
            report.Bug.events_processed
            (List.length report.Bug.bugs);
          print_quarantine report;
          print_snapshot ~title:(Printf.sprintf "telemetry: %s -w %s -n %d" detector workload n) ~prometheus
            (Obs.Metrics.snapshot metrics))

let serve_cmd socket workers idle_timeout session_budget max_sessions detector config
    metrics_file flightrec_dir heatmap_cap stop probe =
  if stop then (
    match Serve.Client.stop ~socket with
    | Ok () -> Printf.printf "daemon at %s stopped\n" socket
    | Error msg -> die "%s" msg)
  else
    match probe with
    | Some kind -> (
        let kind =
          match kind with
          | "garbage" -> Serve.Client.Garbage
          | "hang" -> Serve.Client.Hang
          | other -> die "unknown --probe %S (expected garbage or hang)" other
        in
        match Serve.Client.probe ~socket ~name:(Printf.sprintf "probe-%d" (Unix.getpid ())) kind with
        | Error msg -> die "%s" msg
        | Ok frame ->
            Printf.printf "probe answered: status %s%s\n"
              (Serve.Status.name frame.Serve.Wire.status)
              (match frame.Serve.Wire.error with None -> "" | Some e -> Printf.sprintf " (%s)" e);
            exit (Serve.Status.exit_code frame.Serve.Wire.status))
    | None ->
        if workers < 1 then die "--workers must be >= 1";
        let config = load_config config in
        (* Telemetry is always on for the daemon: the dispatch domain
           and every worker domain record into their own registries,
           and each stats reply merges them — `pmdb stats --daemon`
           reports whole-daemon truth, worker series included. *)
        let metrics = Obs.Metrics.create () in
        Obs.Clock.set Unix.gettimeofday;
        let cfg =
          {
            (Serve.Daemon.default_config ~socket) with
            Serve.Daemon.workers;
            idle_timeout;
            session_budget;
            max_sessions;
            metrics_file;
            flightrec_dir;
            heatmap_cap;
          }
        in
        (* Per-session registries stay disabled: the daemon's merged
           telemetry comes from the dispatch/worker registries. *)
        let tool = tool_of detector in
        let make_sink ~heatmap = Baselines.Tool.sink ~heatmap ~model:Pmdebugger.Detector.Strict ~config tool in
        let daemon =
          try Serve.Daemon.create ~metrics ~make_sink cfg with Invalid_argument msg -> die "%s" msg
        in
        Serve.Daemon.install_signal_handlers daemon;
        Printf.printf "pmdb serve: listening on %s (workers=%d, budget=%d bytes, idle-timeout=%.1fs)\n%!" socket
          workers session_budget idle_timeout;
        Option.iter
          (fun path ->
            Printf.printf "pmdb serve: Prometheus exposition -> %s (every %.1fs)\n%!" path Serve.Daemon.stream_interval)
          metrics_file;
        Option.iter (Printf.printf "pmdb serve: flight-recorder dumps -> %s\n%!") flightrec_dir;
        if heatmap_cap > 0 then
          Printf.printf "pmdb serve: hot-line heatmap on (cap %d lines/worker; query with `pmdb heatmap --daemon %s`)\n%!"
            heatmap_cap socket;
        Serve.Daemon.run daemon;
        Printf.printf "pmdb serve: stopped\n"

(* ---------------------------------------------------------------- *)
(* heatmap: the hot-line table, from a local run or a live daemon;   *)
(* top: the refreshing dashboard over the daemon's polled stats.      *)
(* ---------------------------------------------------------------- *)

let line_bytes = 64

let print_heatmap ~what ~daemon ~top ~json (snap : Obs.Heatmap.snapshot) =
  let snap = { snap with Obs.Heatmap.s_rows = List.filteri (fun i _ -> i < top) snap.Obs.Heatmap.s_rows } in
  if json then print_endline (Obs.Json.to_string ~indent:true (Obs.Heatmap.snapshot_to_json snap))
  else if snap.Obs.Heatmap.s_rows = [] then
    Printf.printf "no lines tracked for %s%s\n" what
      (if daemon then " (daemon started without --heatmap-cap, or no PM traffic yet)" else "")
  else
    Harness.Table.print
      ~title:
        (Printf.sprintf "hot lines: %s (%d tracked%s)" what snap.Obs.Heatmap.s_tracked
           (if snap.Obs.Heatmap.s_dropped > 0 then
              Printf.sprintf ", %d event(s) on lines past the cap" snap.Obs.Heatmap.s_dropped
            else ""))
      ~header:[ "line"; "variable"; "stores"; "clfs"; "bugs"; "dirty seqs" ]
      (List.map
         (fun (r : Obs.Heatmap.row) ->
           [
             Printf.sprintf "0x%x" (r.Obs.Heatmap.r_line * line_bytes);
             (match r.Obs.Heatmap.r_name with Some n -> n | None -> "");
             string_of_int r.Obs.Heatmap.r_stores;
             string_of_int r.Obs.Heatmap.r_clfs;
             string_of_int r.Obs.Heatmap.r_bugs;
             string_of_int r.Obs.Heatmap.r_dirty;
           ])
         snap.Obs.Heatmap.s_rows)

let heatmap_cmd case trace workload n config cap top json daemon =
  if top < 1 then die "--top must be >= 1";
  match daemon with
  | Some socket -> (
      reject_local_only ~what:"run"
        [
          (case <> None, "--case", "");
          (trace <> None, "--trace", "");
          (workload <> default_workload, "-w", "");
          (n <> default_ops, "-n", "");
          (config <> None, "-c/--config", " (pass it to serve -c)");
          (cap <> default_heatmap_cap, "--cap", " (pass --heatmap-cap to serve)");
        ];
      (* The daemon's merged per-worker tables, over the wire. *)
      match Serve.Client.heatmap ~socket with
      | Error msg -> die "%s" msg
      | Ok snap -> print_heatmap ~what:socket ~daemon:true ~top ~json snap)
  | None ->
      (* Annotations on: Register_var events give the hot lines names. *)
      if cap < 1 then die "--cap must be >= 1";
      let src = source ~annotate:true ?case ?trace ~workload ~n config in
      let heatmap = Obs.Heatmap.create ~cap () in
      ignore (detect_trace ~heatmap src.model src.config (events src));
      print_heatmap ~what:src.what ~daemon:false ~top ~json (Obs.Heatmap.snapshot heatmap)

let top_cmd socket once =
  (* --once fetches exactly one stats snapshot (CI smoke and
     scripting); otherwise poll once per stream interval, clear +
     redraw per snapshot when stdout is a terminal. *)
  let frames = if once then 1 else 0 in
  let interactive = (not once) && Unix.isatty Unix.stdout in
  let prev = ref None in
  let last = ref (Unix.gettimeofday ()) in
  match
    Serve.Client.stats_follow ~socket ~frames
      ~on_frame:(fun snap ->
        let t = Unix.gettimeofday () in
        let dt = t -. !last in
        last := t;
        if interactive then print_string "\027[2J\027[H";
        print_string (Harness.Top.render ~prev:!prev ~cur:snap ~dt);
        flush stdout;
        prev := Some snap;
        true)
      ()
  with
  | Ok n -> if not interactive then Printf.printf "stream closed after %d frame(s)\n" n
  | Error msg -> die "%s" msg

let list_cmd () =
  List.iter
    (fun (spec : W.spec) ->
      let model =
        match spec.W.model with
        | Pmdebugger.Detector.Strict -> "strict"
        | Pmdebugger.Detector.Epoch -> "epoch"
        | Pmdebugger.Detector.Strand -> "strand"
      in
      Printf.printf "%-16s %-7s %s\n" spec.W.name model spec.W.description)
    Workloads.Registry.all

let metrics_arg =
  let doc = "Write a pmdb-metrics/v1 JSON telemetry snapshot (metric series + spans) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write a Perfetto trace of the run's coarse phase spans to $(docv). Open in ui.perfetto.dev; validate with \
     `pmdb stats --check`."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let run_term =
  Term.(
    const run_cmd $ workload_arg $ n_arg $ detector_arg $ config_arg $ annotate_arg $ max_bugs_arg $ metrics_arg
    $ trace_out_arg)

let out_arg =
  let doc = "Output trace file." in
  Arg.(value & opt string "trace.pmt" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_file_arg =
  let doc = "Trace file to replay (as produced by `pmdb record`)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let record_term = Term.(const record_cmd $ workload_arg $ n_arg $ annotate_arg $ out_arg)

let lenient_arg =
  let doc = "Skip malformed trace lines (with a warning each) and synthesize a program_end for truncated traces." in
  Arg.(value & flag & info [ "lenient" ] ~doc)

let daemon_arg =
  let doc = "Stream the trace to the `pmdb serve` daemon at $(docv) instead of detecting in-process." in
  Arg.(value & opt (some string) None & info [ "daemon" ] ~docv:"SOCK" ~doc)

let replay_term =
  Term.(
    const replay_cmd $ trace_file_arg $ detector_arg $ config_arg $ max_bugs_arg $ lenient_arg $ daemon_arg
    $ metrics_arg $ trace_out_arg)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(value & opt string "pmdb.sock" & info [ "s"; "socket" ] ~docv:"SOCK" ~doc)

let workers_arg =
  let doc = "Worker domains detection is multiplexed over." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let idle_timeout_arg =
  let doc = "Seconds of client silence before a session is reaped with a partial report (0 disables)." in
  Arg.(value & opt float 30.0 & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)

let session_budget_arg =
  let doc =
    "Bytes a session may have read and not yet decoded before its socket is paused, and may hold on its worker \
     (one unterminated line, skipped-line messages) before it is evicted with a partial report."
  in
  Arg.(value & opt int (8 * 1024 * 1024) & info [ "session-budget" ] ~docv:"BYTES" ~doc)

let max_sessions_arg =
  let doc = "Concurrent connection cap." in
  Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N" ~doc)

let metrics_file_arg =
  let doc =
    "Write a Prometheus text-format exposition of the daemon's merged telemetry to $(docv) atomically once a \
     second (scrape it with a node_exporter textfile collector, or validate with `pmdb stats --check-prometheus`)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"FILE" ~doc)

let flightrec_dir_arg =
  let doc =
    "Directory for flight-recorder black-box dumps: on a session quarantine, an eviction, SIGQUIT and at shutdown \
     the daemon writes the last events of every ring there as JSON and as one Perfetto trace merging the dispatch \
     domain's and every worker's ring onto one time base."
  in
  Arg.(value & opt (some string) None & info [ "flightrec-dir" ] ~docv:"DIR" ~doc)

let heatmap_cap_arg =
  let doc =
    "Track the $(docv) hottest cache lines per worker (traffic, dirty virtual time, bug density); query the merged \
     table with `pmdb heatmap --daemon`. 0 (the default) disables tracking — the per-event cost is one branch."
  in
  Arg.(value & opt int 0 & info [ "heatmap-cap" ] ~docv:"LINES" ~doc)

let serve_stop_arg =
  let doc = "Ask the daemon at --socket to shut down gracefully, then exit." in
  Arg.(value & flag & info [ "stop" ] ~doc)

let probe_arg =
  let doc =
    "Act as a deliberately misbehaving client against the daemon at --socket: 'garbage' streams unparseable lines, \
     'hang' opens a session and goes silent (CI uses both to check fault isolation)."
  in
  Arg.(value & opt (some string) None & info [ "probe" ] ~docv:"KIND" ~doc)

let serve_term =
  Term.(
    const serve_cmd $ socket_arg $ workers_arg $ idle_timeout_arg $ session_budget_arg
    $ max_sessions_arg $ detector_arg $ config_arg $ metrics_file_arg
    $ flightrec_dir_arg $ heatmap_cap_arg $ serve_stop_arg $ probe_arg)

let case_arg =
  let doc = "Explore a bugbench case by id instead of a workload." in
  Arg.(value & opt (some string) None & info [ "case" ] ~docv:"ID" ~doc)

let expect_arg =
  let doc =
    "Recovery predicate for the workload: comma-separated clauses, e.g. 'i64@0=1', 'nonzero@64', 'le@8<=16', \
     'ifset@0=>64'."
  in
  Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"PRED" ~doc)

let fences_only_arg =
  let doc = "Check crash images only at fences (the legacy sampling) instead of every store/CLF/fence." in
  Arg.(value & flag & info [ "fences-only" ] ~doc)

let max_images_arg =
  let doc = "Crash images sampled per boundary." in
  Arg.(value & opt int 64 & info [ "max-images" ] ~docv:"K" ~doc)

let bisect_arg =
  let doc =
    "Report only the minimal failing prefix: the first failing boundary of the exhaustive every-op scan (not \
     combinable with --fences-only)."
  in
  Arg.(value & flag & info [ "bisect" ] ~doc)

let explore_trace_arg =
  let doc =
    "Explore a recorded trace file (as produced by `pmdb record`) instead of a workload; requires --expect. Stores \
     replay with a synthetic fill, since the on-disk format carries no payloads."
  in
  Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc)

let crash_explore_term =
  Term.(
    const crash_explore_cmd $ case_arg $ explore_trace_arg $ workload_arg $ n_arg $ expect_arg $ fences_only_arg
    $ max_images_arg $ bisect_arg $ metrics_arg)

let fault_arg =
  let doc = "Fault class: drop-clf, drop-fence, torn-store, duplicate-flush or evict-line." in
  Arg.(value & opt string "drop-clf" & info [ "fault" ] ~docv:"FAULT" ~doc)

let target_arg =
  let doc = "Which candidate site(s) to mutate: nth:K, every:K, last, all or random:P." in
  Arg.(value & opt string "nth:0" & info [ "target" ] ~docv:"TARGET" ~doc)

let seed_arg =
  let doc = "Seed for random targeting (the plan is deterministic in it)." in
  Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"SEED" ~doc)

let matrix_arg =
  let doc = "Run the detector sensitivity matrix (every fault class on every clean workload) and exit." in
  Arg.(value & flag & info [ "matrix" ] ~doc)

let inject_term =
  Term.(
    const inject_cmd $ matrix_arg $ workload_arg $ n_arg $ fault_arg $ target_arg $ seed_arg $ detector_arg
    $ config_arg $ max_bugs_arg $ metrics_arg)

let charz_json_arg =
  let doc = "Print the characterization as a pmdb-charz/v1 JSON report instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let characterize_term = Term.(const characterize_cmd $ workload_arg $ n_arg $ charz_json_arg)

let bugs_term = Term.(const bugs_cmd $ metrics_arg)

let check_arg =
  let doc =
    "Validate a JSON report written by --metrics, --trace-out, timeline, characterize --json or infer --json (exit \
     1 if invalid)."
  in
  Arg.(value & opt (some file) None & info [ "check" ] ~docv:"FILE" ~doc)

let stats_json_arg =
  let doc = "Also write the telemetry snapshot to $(docv) as pmdb-metrics/v1 JSON." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let diff_flag_arg =
  let doc = "Diff two pmdb-metrics/v1 files given as positional arguments." in
  Arg.(value & flag & info [ "diff" ] ~doc)

let diff_files_arg =
  let doc = "Metrics files for --diff (before, after)." in
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)

let check_regressions_arg =
  let doc = "Exit 1 when a counter grew by more than --threshold between the two --diff files (the CI gate)." in
  Arg.(value & flag & info [ "check-regressions" ] ~doc)

let threshold_arg =
  let doc = "Relative counter-growth tolerance for --check-regressions (0.05 = 5%)." in
  Arg.(value & opt float 0.0 & info [ "threshold" ] ~docv:"REL" ~doc)

let gauge_threshold_arg =
  let doc =
    "Also gate gauges in --check-regressions: fail when a gauge grew by more than this relative threshold \
     (gauges never gate without this flag — most are timing-dependent; use it for deterministic capacity \
     peaks)."
  in
  Arg.(value & opt (some float) None & info [ "gauge-threshold" ] ~docv:"REL" ~doc)

let check_prometheus_arg =
  let doc = "Validate a Prometheus text exposition written by `pmdb serve --metrics-file` (exit 1 if invalid)." in
  Arg.(value & opt (some file) None & info [ "check-prometheus" ] ~docv:"FILE" ~doc)

let follow_arg =
  let doc = "With --daemon: poll the daemon's stats once a second and print each merged snapshot." in
  Arg.(value & flag & info [ "follow" ] ~doc)

let frames_arg =
  let doc = "With --daemon: stop following after $(docv) frames (0 = until the daemon goes away); implies --follow." in
  Arg.(value & opt int 0 & info [ "frames" ] ~docv:"N" ~doc)

let prometheus_arg =
  let doc = "Print snapshots in Prometheus text exposition format instead of the metric table." in
  Arg.(value & flag & info [ "prometheus" ] ~doc)

let stats_term =
  Term.(
    const stats_cmd $ workload_arg $ n_arg $ detector_arg $ config_arg $ check_arg $ check_prometheus_arg
    $ diff_flag_arg $ diff_files_arg $ check_regressions_arg $ threshold_arg $ gauge_threshold_arg $ stats_json_arg
    $ daemon_arg $ follow_arg $ frames_arg $ prometheus_arg)

let src_trace_arg =
  let doc = "Use a recorded trace file (as produced by `pmdb record`) instead of a workload." in
  Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc)

let explain_term =
  Term.(
    const explain_cmd $ case_arg $ src_trace_arg $ workload_arg $ n_arg $ config_arg $ max_bugs_arg)

let infer_check_arg =
  let doc = "Validate a pmdb-invariants/v1 JSON report and exit (exit 1 if invalid)." in
  Arg.(value & opt (some file) None & info [ "check" ] ~docv:"FILE" ~doc)

let infer_json_arg =
  let doc = "Also write the invariant report to $(docv) as pmdb-invariants/v1 JSON." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let infer_max_print_arg =
  let doc = "Print at most $(docv) invariants." in
  Arg.(value & opt int 20 & info [ "max-print" ] ~docv:"K" ~doc)

let infer_term =
  Term.(
    const infer_cmd $ case_arg $ src_trace_arg $ workload_arg $ n_arg $ config_arg $ infer_check_arg
    $ infer_json_arg $ infer_max_print_arg)

let timeline_out_arg =
  let doc = "Output Perfetto/Chrome trace-event JSON file." in
  Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let max_tracks_arg =
  let doc = "Cap on per-cache-line persistency tracks." in
  Arg.(value & opt int 64 & info [ "max-tracks" ] ~docv:"K" ~doc)

let timeline_term =
  Term.(
    const timeline_cmd $ case_arg $ src_trace_arg $ workload_arg $ n_arg $ annotate_arg
    $ timeline_out_arg $ max_tracks_arg)

let heatmap_local_cap_arg =
  let doc = "Hottest-line table capacity for a local (non --daemon) run." in
  Arg.(value & opt int default_heatmap_cap & info [ "cap" ] ~docv:"LINES" ~doc)

let heatmap_top_arg =
  let doc = "Print only the $(docv) hottest lines." in
  Arg.(value & opt int 20 & info [ "top" ] ~docv:"K" ~doc)

let heatmap_json_arg =
  let doc = "Print the table as a pmdb-heatmap/v1 JSON document instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let heatmap_term =
  Term.(
    const heatmap_cmd $ case_arg $ src_trace_arg $ workload_arg $ n_arg $ config_arg $ heatmap_local_cap_arg
    $ heatmap_top_arg $ heatmap_json_arg $ daemon_arg)

let once_arg =
  let doc = "Print one dashboard frame and exit (CI smoke and scripting)." in
  Arg.(value & flag & info [ "once" ] ~doc)

let top_term = Term.(const top_cmd $ socket_arg $ once_arg)

let list_term = Term.(const list_cmd $ const ())

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Debug a workload with a detector") run_term;
    Cmd.v (Cmd.info "characterize" ~doc:"Print the Sec. 3 pattern metrics for a workload trace") characterize_term;
    Cmd.v (Cmd.info "bugs" ~doc:"Run the 78-case bug dataset against all four detectors") bugs_term;
    Cmd.v (Cmd.info "record" ~doc:"Record a workload's event trace to a file") record_term;
    Cmd.v (Cmd.info "replay" ~doc:"Replay a recorded trace into a detector") replay_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Run the multi-session detection daemon on a Unix socket (or --stop / --probe a running one)")
      serve_term;
    Cmd.v
      (Cmd.info "crash-explore" ~doc:"Test recovery against every derivable crash image of a trace")
      crash_explore_term;
    Cmd.v (Cmd.info "inject" ~doc:"Mutate a workload trace with a fault and re-run the detector") inject_term;
    Cmd.v
      (Cmd.info "infer"
         ~doc:"Infer ordering/atomicity/durability invariants from a trace (prints or checks pmdb-invariants/v1)")
      infer_term;
    Cmd.v
      (Cmd.info "explain" ~doc:"Pretty-print each finding's causal chain, resolved against its trace")
      explain_term;
    Cmd.v
      (Cmd.info "timeline" ~doc:"Export a trace as Perfetto/Chrome trace-event JSON (ui.perfetto.dev)")
      timeline_term;
    Cmd.v (Cmd.info "stats" ~doc:"Run with telemetry enabled and print the metric table, --check a JSON report, or --diff two of them") stats_term;
    Cmd.v
      (Cmd.info "heatmap"
         ~doc:"Print the hottest cache lines (traffic, dirty time, bug density) of a run or a live daemon")
      heatmap_term;
    Cmd.v (Cmd.info "top" ~doc:"Live dashboard over a running daemon's stats, polled once a second (throughput, latency, sessions)") top_term;
    Cmd.v (Cmd.info "list" ~doc:"List available workloads") list_term;
  ]

let () =
  let doc = "PMDebugger reproduction: crash-consistency bug detection for PM programs" in
  exit (Cmd.eval (Cmd.group (Cmd.info "pmdb" ~version:"1.0" ~doc) cmds))
