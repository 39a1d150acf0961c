open Pmtrace

let sample_trace () =
  Recorder.record (fun e ->
      Engine.register_pmem e ~base:0 ~size:4096;
      Engine.register_var e ~name:"head ptr" ~addr:0 ~size:8;
      Engine.call_marker e ~func:"main";
      Engine.epoch_begin e;
      Engine.store_i64 e ~addr:128 1L;
      Engine.tx_log e ~obj_addr:128 ~size:8;
      Engine.clflushopt e ~addr:128;
      Engine.sfence e;
      Engine.epoch_end e;
      Engine.strand_begin e ~strand:2;
      Engine.store_i64 e ~addr:256 2L;
      Engine.persist e ~addr:256 ~size:8;
      Engine.strand_end e ~strand:2;
      Engine.join_strand e;
      Engine.annotate e (Event.Assert_durable { addr = 128; size = 8 });
      Engine.annotate e (Event.Assert_ordered { first_addr = 128; first_size = 8; then_addr = 256; then_size = 8 });
      Engine.annotate e (Event.Assert_fresh { addr = 512; size = 8 });
      Engine.program_end e)

let test_roundtrip () =
  let trace = sample_trace () in
  match Trace_io.of_string (Trace_io.to_string trace) with
  | Error msg -> Alcotest.fail msg
  | Ok decoded ->
      Alcotest.(check int) "same length" (Array.length trace) (Array.length decoded);
      Array.iteri
        (fun i ev ->
          Alcotest.(check string)
            (Printf.sprintf "event %d" i)
            (Trace_io.event_to_line ev)
            (Trace_io.event_to_line decoded.(i)))
        trace

let test_comments_and_blanks () =
  match Trace_io.of_string "# a comment\n\nstore 0 128 8\n  \nfence 0\n" with
  | Ok trace -> Alcotest.(check int) "two events" 2 (Array.length trace)
  | Error msg -> Alcotest.fail msg

let test_malformed () =
  (match Trace_io.of_string "store 0 oops 8\n" with
  | Error msg -> Alcotest.(check bool) "line number in error" true (String.length msg > 0 && String.sub msg 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "expected parse error");
  match Trace_io.of_string "bogus_event 1 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_file_roundtrip () =
  let trace = sample_trace () in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Trace_io.save path trace;
  (match Trace_io.load path with
  | Ok decoded -> Alcotest.(check int) "file roundtrip" (Array.length trace) (Array.length decoded)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_replay_of_decoded_trace () =
  (* A decoded trace must drive a detector identically to the original. *)
  let trace =
    Recorder.record (fun e ->
        Engine.register_pmem e ~base:0 ~size:4096;
        Engine.store_i64 e ~addr:128 1L;
        Engine.clwb e ~addr:128;
        Engine.clwb e ~addr:128;
        Engine.sfence e;
        Engine.store_i64 e ~addr:512 1L;
        Engine.program_end e)
  in
  let decoded = match Trace_io.of_string (Trace_io.to_string trace) with Ok t -> t | Error m -> Alcotest.fail m in
  let report trace = Recorder.replay trace (Pmdebugger.Detector.sink (Pmdebugger.Detector.create ())) in
  let summary r = List.map (fun (b : Bug.t) -> (Bug.kind_name b.Bug.kind, b.Bug.addr)) r.Bug.bugs in
  Alcotest.(check (list (pair string int))) "identical findings" (summary (report trace)) (summary (report decoded))

(* Exhaustive over the Event type: every one of the 14 constructors,
   every clf kind and every annotation shape. Names are drawn from
   identifier-like strings (the line format is space-separated). *)
let prop_event_roundtrip =
  let event_gen =
    QCheck.Gen.(
      let* tag = int_range 0 13 in
      let* addr = int_range 0 100_000 in
      let* size = int_range 1 256 in
      let* tid = int_range 0 7 in
      let* strand = int_range 0 15 in
      let* kind = oneofl [ Event.Clwb; Event.Clflush; Event.Clflushopt ] in
      (* Multi-word names exercise the String.concat joins in the parser
         (the line format is space-separated, name comes last). *)
      let* name = oneofl [ "main"; "item_set_cas"; "do_slabs_free"; "x"; "head_ptr_1"; "head ptr"; "do slabs free" ] in
      let* ann =
        oneofl
          [
            Event.Assert_durable { addr; size };
            Event.Assert_ordered { first_addr = addr; first_size = size; then_addr = addr + size; then_size = size };
            Event.Assert_fresh { addr; size };
          ]
      in
      return
        (match tag with
        | 0 -> Event.Store { addr; size; tid }
        | 1 -> Event.Clf { addr; size; kind; tid }
        | 2 -> Event.Fence { tid }
        | 3 -> Event.Register_pmem { base = addr; size }
        | 4 -> Event.Epoch_begin { tid }
        | 5 -> Event.Epoch_end { tid }
        | 6 -> Event.Strand_begin { tid; strand }
        | 7 -> Event.Strand_end { tid; strand }
        | 8 -> Event.Join_strand { tid }
        | 9 -> Event.Tx_log { obj_addr = addr; size; tid }
        | 10 -> Event.Register_var { name; addr; size }
        | 11 -> Event.Call { func = name; tid }
        | 12 -> Event.Annotation ann
        | _ -> Event.Program_end))
  in
  QCheck.Test.make ~name:"event line roundtrip (all constructors)" ~count:1000 (QCheck.make event_gen) (fun ev ->
      match Trace_io.event_of_line (Trace_io.event_to_line ev) with
      | Ok (Some ev') -> Trace_io.event_to_line ev = Trace_io.event_to_line ev'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Lenient parsing.                                                    *)
(* ------------------------------------------------------------------ *)

let test_lenient_skips_malformed () =
  let text = "store 0 128 8\nnot an event\nfence 0\nstore 0 oops 8\nprogram_end\n" in
  let l = Trace_io.of_string_lenient text in
  Alcotest.(check int) "parsed events" 3 (Array.length l.Trace_io.trace);
  Alcotest.(check (list int)) "skipped line numbers" [ 2; 4 ] (List.map fst l.Trace_io.skipped);
  Alcotest.(check bool) "no synthesized end (explicit program_end)" false l.Trace_io.synthesized_end

let test_lenient_synthesizes_end () =
  let l = Trace_io.of_string_lenient "store 0 128 8\nfence 0\n" in
  Alcotest.(check bool) "synthesized" true l.Trace_io.synthesized_end;
  Alcotest.(check int) "end appended" 3 (Array.length l.Trace_io.trace);
  Alcotest.(check bool) "last is program_end" true (l.Trace_io.trace.(2) = Event.Program_end)

let test_lenient_strict_agree_on_clean_input () =
  let text = Trace_io.to_string (sample_trace ()) in
  match Trace_io.of_string text with
  | Error _ -> Alcotest.fail "strict parser must accept clean input"
  | Ok strict ->
      let l = Trace_io.of_string_lenient text in
      Alcotest.(check bool) "same trace" true (strict = l.Trace_io.trace);
      Alcotest.(check int) "nothing skipped" 0 (List.length l.Trace_io.skipped)

let test_lenient_load_truncated_file () =
  let trace = sample_trace () in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Trace_io.save path trace;
  let text = In_channel.with_open_bin path In_channel.input_all in
  (* Chop mid-line to model a crash while the tracer was writing. *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (String.sub text 0 (String.length text - 7)));
  (match Trace_io.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict load must reject a truncated trace");
  (match Trace_io.load_lenient path with
  | Error msg -> Alcotest.fail msg
  | Ok l ->
      Alcotest.(check bool) "synthesized end" true l.Trace_io.synthesized_end;
      Alcotest.(check bool) "most events recovered" true (Array.length l.Trace_io.trace >= Array.length trace - 2));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Streaming.                                                          *)
(* ------------------------------------------------------------------ *)

let with_trace_file text f =
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let dirty_text = "store 0 128 8\nnot an event\nclf clwb 0 128 8\nstore 0 oops 8\nfence 0\n"

let test_stream_matches_lenient_load () =
  (* One dirty file through both paths: the streamed fold must see the
     same events, the same skipped line positions and the same
     synthesized end as the materializing loader. *)
  with_trace_file dirty_text @@ fun path ->
  let l = match Trace_io.load_lenient path with Ok l -> l | Error m -> Alcotest.fail m in
  let streamed = ref [] in
  let stats =
    match Trace_io.iter_file path ~f:(fun ev -> streamed := ev :: !streamed) with
    | Ok stats -> stats
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "same events" true (Array.of_list (List.rev !streamed) = l.Trace_io.trace);
  Alcotest.(check int) "stats.events counts emitted events" (Array.length l.Trace_io.trace) stats.Trace_io.events;
  Alcotest.(check (list int))
    "same skipped lines" (List.map fst l.Trace_io.skipped)
    (List.map fst stats.Trace_io.skipped_lines);
  Alcotest.(check bool) "same synthesized flag" l.Trace_io.synthesized_end stats.Trace_io.synthesized

let test_stream_on_skip_callback () =
  with_trace_file dirty_text @@ fun path ->
  let seen = ref [] in
  (match Trace_io.iter_file ~on_skip:(fun lineno msg -> seen := (lineno, msg) :: !seen) path ~f:ignore with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check (list int)) "on_skip fired per bad line" [ 2; 4 ] (List.rev_map fst !seen)

let test_strict_stream_error_position () =
  (* The streamed strict parser must report the same per-line error
     position as the in-memory one. *)
  let text = "store 0 128 8\nfence 0\nstore 0 oops 8\n" in
  let in_memory = match Trace_io.of_string text with Error m -> m | Ok _ -> Alcotest.fail "expected error" in
  with_trace_file text @@ fun path ->
  match Trace_io.iter_file_strict path ~f:ignore with
  | Error m -> Alcotest.(check string) "same error" in_memory m
  | Ok () -> Alcotest.fail "expected error"

let test_fold_file_accumulates () =
  with_trace_file "store 0 128 8\nclf clwb 0 128 8\nfence 0\nprogram_end\n" @@ fun path ->
  match Trace_io.fold_file path ~init:0 ~f:(fun acc _ -> acc + 1) with
  | Ok (n, stats) ->
      Alcotest.(check int) "fold counts events" 4 n;
      Alcotest.(check bool) "no synthesis needed" false stats.Trace_io.synthesized
  | Error m -> Alcotest.fail m

let test_save_stream_counts_and_roundtrips () =
  let trace = sample_trace () in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let n = Trace_io.save_stream path (fun emit -> Array.iter emit trace) in
  Alcotest.(check int) "emit count returned" (Array.length trace) n;
  match Trace_io.load path with
  | Ok decoded -> Alcotest.(check bool) "roundtrip" true (decoded = trace)
  | Error m -> Alcotest.fail m

let test_save_is_byte_identical_to_to_string () =
  (* save must write in binary mode: the on-disk bytes are exactly
     to_string's, with no platform newline translation (open_out on
     Windows would emit \r\n and desync every reader, which all use
     open_in_bin). On Unix both modes agree, so this pins the contract
     rather than reproducing the Windows corruption. *)
  let trace = sample_trace () in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace_io.save path trace;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "byte-identical" (Trace_io.to_string trace) bytes

let test_replay_stream_matches_replay () =
  let trace =
    Recorder.record (fun e ->
        Engine.register_pmem e ~base:0 ~size:4096;
        Engine.store_i64 e ~addr:128 1L;
        Engine.store_i64 e ~addr:128 2L;
        Engine.clwb e ~addr:128;
        Engine.sfence e;
        Engine.store_i64 e ~addr:512 3L;
        Engine.program_end e)
  in
  let mk () = Pmdebugger.Detector.sink (Pmdebugger.Detector.create ()) in
  let summary (r : Bug.report) =
    (r.Bug.events_processed, List.map (fun (b : Bug.t) -> (Bug.kind_name b.Bug.kind, b.Bug.addr)) r.Bug.bugs)
  in
  let direct = Recorder.replay trace (mk ()) in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace_io.save path trace;
  let streamed =
    Recorder.replay_stream
      (fun emit ->
        match Trace_io.iter_file path ~f:emit with Ok _ -> () | Error m -> Alcotest.fail m)
      (mk ())
  in
  Alcotest.(check (pair int (list (pair string int))))
    "streamed file replay = in-memory replay" (summary direct) (summary streamed)

(* Constant-memory replay: a ~120k-event file streamed through
   [iter_file] into a detector must hold far less at mid-replay than a
   [load_lenient] materialisation of the same file. The trace is bursts
   of four stores to one line plus a clwb and a fence, cycling over 4096
   lines, so detector state stays O(region) and the only O(trace)
   storage candidate is the trace itself. Every 509th burst skips its
   writeback, so both replays have findings to compare. *)
let test_streamed_replay_constant_memory () =
  let lines = 4096 and bursts = 20_000 in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let events =
    Trace_io.save_stream path (fun emit ->
        emit (Event.Register_pmem { base = 0; size = lines * 64 });
        for i = 0 to bursts - 1 do
          let addr = i mod lines * 64 in
          for s = 0 to 3 do
            emit (Event.Store { addr = addr + (s * 16); size = 16; tid = 0 })
          done;
          if i mod 509 <> 0 then emit (Event.Clf { addr; size = 64; kind = Event.Clwb; tid = 0 });
          emit (Event.Fence { tid = 0 })
        done;
        emit Event.Program_end)
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let mk () = Pmdebugger.Detector.sink (Pmdebugger.Detector.create ~model:Pmdebugger.Detector.Strict ()) in
  (* The detector's footprint is the same on both paths: measure it on
     its own so the streamed delta isolates storage that grows with the
     trace. *)
  let detector_words =
    let before = live_words () in
    let sink = mk () in
    sink.Sink.on_event (Event.Register_pmem { base = 0; size = lines * 64 });
    sink.Sink.on_event (Event.Store { addr = 0; size = 16; tid = 0 });
    let words = live_words () - before in
    ignore (sink.Sink.finish ());
    words
  in
  let base = live_words () in
  let mid = ref base and seen = ref 0 in
  let streamed =
    Recorder.replay_stream
      (fun emit ->
        match
          Trace_io.iter_file path ~f:(fun ev ->
              incr seen;
              if !seen = events / 2 then mid := live_words ();
              emit ev)
        with
        | Ok _ -> ()
        | Error m -> Alcotest.fail m)
      (mk ())
  in
  let streamed_words = max 0 (!mid - base - detector_words) in
  let base = live_words () in
  let l = match Trace_io.load_lenient path with Ok l -> l | Error m -> Alcotest.fail m in
  let materialized_words = live_words () - base in
  let materialized = Recorder.replay l.Trace_io.trace (mk ()) in
  Alcotest.(check int) "same events" materialized.Bug.events_processed streamed.Bug.events_processed;
  Alcotest.(check bool) "findings to compare" true (materialized.Bug.bugs <> []);
  Alcotest.(check bool) "same findings" true (materialized.Bug.bugs = streamed.Bug.bugs);
  Alcotest.(check bool)
    (Printf.sprintf "streamed holds %d live words at mid-replay, < 1/4 of materialized %d" streamed_words
       materialized_words)
    true
    (streamed_words * 4 < materialized_words)

let test_iter_file_missing_file () =
  match Trace_io.iter_file "/nonexistent/pmdb-no-such-trace.pmt" ~f:ignore with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for missing file"

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "malformed input" `Quick test_malformed;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "decoded trace replays identically" `Quick test_replay_of_decoded_trace;
    Alcotest.test_case "lenient skips malformed lines" `Quick test_lenient_skips_malformed;
    Alcotest.test_case "lenient synthesizes program_end" `Quick test_lenient_synthesizes_end;
    Alcotest.test_case "lenient agrees with strict on clean input" `Quick test_lenient_strict_agree_on_clean_input;
    Alcotest.test_case "lenient load of truncated file" `Quick test_lenient_load_truncated_file;
    Alcotest.test_case "streamed fold matches lenient load" `Quick test_stream_matches_lenient_load;
    Alcotest.test_case "on_skip callback positions" `Quick test_stream_on_skip_callback;
    Alcotest.test_case "strict stream error position" `Quick test_strict_stream_error_position;
    Alcotest.test_case "fold_file accumulates" `Quick test_fold_file_accumulates;
    Alcotest.test_case "save_stream counts and roundtrips" `Quick test_save_stream_counts_and_roundtrips;
    Alcotest.test_case "save writes to_string bytes exactly" `Quick test_save_is_byte_identical_to_to_string;
    Alcotest.test_case "streamed file replay = in-memory replay" `Quick test_replay_stream_matches_replay;
    Alcotest.test_case "iter_file on missing file errors" `Quick test_iter_file_missing_file;
    Alcotest.test_case "streamed replay holds constant memory" `Quick test_streamed_replay_constant_memory;
    QCheck_alcotest.to_alcotest prop_event_roundtrip;
  ]
