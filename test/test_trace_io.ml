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
      match Trace_io.of_string (Trace_io.event_to_line ev) with
      | Ok [| ev' |] -> Trace_io.event_to_line ev = Trace_io.event_to_line ev'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Lenient parsing.                                                    *)
(* ------------------------------------------------------------------ *)

let test_lenient_skips_malformed () =
  let text = "store 0 128 8\nnot an event\nfence 0\nstore 0 oops 8\nprogram_end\n" in
  let trace, l = Trace_io.of_string_lenient text in
  Alcotest.(check int) "parsed events" 3 (Array.length trace);
  Alcotest.(check (list int)) "skipped line numbers" [ 2; 4 ] (List.map fst l.Trace_io.skipped_lines);
  Alcotest.(check bool) "no synthesized end (explicit program_end)" false l.Trace_io.synthesized

let test_lenient_synthesizes_end () =
  let trace, l = Trace_io.of_string_lenient "store 0 128 8\nfence 0\n" in
  Alcotest.(check bool) "synthesized" true l.Trace_io.synthesized;
  Alcotest.(check int) "end appended" 3 (Array.length trace);
  Alcotest.(check bool) "last is program_end" true (trace.(2) = Event.Program_end)

let test_lenient_strict_agree_on_clean_input () =
  let text = Trace_io.to_string (sample_trace ()) in
  match Trace_io.of_string text with
  | Error _ -> Alcotest.fail "strict parser must accept clean input"
  | Ok strict ->
      let trace, l = Trace_io.of_string_lenient text in
      Alcotest.(check bool) "same trace" true (strict = trace);
      Alcotest.(check int) "nothing skipped" 0 (List.length l.Trace_io.skipped_lines)

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
  | Ok (events, l) ->
      Alcotest.(check bool) "synthesized end" true l.Trace_io.synthesized;
      Alcotest.(check bool) "most events recovered" true (Array.length events >= Array.length trace - 2));
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
  let trace, l = match Trace_io.load_lenient path with Ok l -> l | Error m -> Alcotest.fail m in
  let streamed = ref [] in
  let stats =
    match Trace_io.iter_file path ~f:(fun ev -> streamed := ev :: !streamed) with
    | Ok stats -> stats
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "same events" true (Array.of_list (List.rev !streamed) = trace);
  Alcotest.(check int) "stats.events counts emitted events" (Array.length trace) stats.Trace_io.events;
  Alcotest.(check (list int))
    "same skipped lines" (List.map fst l.Trace_io.skipped_lines)
    (List.map fst stats.Trace_io.skipped_lines);
  Alcotest.(check bool) "same synthesized flag" l.Trace_io.synthesized stats.Trace_io.synthesized

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
  let trace, _ = match Trace_io.load_lenient path with Ok l -> l | Error m -> Alcotest.fail m in
  let materialized_words = live_words () - base in
  let materialized = Recorder.replay trace (mk ()) in
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

(* ------------------------------------------------------------------ *)
(* The parser and printer against the reference implementations in     *)
(* Trace_io_oracle.                                                    *)
(* ------------------------------------------------------------------ *)

(* The reference's events with the end rule: a [program_end] unless the
   last event is one. *)
let with_end events = match List.rev events with Event.Program_end :: _ -> events | _ -> events @ [ Event.Program_end ]

(* [text] decoded leniently as the reference line loop decodes it: the
   same events and skipped (line, error) pairs. A '\n' inside [text]
   makes two lines on both sides. *)
let same_parse text =
  let events, skipped = Trace_io_oracle.lenient_of_string text in
  let expected = (with_end events, skipped) in
  let trace, stats = Trace_io.of_string_lenient text in
  (Array.to_list trace, stats.Trace_io.skipped_lines) = expected
  &&
  (* The same text decoded in place inside a larger buffer, whose byte
     past the chunk is a '\n'. *)
  let b = Bytes.of_string ("ab\n" ^ text ^ "\ncd") in
  let events = ref [] and skipped = ref [] in
  let d =
    Trace_io.Decoder.create ~lenient:true
      ~on_skip:(fun lineno msg -> skipped := (lineno, msg) :: !skipped)
      (fun ev -> events := ev :: !events)
  in
  Trace_io.Decoder.feed d b ~off:3 ~len:(String.length text) = Ok ()
  && Trace_io.Decoder.finish d = Ok ()
  && (List.rev !events, List.rev !skipped) = expected

let test_scanner_edge_cases () =
  List.iter
    (fun line -> Alcotest.(check bool) (Printf.sprintf "%S" line) true (same_parse line))
    [
      "";
      "   ";
      "\t\r";
      "# store 0 1 2";
      "  # indented comment";
      "store 0 128 8";
      "  store   0 128  8 \r";
      "\tstore 0 128 8\t";
      "store\t0 128 8";
      "store 0 12\t8 8";
      "store 0 128 8 9";
      "store 0 128";
      "store 0 0x80 8";
      "store 0 0o17 0b101";
      "store 0 0u42 8";
      "store +1 -128 1_000";
      "store 0 _1 8";
      "store 0 1_ 8";
      "store 0 - 8";
      "store 0 + 8";
      "store 0 0x 8";
      "store 0 999999999999999999 8";
      "store 0 0000000000000000007 8";
      "store 0 4611686018427387903 8";
      "store 0 4611686018427387904 8";
      "store 0 -4611686018427387904 8";
      "store 0 -4611686018427387905 8";
      "store 0 12345678901234567890 8";
      "clf clwb 0 64 64";
      "clf clflushopt 1 64 64";
      "clf clflush 1 64 64";
      "clf clflushopt1 1 64 64";
      "clf CLWB 1 64 64";
      "clf clwb 1 64";
      "fence 3";
      "fence";
      "fence 3 4";
      "register_var 0 8 head ptr";
      "register_var 0 8   head    ptr  ";
      "register_var 0 8 a\tb";
      "register_var 0 8";
      "call 1 main";
      "call 1  do   slabs free";
      "call 1";
      "call x main";
      "call3 main";
      "register_var7 0 8 x";
      "program_end";
      "program_end x";
      "program_endx";
      "Program_end";
      "assert_ordered 1 2 3 4";
      "assert_ordered 1 2 3";
      "assert_fresh 1 2";
      "assert_durable 1 2";
      "tx_log 0 64 8";
      "strand_begin 0 1";
      "strand_end 0 1";
      "join_strand 0";
      "epoch_begin 0";
      "epoch_end 0";
      "register_pmem 0 4096";
      "bogus_event 1 2";
      "store 0 1 2\000";
      "\"quoted\" \\ line";
    ]

let int_text_gen =
  QCheck.Gen.(
    let* n = oneof [ int_range 0 100_000; int_range (-1000) 1000; int; oneofl [ max_int; min_int; 0 ] ] in
    let a = abs n in
    let binary =
      let rec go n acc = if n = 0 then acc else go (n lsr 1) (string_of_int (n land 1) ^ acc) in
      "0b" ^ go a (if a = 0 then "0" else "")
    in
    let* underscored =
      let d = string_of_int a in
      let+ at = int_range 0 (String.length d) in
      String.sub d 0 at ^ "_" ^ String.sub d at (String.length d - at)
    in
    oneofl
      [
        string_of_int n;
        string_of_int n;
        "+" ^ string_of_int a;
        "-" ^ string_of_int a;
        Printf.sprintf "0x%x" n;
        Printf.sprintf "0X%X" a;
        Printf.sprintf "0o%o" a;
        binary;
        "0u" ^ string_of_int a;
        underscored;
        Printf.sprintf "%019d" a;
        Printf.sprintf "%020d" a;
        "4611686018427387903";
        "4611686018427387904";
        "-4611686018427387904";
        "9999999999999999999";
        "12345678901234567890";
        "999999999999999999";
      ])

type field = I | K | N

let keyword_fields =
  [
    ("store", [ I; I; I ]);
    ("clf", [ K; I; I; I ]);
    ("fence", [ I ]);
    ("register_pmem", [ I; I ]);
    ("epoch_begin", [ I ]);
    ("epoch_end", [ I ]);
    ("strand_begin", [ I; I ]);
    ("strand_end", [ I; I ]);
    ("join_strand", [ I ]);
    ("tx_log", [ I; I; I ]);
    ("register_var", [ I; I; N ]);
    ("call", [ I; N ]);
    ("assert_durable", [ I; I ]);
    ("assert_ordered", [ I; I; I; I ]);
    ("assert_fresh", [ I; I ]);
    ("program_end", []);
  ]

(* A line in the trace grammar with surface variation: runs of spaces,
   leading/trailing tabs and spaces, a trailing \r, every integer
   notation, names with internal tabs, and occasionally a wrong arity,
   a blank or a comment. *)
let valid_line_gen =
  QCheck.Gen.(
    let* kw, fields = oneofl keyword_fields in
    let field = function
      | I -> int_text_gen
      | K -> oneofl [ "clwb"; "clflush"; "clflushopt"; "clflushopt"; "clwb"; "clwbx"; "CLWB" ]
      | N ->
          let* k = int_range 1 3 in
          let+ parts = list_repeat k (oneofl [ "main"; "head"; "ptr"; "a\tb"; "x_1"; "#c"; "store"; "0x1" ]) in
          String.concat " " parts
    in
    let* tokens = flatten_l (return kw :: List.map field fields) in
    let* arity = int_range 0 9 in
    let tokens =
      match arity with
      | 0 -> tokens @ [ "7" ]
      | 1 -> List.filteri (fun i _ -> i < List.length tokens - 1) tokens
      | _ -> tokens
    in
    let* seps = list_repeat (List.length tokens) (oneofl [ " "; " "; " "; "  "; "   " ]) in
    let body = String.concat "" (List.mapi (fun i tok -> if i = 0 then tok else List.nth seps i ^ tok) tokens) in
    let* prefix = oneofl [ ""; ""; ""; " "; "  "; "\t"; " \t "; "\012" ] in
    let* suffix = oneofl [ ""; ""; ""; " "; "\t"; "\r"; " \r"; "\t\r"; "   " ] in
    let* shape = int_range 0 19 in
    return
      (match shape with
      | 0 -> prefix ^ suffix
      | 1 -> prefix ^ "# " ^ body
      | _ -> prefix ^ body ^ suffix))

(* A valid line with one to three bytes replaced, deleted or inserted. *)
let mutated_line_gen =
  QCheck.Gen.(
    let* line = valid_line_gen in
    let* k = int_range 1 3 in
    let interesting = [ ' '; '\t'; '#'; '-'; '+'; '_'; 'x'; 'o'; 'b'; 'u'; '0'; '9'; '\r'; '\n'; 'a'; '\000'; '\255' ] in
    let mutate line =
      let n = String.length line in
      let* op = int_range 0 2 in
      let* at = int_range 0 (max 0 (n - 1)) in
      let* c = oneof [ oneofl interesting; char ] in
      return
        (if n = 0 then String.make 1 c
         else
           match op with
           | 0 -> String.mapi (fun i x -> if i = at then c else x) line
           | 1 -> String.sub line 0 at ^ String.sub line (at + 1) (n - at - 1)
           | _ -> String.sub line 0 at ^ String.make 1 c ^ String.sub line at (n - at))
    in
    let rec apply k line = if k = 0 then return line else mutate line >>= apply (k - 1) in
    apply k line)

let prop_scanner_matches_oracle =
  QCheck.Test.make ~name:"scanner = reference parser on valid and mutated lines" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") QCheck.Gen.(oneof [ valid_line_gen; mutated_line_gen ]))
    same_parse

(* Whole texts through the string and the file folds: the same events,
   the same skipped (line, error) pairs as a line-by-line reference,
   whose events get the end rule: a [program_end] unless the last event
   is one. *)
let prop_folds_match_oracle =
  let text_gen =
    QCheck.Gen.(
      let* lines = list_size (int_range 0 30) (oneof [ valid_line_gen; mutated_line_gen ]) in
      let+ final_newline = bool in
      String.concat "\n" lines ^ if final_newline && lines <> [] then "\n" else "")
  in
  QCheck.Test.make ~name:"string and file folds = reference line loop" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") text_gen) (fun text ->
      let events, skipped = Trace_io_oracle.lenient_of_string text in
      let events = with_end events in
      let trace, l = Trace_io.of_string_lenient text in
      let from_file =
        with_trace_file text (fun path ->
            let acc = ref [] in
            match Trace_io.iter_file path ~f:(fun ev -> acc := ev :: !acc) with
            | Ok stats -> (List.rev !acc, stats.Trace_io.skipped_lines)
            | Error m -> failwith m)
      in
      Array.to_list trace = events && l.Trace_io.skipped_lines = skipped && from_file = (events, skipped))

let wide_event_gen =
  QCheck.Gen.(
    let wide = oneof [ int_range 0 100_000; int; oneofl [ max_int; min_int; -1; 0 ] ] in
    let* tag = int_range 0 16 in
    let* a = wide and* b = wide and* c = wide and* d = wide in
    let* kind = oneofl [ Event.Clwb; Event.Clflush; Event.Clflushopt ] in
    let+ name = oneofl [ "main"; "head ptr"; "x" ] in
    match tag with
    | 0 -> Event.Store { addr = a; size = b; tid = c }
    | 1 -> Event.Clf { addr = a; size = b; kind; tid = c }
    | 2 -> Event.Fence { tid = a }
    | 3 -> Event.Register_pmem { base = a; size = b }
    | 4 -> Event.Epoch_begin { tid = a }
    | 5 -> Event.Epoch_end { tid = a }
    | 6 -> Event.Strand_begin { tid = a; strand = b }
    | 7 -> Event.Strand_end { tid = a; strand = b }
    | 8 -> Event.Join_strand { tid = a }
    | 9 -> Event.Tx_log { obj_addr = a; size = b; tid = c }
    | 10 -> Event.Register_var { name; addr = a; size = b }
    | 11 -> Event.Call { func = name; tid = a }
    | 12 -> Event.Annotation (Event.Assert_durable { addr = a; size = b })
    | 13 -> Event.Annotation (Event.Assert_ordered { first_addr = a; first_size = b; then_addr = c; then_size = d })
    | 14 -> Event.Annotation (Event.Assert_fresh { addr = a; size = b })
    | _ -> Event.Program_end)

(* An event with a negative address or size prints, but its line is
   malformed. *)
let negative_extent = function
  | Event.Store { addr; size; _ }
  | Event.Clf { addr; size; _ }
  | Event.Register_var { addr; size; _ }
  | Event.Annotation (Event.Assert_durable { addr; size })
  | Event.Annotation (Event.Assert_fresh { addr; size }) ->
      addr < 0 || size < 0
  | Event.Register_pmem { base; size } -> base < 0 || size < 0
  | Event.Tx_log { obj_addr; size; _ } -> obj_addr < 0 || size < 0
  | Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size }) ->
      first_addr < 0 || first_size < 0 || then_addr < 0 || then_size < 0
  | _ -> false

let prop_printer_matches_oracle =
  QCheck.Test.make ~name:"printer = reference Printf printer, and parses back" ~count:2000
    (QCheck.make wide_event_gen) (fun ev ->
      let line = Trace_io.event_to_line ev in
      line = Trace_io_oracle.event_to_line ev
      && Trace_io.of_string line
         = if negative_extent ev then Error (Printf.sprintf "line 1: cannot parse event %S" line) else Ok [| ev |])

(* A printed line that leaves the canonical form late, so the parser's
   hot loop gets as far as its last token or byte before the line is
   accepted there or taken over by the cold tail: a trailing
   [\r], tab or space; a 19- or 20-digit, signed or hex last field; a
   keyword that shares its first byte and length with another (or is
   the other assertion of the same length); a trailing token or byte; a
   [#] in front; a doubled space; leading whitespace; a twin keyword
   with plain fields. Some lines stay canonical. *)
let late_deviation_gen =
  QCheck.Gen.(
    let* ev = wide_event_gen in
    let line = Trace_io.event_to_line ev in
    let tokens = String.split_on_char ' ' line in
    let n = List.length tokens in
    let with_last f = String.concat " " (List.mapi (fun i tok -> if i = n - 1 then f tok else tok) tokens) in
    let* how = int_range 0 9 in
    match how with
    | 0 ->
        let+ tail = oneofl [ "\r"; "\t"; " "; " \r"; "\t\r"; "\012"; "  " ] in
        line ^ tail
    | 1 ->
        let+ f =
          oneofl
            [
              (fun tok -> String.make (max 0 (19 - String.length tok)) '0' ^ tok);
              (fun tok -> String.make (max 0 (20 - String.length tok)) '0' ^ tok);
              (fun tok -> "+" ^ tok);
              (fun tok -> "-" ^ tok);
              (fun tok -> match int_of_string_opt tok with Some v -> Printf.sprintf "0x%x" v | None -> tok);
              (fun tok -> "1" ^ String.make 18 '0' ^ tok);
              (fun _ -> String.make 19 '9');
              (fun _ -> "4611686018427387903");
              (fun _ -> "4611686018427387904");
            ]
        in
        with_last f
    | 2 ->
        let kw = List.hd tokens in
        let+ twin =
          oneofl
            [
              (match kw with
              | "assert_durable" -> "assert_ordered"
              | "assert_ordered" -> "assert_durable"
              | _ -> String.sub kw 0 (String.length kw - 1) ^ "x");
              String.sub kw 0 (String.length kw - 1) ^ "_";
            ]
        in
        String.concat " " (twin :: List.tl tokens)
    | 3 ->
        let+ extra = oneofl [ "x"; " 7"; " x"; "#"; "\000" ] in
        line ^ extra
    | 4 ->
        let+ hash = oneofl [ "#"; "# "; " #" ] in
        hash ^ line
    | 5 ->
        let+ at = int_range 1 (max 1 (n - 1)) in
        String.concat " " (List.mapi (fun i tok -> if i = at then " " ^ tok else tok) tokens)
    | 6 ->
        let+ lead = oneofl [ " "; "\t"; "\r"; "  " ] in
        lead ^ line
    | 7 ->
        (* Twins with plain fields, one with the other's arity. *)
        let* a = int_range 0 9999 and* b = int_range 0 9999 and* c = int_range 0 9999 and* d = int_range 0 9999 in
        oneofl
          [
            Printf.sprintf "assert_durable %d %d %d %d" a b c d;
            Printf.sprintf "assert_ordered %d %d" a b;
            Printf.sprintf "stork %d %d %d" a b c;
            Printf.sprintf "fencx %d" a;
            Printf.sprintf "clf clwx %d %d %d" a b c;
            Printf.sprintf "clf clflushopx %d %d %d" a b c;
            Printf.sprintf "epoch_begix %d" a;
            Printf.sprintf "epoch_enx %d" a;
            Printf.sprintf "tx_loc %d %d %d" a b c;
            Printf.sprintf "strand_enx %d %d" a b;
            Printf.sprintf "join_strane %d" a;
            Printf.sprintf "register_pmex %d %d" a b;
            Printf.sprintf "assert_fresx %d %d" a b;
            "program_enx";
          ]
    | _ -> return line)

(* The oracle's strict verdict on [text]: the events before the first
   malformed line and that line's error, if any. *)
let oracle_strict text =
  let rec go acc lineno = function
    | [] -> (List.rev acc, Ok ())
    | line :: rest -> (
        match Trace_io_oracle.event_of_line line with
        | Ok None -> go acc (lineno + 1) rest
        | Ok (Some ev) -> go (ev :: acc) (lineno + 1) rest
        | Error msg -> (List.rev acc, Error (Printf.sprintf "line %d: %s" lineno msg)))
  in
  let lines = String.split_on_char '\n' text in
  (* A text ending in '\n' has no line after it. *)
  let lines = if String.ends_with ~suffix:"\n" text then List.rev (List.tl (List.rev lines)) else lines in
  go [] 1 lines

(* [text] fed as two chunks split at [k]. The first chunk lies in a
   buffer whose bytes past [k] are stale ([junk]), as in a reused read
   buffer. *)
let decode_split ~lenient ~junk text k =
  let events = ref [] and skipped = ref [] in
  let d =
    Trace_io.Decoder.create ~lenient
      ~on_skip:(fun lineno msg -> skipped := (lineno, msg) :: !skipped)
      (fun ev -> events := ev :: !events)
  in
  let first = Bytes.of_string text in
  Bytes.fill first k (String.length text - k) junk;
  let result =
    match Trace_io.Decoder.feed d first ~off:0 ~len:k with
    | Error _ as e -> e
    | Ok () -> (
        match Trace_io.Decoder.feed d (Bytes.of_string text) ~off:k ~len:(String.length text - k) with
        | Ok () -> Trace_io.Decoder.finish d
        | Error _ as e -> e)
  in
  (List.rev !events, List.rev !skipped, result)

let prop_late_deviations_at_every_split =
  let text_gen =
    QCheck.Gen.(
      let* lines = list_size (int_range 1 5) late_deviation_gen in
      let+ final_newline = bool in
      String.concat "\n" lines ^ if final_newline then "\n" else "")
  in
  QCheck.Test.make ~name:"late deviations from the canonical form = reference, at every chunk split" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") text_gen) (fun text ->
      let events, skipped = Trace_io_oracle.lenient_of_string text in
      let lenient_events = with_end events in
      let strict_events, strict_result = oracle_strict text in
      List.for_all
        (fun k ->
          List.for_all
            (fun junk ->
              decode_split ~lenient:true ~junk text k = (lenient_events, skipped, Ok ())
              && decode_split ~lenient:false ~junk text k = (strict_events, [], strict_result))
            [ '\n'; '7' ])
        (List.init (String.length text + 1) Fun.id))

(* ------------------------------------------------------------------ *)
(* The decoder's read buffer: long lines, missing final newline, lines *)
(* split across reads.                                                 *)
(* ------------------------------------------------------------------ *)

let test_line_longer_than_buffer () =
  (* A 200 KB name: longer than the decoder's read buffer, so the line
     is carried across reads; the lines after it keep their numbers. *)
  let name = String.init 200_000 (fun i -> if i mod 997 = 996 then ' ' else Char.chr (97 + (i mod 26))) in
  let var_line = "register_var 64 8 " ^ name in
  let text = "store 0 128 8\n" ^ var_line ^ "\n\nnot an event\nfence 0\n" in
  let expected_var =
    match Trace_io_oracle.event_of_line var_line with Ok (Some ev) -> ev | _ -> Alcotest.fail "oracle rejected"
  in
  with_trace_file text @@ fun path ->
  (match Trace_io.load_lenient path with
  | Error m -> Alcotest.fail m
  | Ok (trace, l) ->
      Alcotest.(check int) "three events and the synthesized end" 4 (Array.length trace);
      Alcotest.(check bool) "long name intact" true (trace.(1) = expected_var);
      Alcotest.(check (list (pair int string)))
        "later line keeps its number"
        [ (4, "cannot parse event \"not an event\"") ]
        l.Trace_io.skipped_lines);
  match Trace_io.iter_file_strict path ~f:ignore with
  | Error m -> Alcotest.(check string) "strict error position" "line 4: cannot parse event \"not an event\"" m
  | Ok () -> Alcotest.fail "expected error"

let test_last_line_without_newline () =
  with_trace_file "store 0 128 8\nfence 0" @@ fun path ->
  (match Trace_io.load path with
  | Ok trace ->
      Alcotest.(check bool) "both events" true
        (trace = [| Event.Store { addr = 128; size = 8; tid = 0 }; Event.Fence { tid = 0 } |])
  | Error m -> Alcotest.fail m);
  with_trace_file "store 0 128 8\nfence 0\nbogus" @@ fun path ->
  match Trace_io.iter_file_strict path ~f:ignore with
  | Error m -> Alcotest.(check string) "unterminated last line parsed" "line 3: cannot parse event \"bogus\"" m
  | Ok () -> Alcotest.fail "expected error"

let test_lines_split_across_reads () =
  (* Fixed-length lines (18 bytes, or 19 with CRLF) over ~300 KB put
     every 64 KiB read boundary mid-line; a malformed line and a comment
     sit past the first boundary. The file fold must see exactly what
     the in-memory fold sees. *)
  List.iter
    (fun eol ->
      let buf = Buffer.create (400 * 1024) in
      for i = 0 to 16_000 do
        if i = 5000 then Buffer.add_string buf ("store 0 oops!!! 8" ^ eol)
        else if i = 5001 then Buffer.add_string buf ("# comment comment" ^ eol)
        else Buffer.add_string buf (Printf.sprintf "store 0 %d 8%s" (1_000_000 + i) eol)
      done;
      let text = Buffer.contents buf in
      let line_len = 18 + String.length eol - 1 in
      Alcotest.(check bool) "boundary is mid-line" true (65536 mod line_len <> 0);
      let l_trace, l = Trace_io.of_string_lenient text in
      with_trace_file text @@ fun path ->
      match Trace_io.load_lenient path with
      | Error m -> Alcotest.fail m
      | Ok (f_trace, f) ->
          Alcotest.(check int) "16,001 lines - 2 + synthesized end" 16_000 (Array.length f_trace);
          Alcotest.(check bool) "same events" true (f_trace = l_trace);
          Alcotest.(check (list int)) "same skipped lines" [ 5001 ] (List.map fst f.Trace_io.skipped_lines);
          Alcotest.(check bool) "same diagnostics" true (f.Trace_io.skipped_lines = l.Trace_io.skipped_lines))
    [ "\n"; "\r\n" ]

(* ------------------------------------------------------------------ *)
(* Allocation gates. Minor-heap words are deterministic for a given     *)
(* trace and compiler, unlike time.                                    *)
(* ------------------------------------------------------------------ *)

let test_allocation_per_event () =
  let record spec n = Recorder.record (fun e -> spec.Workloads.Workload.run (Workloads.Workload.params ~n ()) e) in
  let trace = Array.append (record Workloads.Btree.spec 300) (record Workloads.Hashmap_tx.spec 300) in
  let n = Array.length trace in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let save = minor_words (fun () -> ignore (Trace_io.save_stream path (fun emit -> Array.iter emit trace))) in
  let per_event w = w /. float_of_int n in
  let check_parse form =
    let events = ref 0 in
    let parse =
      minor_words (fun () ->
          match Trace_io.iter_file path ~f:ignore with
          | Ok stats -> events := stats.Trace_io.events
          | Error m -> Alcotest.fail m)
    in
    Alcotest.(check int) (form ^ ": every event read back") n !events;
    Alcotest.(check bool)
      (Printf.sprintf "%s: iter_file allocates %.2f words/event over %d events (<= 6)" form (per_event parse) n)
      true
      (per_event parse <= 6.0)
  in
  let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
  check_parse "printed";
  (* The same gate on rewrites whose lines leave the printer's form. *)
  List.iter
    (fun (form, rewrite) ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun line -> if line <> "" then Out_channel.output_string oc (rewrite line ^ "\n")) lines);
      check_parse form)
    [
      ("CRLF", fun line -> line ^ "\r");
      ("leading tab", fun line -> "\t" ^ line);
      ("doubled spaces", fun line -> String.concat "  " (String.split_on_char ' ' line));
    ];
  Alcotest.(check bool)
    (Printf.sprintf "save_stream allocates %.2f words/event (<= 2)" (per_event save))
    true
    (per_event save <= 2.0)

(* The detector's bookkeeping allocates only for what it keeps (tree
   nodes, findings): minor words per event on six seed-7 traces, each
   gated at its measured value plus 5%, replaying in-memory events
   through a fresh detector as the paper tables do. *)
let test_detector_allocation_per_event () =
  List.iter
    (fun (name, n, limit) ->
      let spec = Workloads.Registry.find_exn name in
      let trace =
        Recorder.record (fun e -> spec.Workloads.Workload.run (Workloads.Workload.params ~seed:7 ~n ()) e)
      in
      let before = Gc.minor_words () in
      ignore (Recorder.replay trace (Pmdebugger.Detector.sink (Pmdebugger.Detector.create ~model:spec.Workloads.Workload.model ())));
      let per_event = (Gc.minor_words () -. before) /. float_of_int (Array.length trace) in
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d: detector allocates %.2f words/event (<= %.2f)" name n per_event limit)
        true (per_event <= limit))
    (* Measured: 1.87, 3.80, 23.36, 22.35, 2.73 and 2.65 (3.05, 5.77,
       23.37, 22.36, 24.13 and 4.75 before tx_log, epoch and strand CLF
       events stopped allocating; 94.4, 140.5, 252.2 and 183.3 for the
       first four before the store, CLF and fence paths did). *)
    [
      ("b_tree", 450, 1.96);
      ("hashmap_tx", 400, 3.99);
      ("memcached", 4000, 24.53);
      ("a_YCSB", 1000, 23.47);
      ("synth_strand", 300, 2.87);
      ("redis", 1000, 2.78);
    ]

(* Words one event costs a warmed-up detector. *)
let event_words sink ev =
  let before = Gc.minor_words () in
  sink.Sink.on_event ev;
  Gc.minor_words () -. before

(* The common store (appended to the array, overlapping nothing) and a
   CLF of array slots only: at most 8 words each. The detector first
   runs the same store/CLF/fence rounds, so its slot array and interval
   pool have grown. *)
let test_store_and_clf_words () =
  let sink = Pmdebugger.Detector.sink (Pmdebugger.Detector.create ()) in
  let round ~base =
    let stores = List.init 8 (fun i -> Event.Store { addr = base + (8 * i); size = 8; tid = 0 }) in
    (stores, Event.Clf { addr = base; size = 64; kind = Event.Clwb; tid = 0 })
  in
  for r = 0 to 15 do
    let stores, clf = round ~base:(r * 64) in
    List.iter sink.Sink.on_event stores;
    sink.Sink.on_event clf;
    sink.Sink.on_event (Event.Fence { tid = 0 })
  done;
  let stores, clf = round ~base:4096 in
  let store_words = List.fold_left (fun acc ev -> Float.max acc (event_words sink ev)) 0.0 stores in
  let clf_words = event_words sink clf in
  Alcotest.(check bool) (Printf.sprintf "a plain store allocates %.0f words (<= 8)" store_words) true (store_words <= 8.0);
  Alcotest.(check bool) (Printf.sprintf "an array-only CLF allocates %.0f words (<= 8)" clf_words) true (clf_words <= 8.0);
  sink.Sink.on_event (Event.Fence { tid = 0 });
  Alcotest.(check int) "no finding" 0 (List.length (sink.Sink.finish ()).Bug.bugs)

(* A transaction under the epoch model: a first [tx_log] of an object
   and an epoch begin/end pair around it, on a detector that has already
   run the same transactions, so its per-thread tables and log arrays
   exist. *)
let test_tx_log_and_epoch_words () =
  let sink = Pmdebugger.Detector.sink (Pmdebugger.Detector.create ~model:Pmdebugger.Detector.Epoch ()) in
  let tx ~base =
    [
      Event.Epoch_begin { tid = 0 };
      Event.Tx_log { obj_addr = base; size = 64; tid = 0 };
      Event.Store { addr = base; size = 8; tid = 0 };
      Event.Clf { addr = base; size = 64; kind = Event.Clwb; tid = 0 };
      Event.Fence { tid = 0 };
      Event.Epoch_end { tid = 0 };
    ]
  in
  for r = 0 to 15 do
    List.iter sink.Sink.on_event (tx ~base:(r * 64))
  done;
  let begin_words = event_words sink (Event.Epoch_begin { tid = 0 }) in
  let log_words = event_words sink (Event.Tx_log { obj_addr = 4096; size = 64; tid = 0 }) in
  let end_words = event_words sink (Event.Epoch_end { tid = 0 }) in
  Alcotest.(check bool) (Printf.sprintf "a first tx_log allocates %.0f words (<= 0)" log_words) true (log_words <= 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "an epoch begin/end pair allocates %.0f words (<= 0)" (begin_words +. end_words))
    true
    (begin_words +. end_words <= 0.0);
  Alcotest.(check int) "no finding" 0 (List.length (sink.Sink.finish ()).Bug.bugs)

(* One insert into a 1,000-node tree allocates its node and nothing
   per level: rotations and untouched links reuse what is there. *)
let test_rangetree_insert_words () =
  let t = Rangetree.create () in
  let key i = (i * 7919) mod 100_003 in
  for i = 0 to 999 do
    Rangetree.insert t ~lo:(key i) ~hi:(key i + 8) i
  done;
  let worst = ref 0.0 in
  for i = 1000 to 1099 do
    let lo = key i in
    let before = Gc.minor_words () in
    Rangetree.insert t ~lo ~hi:(lo + 8) i;
    worst := Float.max !worst (Gc.minor_words () -. before)
  done;
  Rangetree.check_invariants t;
  (* A node is an inline record of 7 fields: 8 words with its header. *)
  Alcotest.(check bool) (Printf.sprintf "an insert allocates at most %.0f words (<= one node, 8)" !worst) true
    (!worst <= 8.0)

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
    Alcotest.test_case "scanner edge cases = reference parser" `Quick test_scanner_edge_cases;
    QCheck_alcotest.to_alcotest prop_scanner_matches_oracle;
    QCheck_alcotest.to_alcotest prop_folds_match_oracle;
    QCheck_alcotest.to_alcotest prop_printer_matches_oracle;
    Alcotest.test_case "line longer than the read buffer" `Quick test_line_longer_than_buffer;
    Alcotest.test_case "last line without newline" `Quick test_last_line_without_newline;
    Alcotest.test_case "lines split across reads" `Quick test_lines_split_across_reads;
    Alcotest.test_case "allocation per event (parse, save)" `Quick test_allocation_per_event;
    Alcotest.test_case "detector allocation per event" `Quick test_detector_allocation_per_event;
    Alcotest.test_case "store and CLF allocation" `Quick test_store_and_clf_words;
    Alcotest.test_case "rangetree insert allocation" `Quick test_rangetree_insert_words;
    Alcotest.test_case "tx_log and epoch allocation" `Quick test_tx_log_and_epoch_words;
    QCheck_alcotest.to_alcotest prop_late_deviations_at_every_split;
  ]
