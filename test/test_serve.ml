(* The serving daemon: Spsc close/poison semantics, Engine.finish_all
   fault containment, the shared exit-code table, the wire protocol
   (parse + QCheck round-trip), the socket-free session decoder, the
   worker pool driven with bytes, the 8-client fault-tolerance gate over
   a real Unix-domain socket, and a protocol fuzz through Client.raw. *)

open Pmtrace
module D = Pmdebugger.Detector

let canon (r : Bug.report) =
  Bug.render_canonical { r with Bug.bugs = List.sort Bug.compare_canonical r.Bug.bugs }

(* ---------------------------------------------------------------- *)
(* Spsc close / poison                                               *)
(* ---------------------------------------------------------------- *)

let test_spsc_close_poisons_producer () =
  let q = Spsc.create ~capacity:2 in
  Spsc.push q 1;
  Spsc.push q 2;
  Spsc.close q;
  Spsc.close q (* idempotent *);
  Alcotest.(check bool) "push raises Closed" true
    (match Spsc.push q 3 with exception Spsc.Closed -> true | () -> false)

let test_spsc_pop_drains_then_closed () =
  let q = Spsc.create ~capacity:4 in
  Spsc.push q 10;
  Spsc.push q 11;
  Spsc.close q;
  Alcotest.(check int) "drain 1" 10 (Spsc.pop q);
  Alcotest.(check int) "drain 2" 11 (Spsc.pop q);
  Alcotest.(check bool) "pop raises Closed once drained" true
    (match Spsc.pop q with exception Spsc.Closed -> true | _ -> false)

(* A producer blocked on a full queue must be woken by close — a dead
   consumer can never wedge the daemon's dispatch domain. *)
let test_spsc_close_wakes_blocked_producer () =
  let q = Spsc.create ~capacity:2 in
  let producer =
    Domain.spawn (fun () ->
        match
          for i = 0 to 4 do
            Spsc.push q i
          done
        with
        | () -> false
        | exception Spsc.Closed -> true)
  in
  (* Let the producer fill the queue and block on the third push. *)
  Unix.sleepf 0.05;
  Spsc.close q;
  Alcotest.(check bool) "blocked producer observed Closed" true (Domain.join producer);
  Alcotest.(check int) "published elements survive" 0 (Spsc.pop q);
  Alcotest.(check int) "published elements survive" 1 (Spsc.pop q)

let test_spsc_close_wakes_blocked_consumer () =
  let q : int Spsc.t = Spsc.create ~capacity:2 in
  let consumer =
    Domain.spawn (fun () -> match Spsc.pop q with exception Spsc.Closed -> true | _ -> false)
  in
  Unix.sleepf 0.05;
  Spsc.close q;
  Alcotest.(check bool) "blocked consumer observed Closed" true (Domain.join consumer)

(* ---------------------------------------------------------------- *)
(* Engine.finish_all survives a raising finish                       *)
(* ---------------------------------------------------------------- *)

let test_finish_all_survives_raising_finish () =
  let metrics = Obs.Metrics.create () in
  let e = Engine.create ~metrics () in
  let ok name = Sink.make ~name ~on_event:(fun _ -> ()) ~finish:(fun () -> Bug.empty_report name) in
  let bad = Sink.make ~name:"bad" ~on_event:(fun _ -> ()) ~finish:(fun () -> failwith "boom at finish") in
  Engine.attach e (ok "left");
  Engine.attach e bad;
  Engine.attach e (ok "right");
  Engine.register_pmem e ~base:0 ~size:4096;
  Engine.program_end e;
  let reports = Engine.finish_all e in
  Alcotest.(check int) "one report per sink" 3 (List.length reports);
  Alcotest.(check (list string)) "attach order preserved" [ "left"; "bad"; "right" ]
    (List.map (fun r -> r.Bug.detector) reports);
  let mid = List.nth reports 1 in
  Alcotest.(check bool) "raising finish recorded as failure" true
    (match mid.Bug.failure with Some msg -> String.length msg > 0 | None -> false);
  Alcotest.(check bool) "siblings unharmed" true
    ((List.nth reports 0).Bug.failure = None && (List.nth reports 2).Bug.failure = None);
  Alcotest.(check int) "exactly one quarantine" 1 (List.length (Engine.quarantined e));
  let snap = Obs.Metrics.snapshot metrics in
  Alcotest.(check int) "quarantine counter" 1
    (Obs.Metrics.counter_value snap ~labels:[ ("sink", "bad") ] "engine_sinks_quarantined_total")

(* ---------------------------------------------------------------- *)
(* Status: the shared exit-code table                                 *)
(* ---------------------------------------------------------------- *)

let test_status_exit_codes () =
  let module S = Serve.Status in
  List.iter
    (fun (st, code) -> Alcotest.(check int) (S.name st) code (S.exit_code st))
    [
      (S.Ok, 0);
      (S.Trace_error, 2);
      (S.Protocol_error, 2);
      (S.Detector_error, 3);
      (S.Evicted, 4);
      (S.Timeout, 5);
      (S.Shutdown, 6);
    ];
  List.iter
    (fun st ->
      Alcotest.(check bool) ("of_name round-trip " ^ S.name st) true (S.of_name (S.name st) = Some st))
    S.all;
  Alcotest.(check bool) "unknown name" true (S.of_name "nope" = None)

(* ---------------------------------------------------------------- *)
(* Wire protocol                                                     *)
(* ---------------------------------------------------------------- *)

let test_wire_parse_hello () =
  let module W = Serve.Wire in
  (match W.parse_hello "pmdb-serve/1 session tx.log-01" with
  | Ok (W.Session { name; lenient }) ->
      Alcotest.(check string) "name" "tx.log-01" name;
      Alcotest.(check bool) "strict by default" false lenient
  | _ -> Alcotest.fail "session hello rejected");
  (match W.parse_hello "pmdb-serve/1 session s lenient" with
  | Ok (W.Session { lenient; _ }) -> Alcotest.(check bool) "lenient flag" true lenient
  | _ -> Alcotest.fail "lenient hello rejected");
  Alcotest.(check bool) "stats verb" true (W.parse_hello "pmdb-serve/1 stats" = Ok W.Stats);
  Alcotest.(check bool) "stop verb" true (W.parse_hello "pmdb-serve/1 stop" = Ok W.Stop);
  let rejected s = match W.parse_hello s with Error _ -> true | Ok _ -> false in
  (* The daemon pushes nothing unasked: the old streaming verb is gone. *)
  Alcotest.(check bool) "stats_stream is not a verb" true (rejected "pmdb-serve/1 stats_stream");
  Alcotest.(check bool) "bad magic" true (rejected "pmdb-serve/2 session s");
  Alcotest.(check bool) "bad verb" true (rejected "pmdb-serve/1 sessions s");
  Alcotest.(check bool) "empty name" true (rejected "pmdb-serve/1 session ");
  Alcotest.(check bool) "bad name chars" true (rejected "pmdb-serve/1 session a/b");
  Alcotest.(check bool) "name too long" true
    (rejected ("pmdb-serve/1 session " ^ String.make 65 'a'));
  Alcotest.(check bool) "empty line" true (rejected "");
  (* hello_line and parse_hello must agree. *)
  List.iter
    (fun h -> Alcotest.(check bool) "hello_line round-trip" true (W.parse_hello (W.hello_line h) = Ok h))
    [
      W.Session { name = "w1"; lenient = false };
      W.Session { name = "w1"; lenient = true };
      W.Stats;
      W.Stop;
    ]

let test_wire_malformed_json () =
  let module W = Serve.Wire in
  let bad s = match W.result_of_line s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "not json" true (bad "not json at all");
  Alcotest.(check bool) "wrong schema" true (bad {|{"schema":"other/v1","status":"ok"}|});
  Alcotest.(check bool) "bad status" true (bad {|{"schema":"pmdb-serve/v1","status":"weird"}|})

let prop_wire_result_roundtrip =
  let module W = Serve.Wire in
  let frame_gen =
    QCheck.Gen.(
      let cause_gen =
        let* seq = int_range 1 10_000 in
        let* addr = int_range 0 65536 in
        let* size = int_range 1 64 in
        let* cls = oneofl [ "store"; "clf"; "fence"; "program_end" ] in
        let* note = oneofl [ "never flushed"; "crossed fence unpersisted"; ""; "re-covered" ] in
        return (Bug.cause ~addr ~size ~note ~cls seq)
      in
      let bug_gen =
        let* kind = oneofl Bug.all_kinds in
        let* addr = int_range 0 65536 in
        let* size = int_range 1 256 in
        let* seq = int_range 1 10_000 in
        let* detail = oneofl [ "store at 0x100"; "flushed twice"; ""; "a b c" ] in
        let* chain = list_size (int_range 0 4) cause_gen in
        return (Bug.make ~addr ~size ~seq ~detail ~chain kind)
      in
      let report_gen =
        let* bugs = list_size (int_range 0 5) bug_gen in
        let* events_processed = int_range 0 100_000 in
        let* failure = oneofl [ None; Some "detector raised: boom"; Some "" ] in
        let* stats = oneofl [ []; [ ("tree_size", 12.0) ]; [ ("a", 0.5); ("b", 2.25) ] ] in
        return { Bug.detector = "pmdebugger"; bugs; events_processed; stats; failure }
      in
      let* status = oneofl Serve.Status.all in
      let* events = int_range 0 100_000 in
      let* skipped_lines =
        list_size (int_range 0 3)
          (pair (int_range 1 10_000) (oneofl [ "cannot parse event \"zap!\""; "a \"quoted\" error"; "" ]))
      in
      let* unlisted = int_range 0 3 in
      let* synthesized_end = bool in
      let* error = oneofl [ None; Some "line 3: cannot parse event \"zap\""; Some "evicted" ] in
      let* report = oneof [ return None; map Option.some report_gen ] in
      return
        {
          W.status;
          events;
          skipped = List.length skipped_lines + unlisted;
          skipped_lines;
          synthesized_end;
          error;
          report;
        })
  in
  QCheck.Test.make ~name:"result frame JSON line roundtrip" ~count:300 (QCheck.make frame_gen) (fun f ->
      let line = Serve.Wire.result_to_line f in
      (* single line: the framing invariant *)
      (not (String.contains line '\n'))
      &&
      match Serve.Wire.result_of_line line with
      | Ok f' -> Serve.Wire.result_to_line f' = line
      | Error _ -> false)

(* ---------------------------------------------------------------- *)
(* Session: the socket-free decoder a worker runs                     *)
(* ---------------------------------------------------------------- *)

(* A session emitting into a list, and the list so far. *)
let mk_session ?(lenient = false) ?(budget = max_int) () =
  let acc = ref [] in
  (Serve.Session.create ~lenient ~budget (fun ev -> acc := ev :: !acc), fun () -> List.rev !acc)

let feed_string s text = Serve.Session.feed s (Bytes.of_string text) ~off:0 ~len:(String.length text)

let with_trace_file text f =
  let path = Filename.temp_file "pmdb-serve-test" ".pmt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* What a whole-file read gives: events, skipped (line, error) pairs,
   the strict error and the synthesized flag. *)
let file_read ~lenient path =
  let acc = ref [] in
  let f ev = acc := ev :: !acc in
  if lenient then
    match Trace_io.iter_file path ~f with
    | Ok st -> (List.rev !acc, st.Trace_io.skipped_lines, None, st.Trace_io.synthesized)
    | Error m -> failwith m
  else
    match Trace_io.iter_file_strict path ~f with
    | Ok () -> (List.rev !acc, [], None, false)
    | Error m -> (List.rev !acc, [], Some m, false)

(* The same bytes fed to a session in the given chunk sizes (cycled). *)
let chunked_read ~lenient ~chunks text =
  let b = Bytes.of_string text and n = String.length text in
  let chunks = Array.of_list (List.map (max 1) chunks) in
  let s, events = mk_session ~lenient () in
  let rec go off i =
    if off >= n then Serve.Session.finish s
    else begin
      let len = min chunks.(i mod Array.length chunks) (n - off) in
      Serve.Session.feed s b ~off ~len;
      go (off + len) (i + 1)
    end
  in
  go 0 0;
  (events (), Serve.Session.skipped_lines s, Serve.Session.error s, Serve.Session.synthesized_end s)

(* Line soup: valid and malformed lines, blanks, comments, mid-trace
   program_ends, LF or CRLF per line, with or without a final newline. *)
let soup_gen =
  QCheck.Gen.(
    let line =
      oneofl
        [
          "register_pmem 0 4096";
          "store 1 0 8";
          "store 1 64 8";
          "clf clwb 1 0 8";
          "fence 1";
          "program_end";
          "zap!";
          "store 1 oops 8";
          "";
          "  ";
          "# note";
          "register_var 64 8 head  ptr";
        ]
    in
    let* lines = list_size (int_range 0 12) (pair line (oneofl [ "\n"; "\r\n" ])) in
    let* final_newline = bool in
    let* chunks = list_size (int_range 1 6) (int_range 1 9) in
    let* lenient = bool in
    let body = String.concat "" (List.map (fun (l, eol) -> l ^ eol) lines) in
    let text =
      if final_newline || body = "" then body
      else String.sub body 0 (String.length body - if String.ends_with ~suffix:"\r\n" body then 2 else 1)
    in
    return (text, chunks, lenient))

(* A strict session stopped by a malformed line is cut short, so the end
   rule may append a program_end that the file read, which stops with
   the error, does not. *)
let prop_session_chunk_boundaries_invisible =
  QCheck.Test.make ~name:"session chunk boundaries invisible" ~count:300
    (QCheck.make
       ~print:(fun (t, c, l) ->
         Printf.sprintf "%S chunks=[%s] lenient=%b" t (String.concat ";" (List.map string_of_int c)) l)
       soup_gen)
    (fun (text, chunks, lenient) ->
      let events, skipped, err, synthesized = with_trace_file text (file_read ~lenient) in
      let s_events, s_skipped, s_err, s_synth = chunked_read ~lenient ~chunks text in
      s_err = err && s_skipped = skipped
      &&
      if err = None then s_events = events && s_synth = synthesized
      else s_events = events @ if s_synth then [ Event.Program_end ] else [])

let test_session_strict_error_position () =
  let s, _ = mk_session () in
  feed_string s "store 1 0 8\nzap!\n";
  Alcotest.(check bool) "status is trace-error" true (Serve.Session.status s = Serve.Status.Trace_error);
  match Serve.Session.error s with
  | None -> Alcotest.fail "strict session accepted garbage"
  | Some msg ->
      Alcotest.(check bool) "line number in error" true (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")

let test_session_lenient_skips () =
  let s, events = mk_session ~lenient:true () in
  feed_string s "store 1 0 8\nzap!\nfence 1\nalso bad\nprogram_end\n";
  Alcotest.(check bool) "lenient session still ok" true (Serve.Session.status s = Serve.Status.Ok);
  Alcotest.(check (list int)) "skipped line numbers" [ 2; 4 ] (List.map fst (Serve.Session.skipped_lines s));
  Alcotest.(check int) "parsed" 3 (List.length (events ()))

(* The end rule, as a file replay applies it: at the client's end of
   input a strict session gets nothing and a lenient one a program_end
   unless its last event is one; a session the daemon cuts short gets
   the lenient rule either way. *)
let test_session_end_rule () =
  let ended ~lenient ?(cut = false) text =
    let s, events = mk_session ~lenient () in
    feed_string s text;
    if cut then Serve.Session.cut_short s Serve.Status.Timeout None else Serve.Session.finish s;
    Alcotest.(check bool) "ended" true (Serve.Session.ended s);
    (Serve.Session.synthesized_end s, events ())
  in
  let store = Event.Store { addr = 0; size = 8; tid = 1 } and fence = Event.Fence { tid = 1 } in
  let unterminated = "store 1 0 8\nfence 1" in
  Alcotest.(check bool) "strict EOF: last line parsed, nothing added" true
    (ended ~lenient:false unterminated = (false, [ store; fence ]));
  Alcotest.(check bool) "lenient EOF: program_end added" true
    (ended ~lenient:true unterminated = (true, [ store; fence; Event.Program_end ]));
  Alcotest.(check bool) "lenient EOF after a mid-trace program_end: added" true
    (ended ~lenient:true "store 1 0 8\nprogram_end\nfence 1\n"
    = (true, [ store; Event.Program_end; fence; Event.Program_end ]));
  Alcotest.(check bool) "cut short, strict: the carried line dropped, program_end added" true
    (ended ~lenient:false ~cut:true unterminated = (true, [ store; Event.Program_end ]));
  Alcotest.(check bool) "cut short after its own program_end: nothing added" true
    (ended ~lenient:false ~cut:true "store 1 0 8\nprogram_end\n" = (false, [ store; Event.Program_end ]))

(* The bytes a session holds are its carried line plus its skip
   messages; past the budget the session is evicted, cut short, and
   takes no more input. *)
let test_session_live_bytes_accounting () =
  let s, _ = mk_session () in
  Alcotest.(check int) "fresh session holds nothing" 0 (Serve.Session.held_bytes s);
  let partial = "partial-line-without-newl" in
  feed_string s ("store 1 0 8\nstore 1 8 8\n" ^ partial);
  Alcotest.(check int) "the carried line is held" (String.length partial) (Serve.Session.held_bytes s);
  let lenient, _ = mk_session ~lenient:true () in
  feed_string lenient "zap!\n";
  Alcotest.(check int) "a skip message is held"
    (String.length (snd (List.hd (Serve.Session.skipped_lines lenient))))
    (Serve.Session.held_bytes lenient);
  let small, events = mk_session ~budget:16 () in
  feed_string small ("store 1 0 8\n" ^ String.make 17 'x');
  Alcotest.(check bool) "a line past the budget evicts" true (Serve.Session.status small = Serve.Status.Evicted);
  Alcotest.(check int) "the carried line is dropped" 0 (Serve.Session.held_bytes small);
  feed_string small "store 1 8 8\n";
  Alcotest.(check bool) "cut short, then deaf" true
    (events () = [ Event.Store { addr = 0; size = 8; tid = 1 }; Event.Program_end ])

let test_session_terminate_first_wins () =
  let s, _ = mk_session () in
  Serve.Session.terminate s Serve.Status.Trace_error (Some "line 1: bad");
  Serve.Session.terminate s Serve.Status.Shutdown None;
  Alcotest.(check bool) "first terminal status wins" true
    (Serve.Session.status s = Serve.Status.Trace_error);
  Alcotest.(check bool) "error preserved" true (Serve.Session.error s = Some "line 1: bad");
  Serve.Session.cut_short s Serve.Status.Timeout (Some "idle");
  Alcotest.(check bool) "a cut keeps the first status" true (Serve.Session.error s = Some "line 1: bad")

(* ---------------------------------------------------------------- *)
(* Pool, driven directly by the test (no daemon, real worker domains) *)
(* ---------------------------------------------------------------- *)

let bug_trace_events =
  [
    Event.Register_pmem { base = 0; size = 4096 };
    Event.Store { addr = 0; size = 8; tid = 1 };
    Event.Store { addr = 0; size = 8; tid = 1 };
    Event.Clf { addr = 0; size = 8; kind = Event.Clwb; tid = 1 };
    Event.Fence { tid = 1 };
    Event.Store { addr = 64; size = 8; tid = 1 };
    Event.Program_end;
  ]

let bug_trace_text = String.concat "" (List.map (fun ev -> Trace_io.event_to_line ev ^ "\n") bug_trace_events)

let create_pool ?(workers = 1) make_sink = Serve.Pool.create ~wake:ignore ~workers ~session_budget:(8 lsl 20) make_sink

(* Offer each input; the queue has room for all of them. *)
let offer_all pool slot inputs =
  List.iter (fun input -> Alcotest.(check bool) "offered" true (Serve.Pool.offer pool slot input)) inputs

let chunk text = Serve.Pool.Chunk (Bytes.of_string text)

(* Poll a slot the worker domain fills, for at most 5 s. *)
let await what get =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match get () with
    | Some v -> v
    | None when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.001;
        go ()
    | None -> Alcotest.failf "no %s within 5 s" what
  in
  go ()

let test_pool_roundtrip () =
  let pool = create_pool ~workers:2 (fun ~heatmap:_ -> D.sink (D.create ~model:D.Strict ())) in
  let slot = Serve.Pool.open_session pool ~id:3 ~lenient:false in
  (* A line split across two chunks. *)
  let cut = String.length bug_trace_text / 2 in
  offer_all pool slot
    [ chunk (String.sub bug_trace_text 0 cut); chunk (String.sub bug_trace_text cut (String.length bug_trace_text - cut)); Serve.Pool.End ];
  let o = await "outcome" (fun () -> Serve.Pool.result slot) in
  Alcotest.(check bool) "status ok" true (o.Serve.Pool.status = Serve.Status.Ok);
  Alcotest.(check bool) "found the planted bugs" true (List.length o.Serve.Pool.report.Bug.bugs >= 2);
  Alcotest.(check bool) "no failure" true (o.Serve.Pool.report.Bug.failure = None);
  Alcotest.(check int) "every event decoded" (List.length bug_trace_events) (Serve.Pool.events slot);
  Alcotest.(check int) "no bytes left in flight" 0 (Serve.Pool.in_flight slot);
  Alcotest.(check int) "no chunks left in flight" 0 (Serve.Pool.queued slot);
  Serve.Pool.stop pool

(* A detector that raises ends its session on the worker: the outcome
   lands without the client's end of input. *)
let test_pool_detector_failure () =
  let boom = Sink.make ~name:"boom" ~on_event:(fun _ -> failwith "detector exploded") ~finish:(fun () -> Bug.empty_report "boom") in
  let pool = create_pool (fun ~heatmap:_ -> boom) in
  let slot = Serve.Pool.open_session pool ~id:0 ~lenient:false in
  offer_all pool slot [ chunk "store 1 0 8\n" ];
  let o = await "outcome without an end of input" (fun () -> Serve.Pool.result slot) in
  Alcotest.(check bool) "detector-error" true (o.Serve.Pool.status = Serve.Status.Detector_error);
  Alcotest.(check bool) "report carries the failure" true (o.Serve.Pool.report.Bug.failure <> None);
  Alcotest.(check (option string)) "the error is the failure" o.Serve.Pool.report.Bug.failure o.Serve.Pool.error;
  Serve.Pool.stop pool

(* A session whose sink constructor raises is answered with the failure,
   also when no byte ever reaches the worker (a hello then EOF). *)
let test_pool_sink_creation_failure () =
  let pool = create_pool (fun ~heatmap:_ -> failwith "no sink") in
  let slot = Serve.Pool.open_session pool ~id:0 ~lenient:false in
  let o = await "outcome" (fun () -> Serve.Pool.result slot) in
  Alcotest.(check (option string)) "report carries the creation failure"
    (Some "sink creation raised: Failure(\"no sink\")") o.Serve.Pool.report.Bug.failure;
  Alcotest.(check (option string)) "the outcome says so too" o.Serve.Pool.report.Bug.failure o.Serve.Pool.error;
  Alcotest.(check bool) "detector-error" true (o.Serve.Pool.status = Serve.Status.Detector_error);
  Serve.Pool.stop pool

(* Every -d detector gives the same wire report offline (Tool.detect)
   and through the worker pool (Tool.sink per session). *)
let test_pool_tool_parity () =
  let module Tool = Baselines.Tool in
  let model = D.Strict and config = Pmdebugger.Order_config.empty in
  let wire r = Obs.Json.to_string (Serve.Wire.report_to_json r) in
  List.iteri
    (fun id tool ->
      let offline = Tool.detect ~model ~config tool (fun e -> List.iter (Engine.emit e) bug_trace_events) in
      let pool = create_pool ~workers:2 (fun ~heatmap -> Tool.sink ~heatmap ~model ~config tool) in
      let slot = Serve.Pool.open_session pool ~id ~lenient:false in
      offer_all pool slot [ chunk bug_trace_text; Serve.Pool.End ];
      let served = await "outcome" (fun () -> Serve.Pool.result slot) in
      Serve.Pool.stop pool;
      Alcotest.(check string) (Tool.name tool ^ ": offline = pool") (wire offline) (wire served.Serve.Pool.report))
    Tool.all

(* ---------------------------------------------------------------- *)
(* The fault-tolerance gate: 8 concurrent clients over a real socket, *)
(* 2 of them misbehaving; 6 healthy reports byte-identical to the      *)
(* offline replay; the daemon stays up and answers stats.              *)
(* ---------------------------------------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "pmdb-serve-test" ".sock" in
  Sys.remove path;
  path

let test_daemon_rejects_zero_workers () =
  let socket = temp_socket () in
  let cfg = { (Serve.Daemon.default_config ~socket) with Serve.Daemon.workers = 0 } in
  Alcotest.check_raises "zero workers" (Invalid_argument "Daemon.create: workers must be >= 1") (fun () ->
      ignore (Serve.Daemon.create ~make_sink:(fun ~heatmap -> D.sink (D.create ~heatmap ())) cfg));
  Alcotest.(check bool) "no socket file left" false (Sys.file_exists socket)

let test_daemon_rejects_missing_dirs () =
  let socket = temp_socket () in
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "pmdb-no-such-dir" in
  let create cfg = ignore (Serve.Daemon.create ~make_sink:(fun ~heatmap -> D.sink (D.create ~heatmap ())) cfg) in
  let base = Serve.Daemon.default_config ~socket in
  Alcotest.check_raises "missing flightrec dir"
    (Invalid_argument (Printf.sprintf "Daemon.create: flightrec_dir %S is not a directory" missing)) (fun () ->
      create { base with Serve.Daemon.flightrec_dir = Some missing });
  let metrics_file = Filename.concat missing "m.prom" in
  Alcotest.check_raises "missing metrics dir"
    (Invalid_argument (Printf.sprintf "Daemon.create: metrics_file %S is not in an existing directory" metrics_file))
    (fun () -> create { base with Serve.Daemon.metrics_file = Some metrics_file });
  Alcotest.(check bool) "no socket file left" false (Sys.file_exists socket)

let trace_body =
  String.concat "\n"
    [
      "register_pmem 0 4096";
      "store 1 0 8";
      "store 1 0 8";
      "clf clwb 1 0 8";
      "fence 1";
      "store 1 64 8";
      "program_end";
    ]
  ^ "\n"

let offline_report body =
  match Trace_io.of_string body with
  | Error e -> Alcotest.fail ("offline parse failed: " ^ e)
  | Ok trace -> Recorder.replay trace (D.sink (D.create ~model:D.Strict ()))

(* Run a daemon made from [cfg] on its own domain, once its listener is
   up. *)
let launch ?(make_sink = fun ~heatmap -> D.sink (D.create ~model:D.Strict ~heatmap ())) ~metrics cfg =
  let daemon = Serve.Daemon.create ~metrics ~make_sink cfg in
  let d = Domain.spawn (fun () -> Serve.Daemon.run daemon) in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "daemon never bound its socket"
    else if Sys.file_exists cfg.Serve.Daemon.socket_path then ()
    else (
      Unix.sleepf 0.02;
      wait (tries - 1))
  in
  wait 250;
  (daemon, d)

let start_daemon ?(idle_timeout = 0.5) ?(workers = 2) ?flightrec_dir ?(session_budget = 8 lsl 20) ?make_sink
    ~metrics socket =
  let cfg =
    { (Serve.Daemon.default_config ~socket) with Serve.Daemon.workers; idle_timeout; flightrec_dir; session_budget }
  in
  snd (launch ?make_sink ~metrics cfg)

let test_gate_eight_clients_two_misbehaving () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~metrics socket in
  let expected = canon (offline_report trace_body) in
  let healthy =
    List.init 6 (fun i ->
        Domain.spawn (fun () ->
            Serve.Client.replay_string ~socket ~name:(Printf.sprintf "healthy-%d" i) trace_body))
  in
  let garbage = Domain.spawn (fun () -> Serve.Client.probe ~socket ~name:"bad-garbage" Serve.Client.Garbage) in
  let hang = Domain.spawn (fun () -> Serve.Client.probe ~socket ~name:"bad-hang" Serve.Client.Hang) in
  List.iteri
    (fun i d ->
      match Domain.join d with
      | Error e -> Alcotest.fail (Printf.sprintf "healthy client %d: %s" i e)
      | Ok frame ->
          Alcotest.(check bool)
            (Printf.sprintf "healthy client %d status ok" i)
            true
            (frame.Serve.Wire.status = Serve.Status.Ok);
          (match frame.Serve.Wire.report with
          | None -> Alcotest.fail (Printf.sprintf "healthy client %d got no report" i)
          | Some r ->
              Alcotest.(check string)
                (Printf.sprintf "healthy client %d byte-identical to offline replay" i)
                expected (canon r)))
    healthy;
  (match Domain.join garbage with
  | Error e -> Alcotest.fail ("garbage probe: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "garbage session quarantined as trace-error" true
        (frame.Serve.Wire.status = Serve.Status.Trace_error);
      Alcotest.(check bool) "structured parse error" true
        (match frame.Serve.Wire.error with Some e -> String.length e > 0 | None -> false));
  (match Domain.join hang with
  | Error e -> Alcotest.fail ("hang probe: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "hung session reaped as timeout" true
        (frame.Serve.Wire.status = Serve.Status.Timeout));
  (* The daemon survived and its books balance. *)
  (match Serve.Client.stats ~socket with
  | Error e -> Alcotest.fail ("stats after the storm: " ^ e)
  | Ok snap ->
      let c ?labels name = Obs.Metrics.counter_value snap ?labels name in
      Alcotest.(check int) "sessions opened" 8 (c "serve_sessions_opened_total");
      Alcotest.(check int) "exactly one trace quarantine" 1
        (c ~labels:[ ("reason", "trace") ] "serve_quarantines_total");
      Alcotest.(check int) "exactly one timeout" 1 (c "serve_timeouts_total");
      Alcotest.(check int) "no evictions" 0 (c "serve_evictions_total");
      Alcotest.(check int) "six healthy closes" 6
        (c ~labels:[ ("status", "ok") ] "serve_sessions_closed_total");
      (* Domain-safe telemetry: the stats snapshot is merged across the
         dispatch domain and every worker's published registry — the
         per-domain serve_worker_bytes_total series must balance the
         bytes the dispatch side read and forwarded. *)
      let sum name =
        List.fold_left
          (fun acc (s : Obs.Metrics.sample) ->
            match s.Obs.Metrics.value with
            | Obs.Metrics.V_counter n when s.Obs.Metrics.name = name -> acc + n
            | _ -> acc)
          0 snap
      in
      Alcotest.(check bool) "worker series non-zero" true (sum "serve_worker_events_total" > 0);
      Alcotest.(check bool) "events counted where they are decoded" true (c "serve_events_total" > 0);
      Alcotest.(check bool) "bytes forwarded" true (c "serve_bytes_read_total" > 0);
      Alcotest.(check int) "worker domains decoded every byte the dispatch domain read"
        (c "serve_bytes_read_total")
        (sum "serve_worker_bytes_total"));
  (match Serve.Client.stop ~socket with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists socket)

(* ---------------------------------------------------------------- *)
(* Soak: identical client waves leave no session state behind.       *)
(* ---------------------------------------------------------------- *)

(* Bursts of four stores to one line, a clwb and a fence, cycling over
   4096 lines. Every other burst skips its writeback, so each session's
   report carries hundreds of findings: a daemon that retains closed
   sessions retains those reports too. *)
let soak_body ~bursts =
  let b = Buffer.create (bursts * 96) in
  let line ev =
    Buffer.add_string b (Trace_io.event_to_line ev);
    Buffer.add_char b '\n'
  in
  let lines = 4096 in
  line (Event.Register_pmem { base = 0; size = lines * 64 });
  for i = 0 to bursts - 1 do
    let addr = i mod lines * 64 in
    for s = 0 to 3 do
      line (Event.Store { addr = addr + (s * 16); size = 16; tid = 0 })
    done;
    if i mod 2 <> 0 then line (Event.Clf { addr; size = 64; kind = Event.Clwb; tid = 0 });
    line (Event.Fence { tid = 0 })
  done;
  line Event.Program_end;
  Buffer.contents b

(* One warm-up wave, then three identical 4-client waves through an
   in-process daemon. Every report must match the offline replay, no
   session connection may outlive its wave, and the live heap after the
   last wave may exceed the post-warm-up heap by at most [slack_words]
   (64k words, 512 KB on 64-bit) for telemetry and allocator jitter. A
   daemon that kept each closed connection (session state plus report)
   grows by about 18k words per session, over 200k across the twelve. *)
let test_soak_waves_leave_no_session_state () =
  let slack_words = 65_536 in
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~idle_timeout:30.0 ~metrics socket in
  let body = soak_body ~bursts:1_000 in
  let expected = canon (offline_report body) in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let wave w =
    let clients =
      List.init 4 (fun i ->
          Domain.spawn (fun () -> Serve.Client.replay_string ~socket ~name:(Printf.sprintf "soak-%d" i) body))
    in
    List.iteri
      (fun i d ->
        match Domain.join d with
        | Error e -> Alcotest.fail (Printf.sprintf "wave %d client %d: %s" w i e)
        | Ok frame -> (
            Alcotest.(check bool) (Printf.sprintf "wave %d client %d status ok" w i) true
              (frame.Serve.Wire.status = Serve.Status.Ok);
            match frame.Serve.Wire.report with
            | None -> Alcotest.fail (Printf.sprintf "wave %d client %d got no report" w i)
            | Some r -> Alcotest.(check string) (Printf.sprintf "wave %d client %d = offline" w i) expected (canon r)))
      clients;
    match Serve.Client.stats ~socket with
    | Error e -> Alcotest.fail ("stats: " ^ e)
    | Ok snap ->
        (* The gauge counts the connections open when the snapshot is
           taken, and this stats request is one of them: 1 means no
           session connection outlived its wave. *)
        let active =
          match Obs.Metrics.find snap "serve_sessions_active" with Some (Obs.Metrics.V_gauge g) -> g | _ -> nan
        in
        Alcotest.(check (float 0.0)) (Printf.sprintf "wave %d: only the stats request is open" w) 1.0 active
  in
  wave 0;
  let before = live_words () in
  for w = 1 to 3 do
    wave w
  done;
  let after = live_words () in
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  Alcotest.(check bool)
    (Printf.sprintf "live heap %d -> %d words after three waves (slack %d)" before after slack_words)
    true
    (after - before <= slack_words)

(* A fresh directory for [f], removed with its files afterwards, also
   when [f] fails. *)
let with_temp_dir f =
  let d = Filename.temp_file "pmdb-flightrec" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat d name)) (Sys.readdir d);
      Unix.rmdir d)
    (fun () -> f d)

(* A session whose detector raises mid-stream is quarantined with a
   detector-error frame; its sibling on the same daemon is unharmed.
   The flight recorder (always on — the byte-identical report checks
   above already run with it recording) must leave a black-box dump
   naming the failing session. *)
let test_gate_detector_quarantine_isolated () =
  with_temp_dir @@ fun dumpdir ->
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let calls = Atomic.make 0 in
  let cfg =
    {
      (Serve.Daemon.default_config ~socket) with
      Serve.Daemon.workers = 2;
      idle_timeout = 5.0;
      flightrec_dir = Some dumpdir;
    }
  in
  (* Session ids are assigned in accept order starting at 1; worker =
     id mod workers keeps both sessions apart, and the first session
     created on the daemon gets the exploding sink. *)
  let make_sink ~heatmap:_ =
    if Atomic.fetch_and_add calls 1 = 0 then
      Sink.make ~name:"boom"
        ~on_event:(fun ev -> match ev with Event.Fence _ -> failwith "boom mid-stream" | _ -> ())
        ~finish:(fun () -> Bug.empty_report "boom")
    else D.sink (D.create ~model:D.Strict ())
  in
  let daemon = Serve.Daemon.create ~metrics ~make_sink cfg in
  let handle = Domain.spawn (fun () -> Serve.Daemon.run daemon) in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "daemon never bound its socket"
    else if Sys.file_exists socket then ()
    else (
      Unix.sleepf 0.02;
      wait (tries - 1))
  in
  wait 250;
  let first = Serve.Client.replay_string ~socket ~name:"doomed" trace_body in
  (match first with
  | Error e -> Alcotest.fail ("doomed client: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "detector failure becomes detector-error" true
        (frame.Serve.Wire.status = Serve.Status.Detector_error));
  (match Serve.Client.replay_string ~socket ~name:"bystander" trace_body with
  | Error e -> Alcotest.fail ("bystander client: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "sibling session unaffected" true (frame.Serve.Wire.status = Serve.Status.Ok));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  (* The black box: the quarantine left a dump naming the failing
     session, with recorded entries, plus a Perfetto twin. *)
  let json_path = Filename.concat dumpdir "flightrec-doomed-detector-quarantine-0.json" in
  Alcotest.(check bool) "dump written" true (Sys.file_exists json_path);
  (match Obs.Json.of_file json_path with
  | Error e -> Alcotest.fail ("dump unreadable: " ^ e)
  | Ok doc ->
      (match Obs.Flightrec.validate_json doc with
      | Error e -> Alcotest.fail ("dump malformed: " ^ e)
      | Ok entries -> Alcotest.(check bool) "dump non-empty" true (entries > 0));
      let meta_str field =
        Option.bind (Obs.Json.member "meta" doc) (fun m ->
            Option.bind (Obs.Json.member field m) Obs.Json.to_str)
      in
      Alcotest.(check (option string)) "dump names the failing session" (Some "doomed")
        (meta_str "session");
      Alcotest.(check (option string)) "dump carries the reason" (Some "detector-quarantine")
        (meta_str "reason"));
  let perfetto_path = Filename.concat dumpdir "flightrec-doomed-detector-quarantine-0.perfetto.json" in
  (match Obs.Json.of_file perfetto_path with
  | Error e -> Alcotest.fail ("perfetto dump unreadable: " ^ e)
  | Ok doc -> (
      match Obs.Perfetto.validate_json doc with
      | Error e -> Alcotest.fail ("perfetto dump malformed: " ^ e)
      | Ok n -> Alcotest.(check bool) "perfetto dump non-empty" true (n > 0)))

(* ---------------------------------------------------------------- *)
(* Following stats: a poll of live merged snapshots                   *)
(* ---------------------------------------------------------------- *)

let test_stats_stream_follow () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~idle_timeout:5.0 ~metrics socket in
  (* Put a session through first so frames carry real counters. *)
  (match Serve.Client.replay_string ~socket ~name:"warm" trace_body with
  | Error e -> Alcotest.fail ("warm session: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "warm session ok" true (frame.Serve.Wire.status = Serve.Status.Ok));
  let frames = ref [] in
  (match
     Serve.Client.stats_follow ~socket ~frames:3
       ~on_frame:(fun snap ->
         frames := snap :: !frames;
         true)
       ()
   with
  | Error e -> Alcotest.fail ("stats_follow: " ^ e)
  | Ok n -> Alcotest.(check int) "stream closed after the requested frames" 3 n);
  Alcotest.(check int) "every frame delivered to on_frame" 3 (List.length !frames);
  List.iter
    (fun snap ->
      Alcotest.(check int) "frame sees the warm session" 1
        (Obs.Metrics.counter_value snap "serve_sessions_opened_total");
      Alcotest.(check bool) "frame is merged: worker series present" true
        (List.exists
           (fun (s : Obs.Metrics.sample) -> s.Obs.Metrics.name = "serve_worker_events_total")
           snap))
    !frames;
  (* The daemon streams nothing: the old stats_stream hello is answered
     like any unknown hello, with a protocol-error frame. *)
  (match Serve.Client.raw ~socket "pmdb-serve/1 stats_stream 2\n" with
  | Error e -> Alcotest.fail ("raw stats_stream: " ^ e)
  | Ok reply -> (
      let line = match String.index_opt reply '\n' with Some i -> String.sub reply 0 i | None -> reply in
      match Serve.Wire.result_of_line line with
      | Error e -> Alcotest.fail ("reply is not a result frame: " ^ e)
      | Ok frame ->
          Alcotest.(check string) "answered with a protocol-error frame" "protocol-error"
            (Serve.Status.name frame.Serve.Wire.status)));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle

(* The observability verbs end to end: a daemon with the heatmap on
   and a flight-recorder directory serves the merged hot-line table
   over the wire, observes session end-to-end latency, and leaves a
   valid causal Perfetto dump at shutdown. *)
let test_heatmap_verb_and_shutdown_trace () =
  with_temp_dir @@ fun tracedir ->
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let cfg =
    {
      (Serve.Daemon.default_config ~socket) with
      Serve.Daemon.workers = 2;
      idle_timeout = 5.0;
      heatmap_cap = 64;
      flightrec_dir = Some tracedir;
    }
  in
  let daemon =
    Serve.Daemon.create ~metrics ~make_sink:(fun ~heatmap -> D.sink (D.create ~model:D.Strict ~heatmap ())) cfg
  in
  let handle = Domain.spawn (fun () -> Serve.Daemon.run daemon) in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "daemon never bound its socket"
    else if Sys.file_exists socket then ()
    else (
      Unix.sleepf 0.02;
      wait (tries - 1))
  in
  wait 250;
  (match Serve.Client.replay_string ~socket ~name:"hot" trace_body with
  | Error e -> Alcotest.fail ("session: " ^ e)
  | Ok frame -> Alcotest.(check bool) "session ok" true (frame.Serve.Wire.status = Serve.Status.Ok));
  (* The heatmap verb returns the merged per-worker tables: trace_body
     touches lines 0 and 1, stores dominating line 0. *)
  (match Serve.Client.heatmap ~socket with
  | Error e -> Alcotest.fail ("heatmap verb: " ^ e)
  | Ok snap ->
      Alcotest.(check int) "both touched lines tracked" 2 snap.Obs.Heatmap.s_tracked;
      let r0 = List.find (fun r -> r.Obs.Heatmap.r_line = 0) snap.Obs.Heatmap.s_rows in
      Alcotest.(check int) "line 0 stores" 2 r0.Obs.Heatmap.r_stores;
      Alcotest.(check int) "line 0 clfs" 1 r0.Obs.Heatmap.r_clfs);
  (* Stage attribution reaches the daemon's registry: the session's
     end-to-end histogram observed exactly one session. *)
  (match Serve.Client.stats ~socket with
  | Error e -> Alcotest.fail ("stats: " ^ e)
  | Ok snap -> (
      match Obs.Metrics.find snap "serve_session_e2e_seconds" with
      | Some (Obs.Metrics.V_hist h) -> Alcotest.(check int) "one e2e observation" 1 h.Obs.Metrics.h_count
      | _ -> Alcotest.fail "serve_session_e2e_seconds histogram missing"));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  (* Shutdown leaves one dump, and its merged causal trace validates. *)
  let dumps = Sys.readdir tracedir |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string))
    "one shutdown dump"
    [ "flightrec-daemon-shutdown-0.json"; "flightrec-daemon-shutdown-0.perfetto.json" ]
    dumps;
  match Obs.Json.of_file (Filename.concat tracedir "flightrec-daemon-shutdown-0.perfetto.json") with
  | Error e -> Alcotest.fail ("trace dump unreadable: " ^ e)
  | Ok doc -> (
      match Obs.Perfetto.validate_json doc with
      | Ok n -> Alcotest.(check bool) (Printf.sprintf "%d trace events" n) true (n > 0)
      | Error e -> Alcotest.fail ("trace dump invalid: " ^ e))

(* ---------------------------------------------------------------- *)
(* Protocol fuzz: whatever bytes arrive, the daemon answers every      *)
(* non-empty connection with one parseable result frame and stays up.  *)
(* ---------------------------------------------------------------- *)

let fuzz_input_gen =
  QCheck.Gen.(
    let hello =
      oneofl
        [
          "pmdb-serve/1 session fz";
          "pmdb-serve/1 session fz lenient";
          "pmdb-serve/1 session fz strict";
          "pmdb-serve/1 session bad/name";
          "pmdb-serve/1 bogusverb";
          "pmdb-serve/2 session fz";
          "not even close";
          "pmdb-serve/1 session";
          "pmdb-serve/1";
        ]
    in
    let body_line =
      oneofl
        [
          "store 1 0 8";
          "store 1 64 8";
          "clf clwb 1 0 8";
          "fence 1";
          "register_pmem 0 4096";
          "program_end";
          "zap!";
          "store 1 oops 8";
          "";
          "   ";
        ]
    in
    let* h = hello in
    let* lines = list_size (int_range 0 8) body_line in
    let* terminated = bool in
    let text = String.concat "\n" (h :: lines) in
    return (if terminated then text ^ "\n" else text))

let prop_fuzz_always_structured_reply socket =
  QCheck.Test.make ~name:"daemon answers garbage with structured frames" ~count:40
    (QCheck.make fuzz_input_gen) (fun input ->
      match Serve.Client.raw ~socket input with
      | Error _ -> false (* connection refused or reset: the daemon died *)
      | Ok reply ->
          let line = match String.index_opt reply '\n' with
            | Some i -> String.sub reply 0 i
            | None -> reply
          in
          String.length line > 0
          && (match Serve.Wire.result_of_line line with Ok _ -> true | Error _ -> false))

let test_fuzz_protocol () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~idle_timeout:5.0 ~workers:1 ~metrics socket in
  let res =
    try
      QCheck.Test.check_exn (prop_fuzz_always_structured_reply socket);
      Ok ()
    with e -> Error (Printexc.to_string e)
  in
  (* A client that hangs up before its reply costs the daemon one failed
     write, not its life. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let hello = "pmdb-serve/1 session gone\nstore 1 0 8\n" in
  ignore (Unix.write_substring fd hello 0 (String.length hello));
  Unix.close fd;
  (* The daemon must still be alive and coherent after the barrage. *)
  (match Serve.Client.replay_string ~socket ~name:"after-fuzz" trace_body with
  | Error e -> Alcotest.fail ("daemon dead after fuzz: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "healthy session still works" true
        (frame.Serve.Wire.status = Serve.Status.Ok));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  match res with Ok () -> () | Error e -> Alcotest.fail e

(* ---------------------------------------------------------------- *)
(* Traces that do not end cleanly: `pmdb replay` (the file decoder),  *)
(* a session fed through the pool and a live daemon give one report;  *)
(* a strict malformed line stops all of them with one error.          *)
(* ---------------------------------------------------------------- *)

let no_end = "register_pmem 0 4096\nstore 0 64 8\nstore 0 128 8\n"

let mid_end = "register_pmem 0 4096\nstore 0 64 8\nprogram_end\nstore 0 128 8\n"

(* Line 3 is malformed; line 5 has a negative address. *)
let bad_line = "register_pmem 0 4096\nstore 0 64 8\nthis is not an event\nstore 0 128 8\n"

let negative_addr = "register_pmem 0 4096\nstore 0 64 8\nfence 0\nstore 0 128 8\nstore 0 -8 8\n"

let cut_traces =
  [
    ("no program_end", no_end, false);
    ("no program_end", no_end, true);
    ("mid-trace program_end", mid_end, true);
    ("malformed line", bad_line, false);
    ("negative address", negative_addr, false);
    ("malformed line", bad_line, true);
  ]

let test_cut_traces_offline_pool_daemon () =
  let module Tool = Baselines.Tool in
  let model = D.Strict and config = Pmdebugger.Order_config.empty in
  let wire r = Obs.Json.to_string (Serve.Wire.report_to_json r) in
  let make_sink tool ~heatmap = Tool.sink ~heatmap ~model ~config tool in
  List.iter
    (fun tool ->
      let socket = temp_socket () in
      let handle = start_daemon ~idle_timeout:5.0 ~make_sink:(make_sink tool) ~metrics:Obs.Metrics.disabled socket in
      let pool = create_pool (make_sink tool) in
      List.iteri
        (fun id (what, text, lenient) ->
          let mode = if lenient then "lenient" else "strict" in
          let label how = Printf.sprintf "%s, %s, %s: offline = %s" (Tool.name tool) what mode how in
          let strict_error =
            if lenient then None
            else
              with_trace_file text (fun path ->
                  Result.fold ~ok:(fun () -> None) ~error:Option.some (Trace_io.iter_file_strict path ~f:ignore))
          in
          match strict_error with
          | Some error -> (
              (* `pmdb replay` stops at the line with this error and no
                 report; a session stops with the same error, and the
                 daemon's frame carries it as [Trace_error], for which
                 `replay --daemon` prints no report either. *)
              let session, _ = mk_session () in
              feed_string session text;
              Alcotest.(check (option string)) (label "session") (Some error) (Serve.Session.error session);
              match Serve.Client.replay_string ~socket ~name:"cut" ~lenient text with
              | Error e -> Alcotest.fail e
              | Ok frame ->
                  Alcotest.(check string) (label "daemon status") "trace-error"
                    (Serve.Status.name frame.Serve.Wire.status);
                  Alcotest.(check (option string)) (label "daemon error") (Some error) frame.Serve.Wire.error)
          | None ->
              (* What `pmdb replay [--lenient]` runs, and the lines it
                 warns about. *)
              let skipped = ref [] in
              let offline =
                with_trace_file text (fun path ->
                    Tool.detect ~model ~config tool (fun e ->
                        let streamed =
                          if lenient then
                            Result.map
                              (fun st -> skipped := st.Trace_io.skipped_lines)
                              (Trace_io.iter_file path ~f:(Engine.emit e))
                          else Trace_io.iter_file_strict path ~f:(Engine.emit e)
                        in
                        Result.iter_error Alcotest.fail streamed))
              in
              let slot = Serve.Pool.open_session pool ~id ~lenient in
              offer_all pool slot [ chunk text; Serve.Pool.End ];
              let pooled = await "pool outcome" (fun () -> Serve.Pool.result slot) in
              Alcotest.(check string) (label "pool") (wire offline) (wire pooled.Serve.Pool.report);
              let skipped_lines = Alcotest.(list (pair int string)) in
              Alcotest.(check skipped_lines) (label "pool, skipped lines") !skipped pooled.Serve.Pool.skipped_lines;
              match Serve.Client.replay_string ~socket ~name:"cut" ~lenient text with
              | Error e -> Alcotest.fail e
              | Ok { Serve.Wire.report = None; _ } -> Alcotest.fail "daemon sent no report"
              | Ok ({ Serve.Wire.report = Some served; _ } as frame) ->
                  Alcotest.(check string) (label "daemon") (wire offline) (wire served);
                  Alcotest.(check skipped_lines) (label "daemon, skipped lines") !skipped frame.Serve.Wire.skipped_lines)
        cut_traces;
      Serve.Pool.stop pool;
      (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
      Domain.join handle)
    Tool.all

(* ---------------------------------------------------------------- *)
(* A session runs at the worker's pace, not the select tick's         *)
(* ---------------------------------------------------------------- *)

(* About 110,000 events through a one-worker daemon. A daemon that
   moved a bounded batch of events to its worker per 20 ms tick would
   need about 2 s; one that forwards bytes as it reads them finishes
   in a fraction of a second. *)
let test_session_not_paced_by_tick () =
  let socket = temp_socket () in
  let handle = start_daemon ~idle_timeout:5.0 ~workers:1 ~metrics:Obs.Metrics.disabled socket in
  let body = soak_body ~bursts:20_000 in
  let t0 = Unix.gettimeofday () in
  let frame = Serve.Client.replay_string ~socket ~name:"fast" body in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  (match frame with
  | Error e -> Alcotest.fail e
  | Ok frame ->
      Alcotest.(check bool) "status ok" true (frame.Serve.Wire.status = Serve.Status.Ok);
      Alcotest.(check bool) "over 100,000 events" true (frame.Serve.Wire.events > 100_000));
  Alcotest.(check bool) (Printf.sprintf "session took %.3f s (< 1 s)" elapsed) true (elapsed < 1.0)

(* A budget bounds what a session holds, not how fast it sends: one line
   longer than the budget is evicted with a partial report, while a
   client streaming far more than the budget in short lines is only
   throttled and gets its whole report. *)
let test_budget_evicts_long_line_not_fast_client () =
  let budget = 65_536 in
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~idle_timeout:5.0 ~session_budget:budget ~metrics socket in
  let fast_body = soak_body ~bursts:20_000 in
  Alcotest.(check bool) "the fast client sends over 10x the budget" true (String.length fast_body > 10 * budget);
  let long_line = "register_pmem 0 4096\nstore 1 0 8\n" ^ String.make (4 * budget) 'x' ^ "\nfence 1\n" in
  let long = Serve.Client.replay_string ~socket ~name:"long-line" long_line in
  let fast = Serve.Client.replay_string ~socket ~name:"fast" fast_body in
  let evictions =
    match Serve.Client.stats ~socket with
    | Ok snap -> Obs.Metrics.counter_value snap "serve_evictions_total"
    | Error e -> Alcotest.fail ("stats: " ^ e)
  in
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  (match long with
  | Error e -> Alcotest.fail ("long line: " ^ e)
  | Ok frame -> (
      Alcotest.(check string) "long line evicted" "evicted" (Serve.Status.name frame.Serve.Wire.status);
      match frame.Serve.Wire.report with
      | None -> Alcotest.fail "evicted session got no report"
      | Some r ->
          (* register_pmem, the store and the end rule's program_end. *)
          Alcotest.(check int) "partial report" 3 r.Bug.events_processed;
          Alcotest.(check bool) "end rule applied" true frame.Serve.Wire.synthesized_end));
  (match fast with
  | Error e -> Alcotest.fail ("fast client: " ^ e)
  | Ok frame -> (
      Alcotest.(check string) "fast client ok" "ok" (Serve.Status.name frame.Serve.Wire.status);
      match frame.Serve.Wire.report with
      | None -> Alcotest.fail "fast client got no report"
      | Some r -> Alcotest.(check string) "fast client = offline" (canon (offline_report fast_body)) (canon r)));
  Alcotest.(check int) "one eviction" 1 evictions

(* ---------------------------------------------------------------- *)
(* One client's eviction or throttling costs no one else              *)
(* ---------------------------------------------------------------- *)

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A --lenient client streaming garbage far past a 1 MiB budget: the
   skip messages it makes count toward the budget, so the session is
   evicted while the client is still writing into a fd the daemon no
   longer reads. Its reply must be a parseable partial report that
   lists a bounded prefix of the skipped lines, and a healthy session
   started meanwhile must not wait for it. *)
let test_lenient_flood_evicted_promptly () =
  let socket = temp_socket () in
  let handle = start_daemon ~idle_timeout:5.0 ~session_budget:(1 lsl 20) ~metrics:Obs.Metrics.disabled socket in
  let flood = "register_pmem 0 4096\nstore 1 0 8\n" ^ String.concat "" (List.init 500_000 (fun _ -> "garbage\n")) in
  let flooder =
    Domain.spawn (fun () -> timed (fun () -> Serve.Client.replay_string ~socket ~name:"flood" ~lenient:true flood))
  in
  (* A strict client whose parse error ends its session, also while it
     is still writing, with a partial report larger than a socket
     buffer (Linux's default for Unix sockets is about 208 KiB). *)
  let prefix = soak_body ~bursts:20_000 in
  let prefix = String.sub prefix 0 (String.length prefix - String.length "program_end\n") in
  let strict_body = prefix ^ "garbage\n" ^ String.concat "" (List.init 500_000 (fun _ -> "fence 1\n")) in
  let strict =
    Domain.spawn (fun () -> timed (fun () -> Serve.Client.replay_string ~socket ~name:"strict" strict_body))
  in
  Unix.sleepf 0.05;
  let healthy_body = soak_body ~bursts:200 in
  let healthy, healthy_s = timed (fun () -> Serve.Client.replay_string ~socket ~name:"healthy" healthy_body) in
  let flooded, flood_s = Domain.join flooder in
  let stricted, strict_s = Domain.join strict in
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  (match flooded with
  | Error e -> Alcotest.fail ("flooding client: " ^ e)
  | Ok frame -> (
      Alcotest.(check string) "flood evicted" "evicted" (Serve.Status.name frame.Serve.Wire.status);
      let listed = frame.Serve.Wire.skipped_lines in
      let listed_bytes = List.fold_left (fun acc (_, msg) -> acc + String.length msg) 0 listed in
      Alcotest.(check bool) "some skipped lines listed" true (listed <> []);
      Alcotest.(check bool) "listing bounded" true (listed_bytes <= Serve.Wire.max_skipped_bytes);
      Alcotest.(check bool) "count covers the unlisted lines" true (frame.Serve.Wire.skipped > List.length listed);
      Alcotest.(check (list int)) "listed lines are the first ones" (List.init (List.length listed) (fun i -> i + 3))
        (List.map fst listed);
      match frame.Serve.Wire.report with
      | None -> Alcotest.fail "evicted session got no report"
      | Some r -> Alcotest.(check int) "partial report" 3 r.Bug.events_processed));
  (match stricted with
  | Error e -> Alcotest.fail ("strict client: " ^ e)
  | Ok frame -> (
      Alcotest.(check string) "strict client quarantined" "trace-error" (Serve.Status.name frame.Serve.Wire.status);
      match frame.Serve.Wire.report with
      | None -> Alcotest.fail "quarantined session got no report"
      | Some r ->
          Alcotest.(check bool) "report larger than a socket buffer" true
            (String.length (Obs.Json.to_string ~indent:false (Serve.Wire.report_to_json r)) > 512 * 1024)));
  (match healthy with
  | Error e -> Alcotest.fail ("healthy client: " ^ e)
  | Ok frame -> (
      Alcotest.(check string) "healthy client ok" "ok" (Serve.Status.name frame.Serve.Wire.status);
      match frame.Serve.Wire.report with
      | None -> Alcotest.fail "healthy client got no report"
      | Some r -> Alcotest.(check string) "healthy = offline" (canon (offline_report healthy_body)) (canon r)));
  Alcotest.(check bool) (Printf.sprintf "flooding client answered in %.2f s (< 2 s)" flood_s) true (flood_s < 2.0);
  Alcotest.(check bool) (Printf.sprintf "strict client answered in %.2f s (< 2 s)" strict_s) true (strict_s < 2.0);
  Alcotest.(check bool) (Printf.sprintf "healthy client answered in %.2f s (< 2 s)" healthy_s) true (healthy_s < 2.0)

(* A session throttled at a small budget by a slow detector spends
   longer paused than the idle timeout, yet its client never stops
   sending: time the daemon spends not reading it is not idleness. *)
let test_pause_is_not_idleness () =
  let socket = temp_socket () in
  let make_sink ~heatmap:_ =
    let n = ref 0 in
    Sink.make ~name:"slow"
      ~on_event:(fun _ ->
        incr n;
        if !n mod 32 = 0 then Unix.sleepf 0.01)
      ~finish:(fun () -> { (Bug.empty_report "slow") with Bug.events_processed = !n })
  in
  let handle =
    start_daemon ~idle_timeout:0.15 ~workers:1 ~session_budget:4096 ~make_sink ~metrics:Obs.Metrics.disabled socket
  in
  let body = soak_body ~bursts:500 in
  let events = List.length (String.split_on_char '\n' body) - 1 in
  let frame = Serve.Client.replay_string ~socket ~name:"throttled" body in
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  match frame with
  | Error e -> Alcotest.fail e
  | Ok frame ->
      Alcotest.(check string) "throttled client ok" "ok" (Serve.Status.name frame.Serve.Wire.status);
      Alcotest.(check int) "every event decoded" events frame.Serve.Wire.events

(* ---------------------------------------------------------------- *)
(* The loop wakes only for work                                        *)
(* ---------------------------------------------------------------- *)

(* An unbounded follow polls until the daemon goes away, and then ends
   with the snapshots it saw, not an error. *)
let test_follow_ends_when_daemon_stops () =
  let socket = temp_socket () in
  let daemon, handle = launch ~metrics:(Obs.Metrics.create ()) (Serve.Daemon.default_config ~socket) in
  let seen = Atomic.make 0 in
  let follower =
    Domain.spawn (fun () ->
        Serve.Client.stats_follow ~socket
          ~on_frame:(fun snap ->
            if List.exists (fun (s : Obs.Metrics.sample) -> s.Obs.Metrics.name = "serve_sessions_active") snap then
              Atomic.incr seen;
            true)
          ())
  in
  await "first snapshot" (fun () -> if Atomic.get seen >= 1 then Some () else None);
  Serve.Daemon.request_stop daemon;
  Domain.join handle;
  match Domain.join follower with
  | Error e -> Alcotest.fail ("follow after stop: " ^ e)
  | Ok n ->
      Alcotest.(check bool) (Printf.sprintf "%d snapshot(s) followed" n) true (n >= 1);
      Alcotest.(check int) "every snapshot was live" n (Atomic.get seen)

let session_gauges = [ "serve_queue_depth"; "serve_live_bytes"; "serve_events_per_sec" ]

(* A hand-driven session client: connect, then send text as given. *)
let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send fd text = ignore (Unix.write_substring fd text 0 (String.length text))

(* Half-close, read the result frame and close; a receive timeout set
   on [fd] fails the test. *)
let finish_session fd =
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let reply = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes reply chunk 0 n;
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Unix.close fd;
        Alcotest.fail "no result frame before the receive timeout"
  in
  drain ();
  Unix.close fd;
  match Serve.Wire.result_of_line (String.trim (Buffer.contents reply)) with
  | Ok frame -> frame
  | Error e -> Alcotest.fail ("result frame: " ^ e)

(* Session gauges are read when a snapshot is taken: a live session has
   them, and twenty closed sessions leave none behind. *)
let test_closed_sessions_leave_no_gauges () =
  let socket = temp_socket () in
  let handle = start_daemon ~idle_timeout:5.0 ~metrics:(Obs.Metrics.create ()) socket in
  let stats () = match Serve.Client.stats ~socket with Ok snap -> snap | Error e -> Alcotest.fail ("stats: " ^ e) in
  let gauges_of snap =
    List.filter (fun (s : Obs.Metrics.sample) -> List.mem s.Obs.Metrics.name session_gauges) snap
  in
  let fd = connect socket in
  send fd "pmdb-serve/1 session live\nregister_pmem 0 4096\n";
  let live = [ ("session", "live") ] in
  await "gauge series for the live session" (fun () ->
      let snap = stats () in
      if List.for_all (fun name -> Obs.Metrics.find snap ~labels:live name <> None) session_gauges then Some ()
      else None);
  send fd "program_end\n";
  Alcotest.(check string) "live session ok" "ok" (Serve.Status.name (finish_session fd).Serve.Wire.status);
  for i = 1 to 20 do
    match Serve.Client.replay_string ~socket ~name:(Printf.sprintf "gone-%d" i) trace_body with
    | Ok frame -> Alcotest.(check string) (Printf.sprintf "session %d ok" i) "ok" (Serve.Status.name frame.Serve.Wire.status)
    | Error e -> Alcotest.fail e
  done;
  let snap = stats () in
  Alcotest.(check int) "21 sessions opened" 21 (Obs.Metrics.counter_value snap "serve_sessions_opened_total");
  Alcotest.(check (list string)) "no gauge series for closed sessions" []
    (List.map
       (fun (s : Obs.Metrics.sample) -> s.Obs.Metrics.name ^ "{" ^ Obs.Metrics.labels_str s.Obs.Metrics.labels ^ "}")
       (gauges_of snap));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle

(* With no traffic at all, the metrics-file deadline alone wakes the
   loop: the file is written at once and rewritten about once a
   second. *)
let test_metrics_file_written_without_traffic () =
  with_temp_dir @@ fun dir ->
  let socket = temp_socket () in
  let path = Filename.concat dir "metrics.prom" in
  let cfg = { (Serve.Daemon.default_config ~socket) with Serve.Daemon.metrics_file = Some path } in
  let daemon, handle = launch ~metrics:(Obs.Metrics.create ()) cfg in
  let mtime () = try Some (Unix.stat path).Unix.st_mtime with Unix.Unix_error _ -> None in
  let written, first_s = timed (fun () -> await "metrics file" mtime) in
  let _, rewrite_s =
    timed (fun () ->
        await "rewrite of the metrics file" (fun () ->
            match mtime () with Some m when m > written -> Some m | _ -> None))
  in
  Serve.Daemon.request_stop daemon;
  Domain.join handle;
  Alcotest.(check bool) (Printf.sprintf "written after %.2f s (<= 2 s)" first_s) true (first_s <= 2.0);
  Alcotest.(check bool) (Printf.sprintf "rewritten %.2f s later (<= 2 s)" rewrite_s) true (rewrite_s <= 2.0);
  match Obs.Prometheus.validate (In_channel.with_open_bin path In_channel.input_all) with
  | Ok n -> Alcotest.(check bool) (Printf.sprintf "%d samples" n) true (n > 0)
  | Error e -> Alcotest.fail ("metrics file: " ^ e)

(* A one-worker daemon with a slow detector, fed one line per write:
   more chunks arrive than the worker's queue holds, so messages park on
   the full queue and the session's fd is paused. Only the worker's
   room wake resumes it; without that wake the session never ends (the
   socket timeouts turn the stall into a failure). *)
let test_full_worker_queue_session_finishes () =
  let socket = temp_socket () in
  let make_sink ~heatmap:_ =
    let n = ref 0 in
    Sink.make ~name:"slow"
      ~on_event:(fun _ ->
        incr n;
        Unix.sleepf 0.002)
      ~finish:(fun () -> { (Bug.empty_report "slow") with Bug.events_processed = !n })
  in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~idle_timeout:5.0 ~workers:1 ~make_sink ~metrics socket in
  let lines = 400 in
  let fd = connect socket in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0;
  send fd "pmdb-serve/1 session queued\n";
  for _ = 1 to lines do
    send fd "fence 1\n";
    Unix.sleepf 0.0001
  done;
  let frame = finish_session fd in
  let stalls =
    match Serve.Client.stats ~socket with
    | Ok snap -> Obs.Metrics.counter_value snap "serve_backpressure_stalls_total"
    | Error e -> Alcotest.fail ("stats: " ^ e)
  in
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  Alcotest.(check string) "session ok" "ok" (Serve.Status.name frame.Serve.Wire.status);
  Alcotest.(check int) "every event decoded" lines frame.Serve.Wire.events;
  Alcotest.(check bool) (Printf.sprintf "the fd was paused (%d stall(s))" stalls) true (stalls >= 1)

(* The idle deadline is the select timeout: a hung client is reaped at
   the idle timeout, not at some later wake. *)
let test_idle_reap_on_deadline () =
  let idle_timeout = 0.3 in
  let socket = temp_socket () in
  let handle = start_daemon ~idle_timeout ~metrics:Obs.Metrics.disabled socket in
  let frame, elapsed = timed (fun () -> Serve.Client.probe ~socket ~name:"hung" Serve.Client.Hang) in
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  (match frame with
  | Error e -> Alcotest.fail ("hang probe: " ^ e)
  | Ok frame -> Alcotest.(check string) "reaped as timeout" "timeout" (Serve.Status.name frame.Serve.Wire.status));
  Alcotest.(check bool)
    (Printf.sprintf "reaped after %.3f s (%.1f s idle timeout + 0.5 s)" elapsed idle_timeout)
    true
    (elapsed >= idle_timeout && elapsed <= idle_timeout +. 0.5)

(* An idle pool's workers sleep: in 0.5 s with no message, the threads
   the pool started make at most 10 voluntary context switches in all
   (workers that polled their queues made about 460 each). Skipped
   where /proc/self/task does not exist. *)
let test_idle_workers_sleep () =
  let dir = "/proc/self/task" in
  if not (Sys.file_exists dir) then Alcotest.skip ();
  let switches tid =
    match In_channel.with_open_text (Filename.concat dir (tid ^ "/status")) In_channel.input_all with
    | exception Sys_error _ -> 0
    | status ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ':' line with
            | [ "voluntary_ctxt_switches"; n ] -> int_of_string (String.trim n)
            | _ -> acc)
          0 (String.split_on_char '\n' status)
  in
  let before = Sys.readdir dir in
  let pool = create_pool ~workers:2 (fun ~heatmap:_ -> D.sink (D.create ~model:D.Strict ())) in
  Fun.protect ~finally:(fun () -> Serve.Pool.stop pool) @@ fun () ->
  Unix.sleepf 0.1;
  let tids = List.filter (fun tid -> not (Array.mem tid before)) (Array.to_list (Sys.readdir dir)) in
  let total () = List.fold_left (fun acc tid -> acc + switches tid) 0 tids in
  let start = total () in
  Unix.sleepf 0.5;
  let made = total () - start in
  Alcotest.(check bool)
    (Printf.sprintf "%d new thread(s) made %d voluntary context switches in 0.5 s (<= 10)" (List.length tids) made)
    true
    (List.length tids >= 2 && made <= 10)

let suite =
  [
    Alcotest.test_case "spsc close poisons producer side" `Quick test_spsc_close_poisons_producer;
    Alcotest.test_case "spsc pop drains then raises Closed" `Quick test_spsc_pop_drains_then_closed;
    Alcotest.test_case "spsc close wakes a blocked producer" `Quick test_spsc_close_wakes_blocked_producer;
    Alcotest.test_case "spsc close wakes a blocked consumer" `Quick test_spsc_close_wakes_blocked_consumer;
    Alcotest.test_case "finish_all survives a raising finish" `Quick test_finish_all_survives_raising_finish;
    Alcotest.test_case "status exit-code table" `Quick test_status_exit_codes;
    Alcotest.test_case "wire parse_hello" `Quick test_wire_parse_hello;
    Alcotest.test_case "wire rejects malformed frames" `Quick test_wire_malformed_json;
    QCheck_alcotest.to_alcotest prop_wire_result_roundtrip;
    QCheck_alcotest.to_alcotest prop_session_chunk_boundaries_invisible;
    Alcotest.test_case "session strict error position" `Quick test_session_strict_error_position;
    Alcotest.test_case "session lenient skip counting" `Quick test_session_lenient_skips;
    Alcotest.test_case "session end rule" `Quick test_session_end_rule;
    Alcotest.test_case "session live_bytes accounting" `Quick test_session_live_bytes_accounting;
    Alcotest.test_case "session first terminal status wins" `Quick test_session_terminate_first_wins;
    Alcotest.test_case "pool inline roundtrip" `Quick test_pool_roundtrip;
    Alcotest.test_case "pool inline detector failure" `Quick test_pool_detector_failure;
    Alcotest.test_case "gate: 8 clients, 2 misbehaving" `Quick test_gate_eight_clients_two_misbehaving;
    Alcotest.test_case "gate: detector quarantine is isolated" `Quick test_gate_detector_quarantine_isolated;
    Alcotest.test_case "soak: waves leave no session state" `Quick test_soak_waves_leave_no_session_state;
    Alcotest.test_case "stats_stream follow" `Quick test_stats_stream_follow;
    Alcotest.test_case "heatmap verb and shutdown trace" `Quick test_heatmap_verb_and_shutdown_trace;
    Alcotest.test_case "protocol fuzz" `Quick test_fuzz_protocol;
    Alcotest.test_case "daemon rejects zero workers before binding" `Quick test_daemon_rejects_zero_workers;
    Alcotest.test_case "pool sink creation failure is reported" `Quick test_pool_sink_creation_failure;
    Alcotest.test_case "pool report = offline report, every tool" `Quick test_pool_tool_parity;
    Alcotest.test_case "daemon rejects missing output directories before binding" `Quick
      test_daemon_rejects_missing_dirs;
    Alcotest.test_case "cut traces: offline = pool = daemon, every tool" `Quick test_cut_traces_offline_pool_daemon;
    Alcotest.test_case "a session is not paced by the tick" `Quick test_session_not_paced_by_tick;
    Alcotest.test_case "budget evicts a long line, not a fast client" `Quick
      test_budget_evicts_long_line_not_fast_client;
    Alcotest.test_case "a lenient flood is evicted promptly" `Quick test_lenient_flood_evicted_promptly;
    Alcotest.test_case "a paused session is not idle" `Quick test_pause_is_not_idleness;
    Alcotest.test_case "an unbounded follow ends when the daemon stops" `Quick test_follow_ends_when_daemon_stops;
    Alcotest.test_case "closed sessions leave no gauge series" `Quick test_closed_sessions_leave_no_gauges;
    Alcotest.test_case "the metrics file is written with no traffic" `Quick test_metrics_file_written_without_traffic;
    Alcotest.test_case "a session that fills its worker's queue finishes" `Quick
      test_full_worker_queue_session_finishes;
    Alcotest.test_case "an idle session is reaped on its deadline" `Quick test_idle_reap_on_deadline;
    Alcotest.test_case "idle pool workers sleep" `Quick test_idle_workers_sleep;
  ]
