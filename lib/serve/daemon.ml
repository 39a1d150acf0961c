open Pmtrace

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  session_budget : int;
  idle_timeout : float;
  max_sessions : int;
  metrics_file : string option;
  flightrec_dir : string option;
  heatmap_cap : int;
}

let default_config ~socket =
  {
    socket_path = socket;
    workers = 2;
    queue_capacity = 1024;
    session_budget = 8 lsl 20;
    idle_timeout = 30.0;
    max_sessions = 64;
    metrics_file = None;
    flightrec_dir = None;
    heatmap_cap = 0;
  }

(* The select timeout (the housekeeping cadence, seconds); the seconds
   between stats_stream frames and metrics-file rewrites; events parked
   before a session's fd is throttled; slots per flight-recorder ring,
   on the dispatch domain and on each worker. *)
let tick = 0.02
let stream_interval = 1.0
let pending_watermark = 4096
let flightrec_capacity = 512

(* A stats_stream subscriber: [remaining] frames still owed (-1 means
   until disconnect), [last_frame] when the previous one went out. *)
type stream_state = { mutable remaining : int; mutable last_frame : float }

(* A connection's lifecycle, and the one session state machine.
   [Hello] reads the first line; a session then walks Streaming ->
   Finishing -> Awaiting, and is replied to and closed from Awaiting;
   stats/stop connections are answered and closed inside the hello
   handler; stats_stream connections persist and are fed from the tick
   loop. *)
type conn_kind =
  | Hello of Buffer.t
  | Streaming of Session.t * Pool.slot
  | Finishing of Session.t * Pool.slot
  | Awaiting of Session.t * Pool.slot
  | Stats_stream of stream_state

type conn = {
  fd : Unix.file_descr;
  mutable kind : conn_kind;
  mutable eof : bool;
  mutable stalled : bool; (* backpressure: worker queue full this tick *)
  mutable throttled : bool; (* backpressure: fd reads suspended *)
  mutable last_events : int; (* events/sec gauge bookkeeping *)
  mutable last_mark : float;
}

type t = {
  cfg : config;
  metrics : Obs.Metrics.t;
  flightrec : Obs.Flightrec.t; (* dispatch-domain ring, wall-clock timestamps *)
  listener : Unix.file_descr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  pool : Pool.t;
  mutable conns : conn list;
  mutable next_id : int;
  mutable dump_seq : int;
  mutable last_metrics_write : float;
  mutable stopping : bool;
  mutable running : bool;
}

let now () = Unix.gettimeofday ()

let session_label s = [ ("session", Session.name s) ]

(* Write to a temp file and rename into place, so a reader never sees a
   half-written file. Best-effort: a failing write must never take the
   daemon down. *)
let write_atomic path text =
  try
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc text;
    close_out oc;
    Sys.rename tmp path
  with Sys_error _ -> ()

let write_json_atomic path json = write_atomic path (Obs.Json.to_string ~indent:true json ^ "\n")

(* {2 Flight recorder} *)

let record t ~cat ~name ~a ~b = Obs.Flightrec.record t.flightrec ~ts:(now ()) ~cat ~name ~a ~b

(* The black-box dump: the dispatch ring plus every worker ring,
   written as JSON and as one Perfetto trace merging them onto one time
   base (Obs.Tracecat). Best-effort by design. *)
let dump_flightrec t ~reason ~session =
  match t.cfg.flightrec_dir with
  | None -> ()
  | Some dir ->
      let n = t.dump_seq in
      t.dump_seq <- n + 1;
      let rings = ("dispatch", t.flightrec) :: Pool.flightrec_rings t.pool in
      let meta =
        [
          ("reason", Obs.Json.Str reason);
          ("session", Obs.Json.Str session);
          ("time", Obs.Json.Float (now ()));
        ]
      in
      let base = Filename.concat dir (Printf.sprintf "flightrec-%s-%s-%d" session reason n) in
      write_json_atomic (base ^ ".json") (Obs.Flightrec.dump_to_json ~meta rings);
      write_json_atomic (base ^ ".perfetto.json") (Obs.Tracecat.merge ~metadata:meta rings)

(* {2 Socket plumbing} *)

let bind_listener path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_UNIX path in
  (try Unix.bind fd addr
   with Unix.Unix_error (Unix.EADDRINUSE, _, _) -> (
     (* A socket file exists. If nobody answers, it is stale — remove
        and rebind; if a daemon answers, refuse to fight it. *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let alive =
       match Unix.connect probe addr with
       | () -> true
       | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
     in
     Unix.close probe;
     if alive then begin
       Unix.close fd;
       failwith (Printf.sprintf "daemon already running on %s" path)
     end
     else begin
       Unix.unlink path;
       Unix.bind fd addr
     end));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let create ?(metrics = Obs.Metrics.disabled) ~make_sink cfg =
  (* Checked before binding, so a bad config leaves no socket file. *)
  if cfg.workers < 1 then invalid_arg "Daemon.create: workers must be >= 1";
  (* The dumps and the metrics file are written best-effort later, so a
     missing directory would otherwise go unnoticed. *)
  let is_dir path = Sys.file_exists path && Sys.is_directory path in
  Option.iter
    (fun dir ->
      if not (is_dir dir) then invalid_arg (Printf.sprintf "Daemon.create: flightrec_dir %S is not a directory" dir))
    cfg.flightrec_dir;
  Option.iter
    (fun path ->
      if not (is_dir (Filename.dirname path)) then
        invalid_arg (Printf.sprintf "Daemon.create: metrics_file %S is not in an existing directory" path))
    cfg.metrics_file;
  let listener = bind_listener cfg.socket_path in
  let stop_r, stop_w = Unix.pipe () in
  Unix.set_nonblock stop_r;
  Unix.set_nonblock stop_w;
  let pool =
    Pool.create
      ~worker_metrics:(Obs.Metrics.is_on metrics)
      ~flightrec_capacity
      ?heatmap_cap:(if cfg.heatmap_cap > 0 then Some cfg.heatmap_cap else None)
      ~workers:cfg.workers ~queue_capacity:cfg.queue_capacity make_sink
  in
  if Obs.Metrics.is_on metrics then begin
    (* Pre-declare the robustness counters so a snapshot shows zeros
       rather than missing series. *)
    List.iter
      (Obs.Metrics.inc metrics ~by:0)
      [
        "serve_sessions_opened_total";
        "serve_evictions_total";
        "serve_timeouts_total";
        "serve_backpressure_stalls_total";
        "serve_protocol_errors_total";
        "serve_conn_errors_total";
        "serve_bytes_read_total";
        "serve_events_total";
      ];
    Obs.Metrics.inc metrics ~by:0 ~labels:[ ("reason", "trace") ] "serve_quarantines_total";
    Obs.Metrics.inc metrics ~by:0 ~labels:[ ("reason", "detector") ] "serve_quarantines_total"
  end;
  {
    cfg;
    metrics;
    flightrec = Obs.Flightrec.create ~capacity:flightrec_capacity ();
    listener;
    stop_r;
    stop_w;
    pool;
    conns = [];
    next_id = 0;
    dump_seq = 0;
    last_metrics_write = 0.0;
    stopping = false;
    running = false;
  }

let request_stop t =
  (* Async-signal-safe enough for OCaml signal handlers (they run at
     safe points): one byte down the self-pipe wakes the select. *)
  try ignore (Unix.write t.stop_w (Bytes.make 1 's') 0 1) with Unix.Unix_error _ -> ()

let request_dump t =
  try ignore (Unix.write t.stop_w (Bytes.make 1 'q') 0 1) with Unix.Unix_error _ -> ()

let install_signal_handlers t =
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> request_stop t)))
    [ Sys.sigterm; Sys.sigint ];
  (* SIGQUIT dumps the black box without stopping — kill -QUIT is the
     operator's "what is it doing right now". *)
  try Sys.set_signal Sys.sigquit (Sys.Signal_handle (fun _ -> request_dump t))
  with Invalid_argument _ | Sys_error _ -> ()

(* {2 Replies} *)

(* Replies go out blocking with a send timeout: a client that never
   reads cannot park the daemon (the write fails with EAGAIN after the
   timeout and the connection is dropped). *)
let write_all t fd payload =
  (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0 with Unix.Unix_error _ -> ());
  let b = Bytes.of_string payload in
  match
    let off = ref 0 in
    while !off < Bytes.length b do
      let n = Unix.write fd b !off (Bytes.length b - !off) in
      if n = 0 then raise Exit;
      off := !off + n
    done
  with
  | () -> true
  | exception (Unix.Unix_error _ | Exit) ->
      Obs.Metrics.inc t.metrics "serve_conn_errors_total";
      false

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let remove_conn t conn =
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  close_fd conn.fd

let reply_frame t conn frame =
  ignore (write_all t conn.fd (Wire.result_to_line frame ^ "\n"));
  remove_conn t conn

(* Final reply for a session connection: zero its gauges (so a closed
   session doesn't show stale queue depths in [stats]) and account the
   terminal status before the frame goes out. *)
let e2e_bounds = [| 0.001; 0.005; 0.02; 0.1; 0.5; 2.0; 10.0; 60.0 |]

let reply_session t conn session frame =
  List.iter
    (fun g -> Obs.Metrics.set t.metrics ~labels:(session_label session) g 0.0)
    [ "serve_queue_depth"; "serve_live_bytes"; "serve_events_per_sec" ];
  (* Submit -> result: accept-time to result-frame-write, the whole
     session life through ingest, drain and detector finish. *)
  Obs.Metrics.observe t.metrics ~bounds:e2e_bounds "serve_session_e2e_seconds"
    (Float.max 0.0 (now () -. Session.created session));
  let status = Status.name (Session.status session) in
  Obs.Metrics.inc t.metrics ~labels:[ ("status", status) ] "serve_sessions_closed_total";
  record t ~cat:"session" ~name:status ~a:(Session.id session) ~b:1;
  reply_frame t conn frame

(* {2 Session termination paths} *)

(* Stop ingesting and let the Finishing flusher hand the rest over to
   the worker. *)
let drain t conn session slot =
  record t ~cat:"session" ~name:"drain" ~a:(Session.id session) ~b:0;
  conn.kind <- Finishing (session, slot)

(* The daemon ends the session before its input did: a truncated trace,
   which gets the end rule. *)
let cut_short t conn session slot ~drop =
  Session.cut_short session ~drop;
  drain t conn session slot

let session_result_frame session (report : Bug.report option) =
  let events = match report with Some r -> r.Bug.events_processed | None -> Session.events_delivered session in
  Wire.result_frame ~events ~skipped:(Session.skipped session) ~synthesized_end:(Session.synthesized_end session)
    ?error:(Session.error session) ?report (Session.status session)

(* {2 Hello handling} *)

(* Whole-daemon truth: the dispatch domain's registry merged with the
   latest published snapshot of every worker registry. *)
let merged_snapshot t = Obs.Metrics.merge (Obs.Metrics.snapshot t.metrics :: Pool.metrics_snapshots t.pool)

let stats_json t = Obs.Json.to_string ~indent:false (Obs.Metrics.snapshot_to_json (merged_snapshot t))

let heatmap_json t =
  Obs.Json.to_string ~indent:false
    (Obs.Heatmap.snapshot_to_json (Obs.Heatmap.merge (Pool.heatmap_snapshots t.pool)))

let protocol_error t conn msg =
  Obs.Metrics.inc t.metrics "serve_protocol_errors_total";
  reply_frame t conn (Wire.result_frame ~error:msg Status.Protocol_error)

let handle_hello_line t conn line =
  match Wire.parse_hello line with
  | Error msg -> protocol_error t conn msg
  | Ok Wire.Stats ->
      ignore (write_all t conn.fd (stats_json t ^ "\n"));
      remove_conn t conn
  | Ok (Wire.Stats_stream { frames }) ->
      if t.stopping then protocol_error t conn "daemon is shutting down"
      else
        (* last_frame = 0 makes the first frame go out on the next
           tick, so a follower sees data immediately. *)
        conn.kind <- Stats_stream { remaining = (if frames = 0 then -1 else frames); last_frame = 0.0 }
  | Ok Wire.Heatmap ->
      ignore (write_all t conn.fd (heatmap_json t ^ "\n"));
      remove_conn t conn
  | Ok Wire.Stop ->
      ignore (write_all t conn.fd (Wire.result_to_line (Wire.result_frame Status.Ok) ^ "\n"));
      remove_conn t conn;
      t.stopping <- true
  | Ok (Wire.Session { name; lenient }) ->
      if t.stopping then protocol_error t conn "daemon is shutting down"
      else if List.length t.conns > t.cfg.max_sessions then protocol_error t conn "session limit reached"
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        let session = Session.create ~id ~name ~lenient ~now:(now ()) in
        let slot = Pool.open_session t.pool ~id in
        Obs.Metrics.inc t.metrics "serve_sessions_opened_total";
        record t ~cat:"session" ~name:"open" ~a:id ~b:0;
        conn.kind <- Streaming (session, slot)
      end

(* {2 Reading} *)

let read_buf = Bytes.create 65536

(* Strict parse failure: the session is quarantined — structured error
   to this client, every other session untouched. Events parsed before
   the bad line still reach the detector (matching what a strict file
   replay has already fed its sink when it stops). *)
let quarantine_trace t conn session slot msg =
  Obs.Metrics.inc t.metrics ~labels:[ ("reason", "trace") ] "serve_quarantines_total";
  Session.terminate session Status.Trace_error (Some msg);
  record t ~cat:"quarantine" ~name:"trace" ~a:(Session.id session) ~b:0;
  dump_flightrec t ~reason:"trace-quarantine" ~session:(Session.name session);
  cut_short t conn session slot ~drop:false

let quarantine_detector t conn session slot msg ~drop =
  Obs.Metrics.inc t.metrics ~labels:[ ("reason", "detector") ] "serve_quarantines_total";
  Session.terminate session Status.Detector_error (Some msg);
  record t ~cat:"quarantine" ~name:"detector" ~a:(Session.id session) ~b:0;
  dump_flightrec t ~reason:"detector-quarantine" ~session:(Session.name session);
  if drop then cut_short t conn session slot ~drop:true

let feed_session t conn session slot ~off ~len =
  Obs.Metrics.inc t.metrics ~by:len "serve_bytes_read_total";
  let t0 = now () in
  let r = Session.feed session ~now:t0 read_buf ~off ~len in
  Obs.Metrics.observe t.metrics "serve_ingest_seconds" (now () -. t0);
  match r with Ok () -> () | Error msg -> quarantine_trace t conn session slot msg

(* The client's end of input: the decoder's last line and end rule. *)
let end_of_input t conn session slot =
  match Session.finish session with
  | Ok () -> drain t conn session slot
  | Error msg -> quarantine_trace t conn session slot msg

(* The first '\n' in [read_buf.[0, n)]. *)
let hello_end n =
  let rec go i = if i >= n then None else if Bytes.get read_buf i = '\n' then Some i else go (i + 1) in
  go 0

let handle_readable t conn =
  match conn.kind with
  | Hello buf -> (
      match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> remove_conn t conn
      | 0 -> (
          (* EOF mid-hello. An unterminated hello line still gets a
             structured reply (a session so opened is empty and finishes
             immediately); a silent client just goes away. *)
          let s = Buffer.contents buf in
          if s = "" then remove_conn t conn
          else begin
            conn.eof <- true;
            handle_hello_line t conn s;
            match conn.kind with
            | Streaming (session, slot) -> end_of_input t conn session slot
            | _ -> ()
          end)
      | n -> (
          match hello_end n with
          | None ->
              Buffer.add_subbytes buf read_buf 0 n;
              if Buffer.length buf > 512 then protocol_error t conn "hello line too long"
          | Some i -> (
              Buffer.add_subbytes buf read_buf 0 i;
              handle_hello_line t conn (Buffer.contents buf);
              (* Bytes pipelined behind the hello belong to the session. *)
              match conn.kind with
              | Streaming (session, slot) when i + 1 < n ->
                  feed_session t conn session slot ~off:(i + 1) ~len:(n - i - 1)
              | _ -> ())))
  | Streaming (session, slot) -> (
      match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ ->
          Obs.Metrics.inc t.metrics "serve_conn_errors_total";
          conn.eof <- true;
          cut_short t conn session slot ~drop:false
      | 0 ->
          conn.eof <- true;
          end_of_input t conn session slot
      | n -> feed_session t conn session slot ~off:0 ~len:n)
  | Stats_stream _ ->
      (* Subscribers only read; a half-close (EOF) is how one-shot
         followers signal "send me my frames and go" — keep streaming,
         a failed frame write reaps the connection. *)
      (match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> remove_conn t conn
      | 0 -> conn.eof <- true
      | _ -> ())
  | Finishing _ | Awaiting _ ->
      (* The reply is pending; ingest is over. Drain and discard
         whatever else the client sends so its writes never block. *)
      (match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
      | exception Unix.Unix_error _ -> ()
      | 0 -> conn.eof <- true
      | _ -> ())

(* {2 Per-tick housekeeping} *)

(* Hand pending events to the session's worker, non-blocking: peek,
   offer, pop only on success. Returns [false] when the worker is dead
   (the connection has been replied to and removed). *)
let flush_pending t conn session slot =
  ignore slot;
  try
    let continue = ref true in
    while !continue do
      match Session.peek_pending session with
      | None -> continue := false
      | Some ev ->
          if Pool.try_submit t.pool ~id:(Session.id session) ev then begin
            ignore (Session.pop_pending session);
            Obs.Metrics.inc t.metrics "serve_events_total"
          end
          else begin
            if not conn.stalled then begin
              conn.stalled <- true;
              Obs.Metrics.inc t.metrics "serve_backpressure_stalls_total";
              record t ~cat:"backpressure" ~name:"stall" ~a:(Session.id session)
                ~b:(Pool.queue_length t.pool ~id:(Session.id session))
            end;
            continue := false
          end
    done;
    true
  with Spsc.Closed ->
    (* The worker died; no report will ever arrive. Per the Spsc close
       contract, [try_push] can raise after its element was already
       published, so delivery of the in-flight event is indeterminate —
       irrelevant here, since the session is torn down either way. *)
    Session.terminate session Status.Detector_error (Some "worker domain died");
    reply_session t conn session (session_result_frame session None);
    false

let update_gauges t conn session =
  let n = now () in
  if n -. conn.last_mark >= 0.5 then begin
    let delivered = Session.events_delivered session in
    let rate = float_of_int (delivered - conn.last_events) /. (n -. conn.last_mark) in
    Obs.Metrics.set t.metrics ~labels:(session_label session) "serve_events_per_sec" rate;
    conn.last_events <- delivered;
    conn.last_mark <- n
  end;
  Obs.Metrics.set t.metrics ~labels:(session_label session)
    "serve_queue_depth"
    (float_of_int (Session.pending_events session + Pool.queue_length t.pool ~id:(Session.id session)));
  Obs.Metrics.set t.metrics ~labels:(session_label session) "serve_live_bytes"
    (float_of_int (Session.live_bytes session))

(* A stats_stream frame: one merged-snapshot JSON line. write_all
   switches the fd to blocking; the subscriber stays in the select set,
   so restore nonblock after every frame. *)
let tick_stream t conn st =
  let n = now () in
  if n -. st.last_frame >= stream_interval then begin
    st.last_frame <- n;
    if not (write_all t conn.fd (stats_json t ^ "\n")) then remove_conn t conn
    else begin
      (try Unix.set_nonblock conn.fd with Unix.Unix_error _ -> ());
      if st.remaining > 0 then begin
        st.remaining <- st.remaining - 1;
        if st.remaining = 0 then remove_conn t conn
      end
    end
  end

let tick_conn t conn =
  match conn.kind with
  | Hello _ -> ()
  | Stats_stream st -> tick_stream t conn st
  | Streaming (session, slot) ->
      conn.stalled <- false;
      (* Fd-throttling rung changes are flight-recorder events: the
         black box shows when flow control engaged around a failure. *)
      let throttled_now = Session.pending_events session >= pending_watermark in
      if throttled_now <> conn.throttled then begin
        conn.throttled <- throttled_now;
        record t ~cat:"backpressure"
          ~name:(if throttled_now then "throttle_on" else "throttle_off")
          ~a:(Session.id session) ~b:(Session.pending_events session)
      end;
      (* Detector quarantine surfaces between events. *)
      (match Pool.failed slot with
      | Some msg -> quarantine_detector t conn session slot msg ~drop:true
      | None ->
          (* Budget: partial line + undelivered events. *)
          if Session.live_bytes session > t.cfg.session_budget then begin
            Obs.Metrics.inc t.metrics "serve_evictions_total";
            Session.terminate session Status.Evicted
              (Some
                 (Printf.sprintf "session budget exceeded (%d bytes held > %d budget)"
                    (Session.live_bytes session) t.cfg.session_budget));
            record t ~cat:"backpressure" ~name:"evict" ~a:(Session.id session)
              ~b:(Session.live_bytes session);
            dump_flightrec t ~reason:"eviction" ~session:(Session.name session);
            cut_short t conn session slot ~drop:true
          end
          else if
            (not conn.eof)
            && t.cfg.idle_timeout > 0.0
            && now () -. Session.last_activity session > t.cfg.idle_timeout
          then begin
            Obs.Metrics.inc t.metrics "serve_timeouts_total";
            Session.terminate session Status.Timeout
              (Some (Printf.sprintf "idle for more than %.1fs" t.cfg.idle_timeout));
            cut_short t conn session slot ~drop:false
          end
          else if flush_pending t conn session slot then update_gauges t conn session)
  | Finishing (session, slot) ->
      if flush_pending t conn session slot && Session.pending_events session = 0 then (
        match Pool.finish_session t.pool ~id:(Session.id session) with
        | () -> conn.kind <- Awaiting (session, slot)
        | exception Spsc.Closed ->
            Session.terminate session Status.Detector_error (Some "worker domain died");
            reply_session t conn session (session_result_frame session None))
  | Awaiting (session, slot) -> (
      match Pool.result slot with
      | None -> ()
      | Some report ->
          (* A quarantine recorded by the worker engine overrides a clean
             session status: the client must learn the detector failed. *)
          (if Session.status session = Status.Ok then
             match report.Bug.failure with
             | Some msg -> quarantine_detector t conn session slot msg ~drop:false
             | None -> ());
          reply_session t conn session (session_result_frame session (Some report)))

(* {2 Prometheus metrics file} *)

(* Atomic periodic exposition: a scraper never reads a half-written
   document. *)
let write_metrics_file t =
  match t.cfg.metrics_file with
  | None -> ()
  | Some path -> write_atomic path (Obs.Prometheus.render (merged_snapshot t))

(* {2 Accept} *)

let accept_loop t =
  let rec go () =
    match Unix.accept t.listener with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        Unix.set_nonblock fd;
        let n = now () in
        t.conns <-
          {
            fd;
            kind = Hello (Buffer.create 64);
            eof = false;
            stalled = false;
            throttled = false;
            last_events = 0;
            last_mark = n;
          }
          :: t.conns;
        go ()
  in
  go ()

(* {2 The main loop} *)

let wants_read conn =
  match conn.kind with
  | Hello _ -> true
  | Streaming (session, _) ->
      (* Throttle a session outrunning its worker: stop reading its fd,
         so the kernel socket buffer fills and the client's writes
         block — flow control for free. *)
      (not conn.eof) && Session.pending_events session < pending_watermark
  | Stats_stream _ -> not conn.eof
  | Finishing _ | Awaiting _ -> not conn.eof

let begin_shutdown t =
  List.iter
    (fun conn ->
      match conn.kind with
      | Hello _ -> protocol_error t conn "daemon is shutting down"
      | Stats_stream _ ->
          (* One farewell frame so a follower sees the final state. *)
          ignore (write_all t conn.fd (stats_json t ^ "\n"));
          remove_conn t conn
      | Streaming (session, slot) ->
          Session.terminate session Status.Shutdown (Some "daemon is shutting down");
          cut_short t conn session slot ~drop:false
      | Finishing _ | Awaiting _ -> ())
    t.conns

let run t =
  t.running <- true;
  Fun.protect
    ~finally:(fun () ->
      t.running <- false;
      List.iter (fun c -> close_fd c.fd) t.conns;
      t.conns <- [];
      Pool.stop t.pool;
      (* Workers have joined: the final exposition is exact. *)
      write_metrics_file t;
      dump_flightrec t ~reason:"shutdown" ~session:"daemon";
      close_fd t.listener;
      close_fd t.stop_r;
      close_fd t.stop_w;
      try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  @@ fun () ->
  let drain_stop_pipe () =
    (* 's' requests shutdown, 'q' (SIGQUIT) a black-box dump. *)
    let b = Bytes.create 16 in
    let dump = ref false in
    let rec go () =
      match Unix.read t.stop_r b 0 16 with
      | n ->
          for i = 0 to n - 1 do
            match Bytes.get b i with
            | 'q' -> dump := true
            | _ -> t.stopping <- true
          done;
          if n = 16 then go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ();
    if !dump then dump_flightrec t ~reason:"sigquit" ~session:"daemon"
  in
  let shutdown_started = ref false in
  let continue = ref true in
  while !continue do
    let read_fds =
      t.stop_r
      :: (if t.stopping then [] else [ t.listener ])
      @ List.filter_map (fun c -> if wants_read c then Some c.fd else None) t.conns
    in
    let readable, _, _ =
      match Unix.select read_fds [] [] tick with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [], [])
    in
    if List.mem t.stop_r readable then drain_stop_pipe ();
    if (not t.stopping) && List.mem t.listener readable then accept_loop t;
    List.iter
      (fun conn ->
        if List.mem conn.fd readable then
          try handle_readable t conn
          with exn ->
            (* One connection's failure never takes the daemon down. *)
            Obs.Metrics.inc t.metrics "serve_conn_errors_total";
            ignore exn;
            remove_conn t conn)
      t.conns;
    if t.stopping && not !shutdown_started then begin
      shutdown_started := true;
      begin_shutdown t
    end;
    List.iter
      (fun conn ->
        try tick_conn t conn
        with exn ->
          Obs.Metrics.inc t.metrics "serve_conn_errors_total";
          ignore exn;
          remove_conn t conn)
      t.conns;
    Obs.Metrics.set t.metrics "serve_sessions_active" (float_of_int (List.length t.conns));
    (if t.cfg.metrics_file <> None then
       let n = now () in
       if n -. t.last_metrics_write >= stream_interval then begin
         t.last_metrics_write <- n;
         write_metrics_file t
       end);
    if t.stopping && t.conns = [] then continue := false
  done
