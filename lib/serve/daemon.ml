open Pmtrace

type config = {
  socket_path : string;
  workers : int;
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
    session_budget = 8 lsl 20;
    idle_timeout = 30.0;
    max_sessions = 64;
    metrics_file = None;
    flightrec_dir = None;
    heatmap_cap = 0;
  }

(* The seconds between metrics-file rewrites (and between a
   follower's stats polls); slots per flight-recorder ring, on the
   dispatch domain and on each worker. *)
let stream_interval = 1.0
let flightrec_capacity = 512

(* The dispatch domain's side of a session: it forwards the client's
   bytes to the session's worker, which decodes and detects. *)
type session = {
  id : int;
  name : string;
  created : float; (* daemon clock at accept: submit->result latency, events/sec *)
  slot : Pool.slot;
  mutable last_activity : float;
  mutable outbox : Pool.input list; (* read, not yet taken by the full worker queue *)
  mutable paused : bool; (* backpressure: fd reads suspended *)
}

(* A connection's lifecycle, and the one session state machine.
   [Hello] reads the first line; a session then walks Streaming ->
   Awaiting (its end of input or its cut is sent), and is replied to
   and closed as soon as its worker's outcome lands, in either state;
   stats, heatmap and stop connections are answered and closed inside
   the hello handler. *)
type conn_kind = Hello of Buffer.t | Streaming of session | Awaiting of session

type conn = { fd : Unix.file_descr; mutable kind : conn_kind; mutable eof : bool }

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
}

let now () = Unix.gettimeofday ()

let session_label s = [ ("session", s.name) ]

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

(* One byte down the self-pipe wakes the select: 's' requests shutdown,
   'q' a black-box dump, 'w' (a worker: an outcome landed, a paused
   session may read again, or a full queue has room) only the wake.
   Async-signal-safe enough for OCaml signal handlers (they run at safe
   points); a byte dropped on a full pipe is harmless, as the pipe is
   then already readable. *)
let poke w c = try ignore (Unix.write_substring w (String.make 1 c) 0 1) with Unix.Unix_error _ -> ()

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
      ~wake:(fun () -> poke stop_w 'w')
      ~workers:cfg.workers ~session_budget:cfg.session_budget make_sink
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
  }

let request_stop t = poke t.stop_w 's'

let request_dump t = poke t.stop_w 'q'

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

(* How a session ended, in the daemon's books: quarantines, evictions
   and timeouts are counted, and the first two leave a black-box dump. *)
let note_end t s status =
  let quarantine reason =
    Obs.Metrics.inc t.metrics ~labels:[ ("reason", reason) ] "serve_quarantines_total";
    record t ~cat:"quarantine" ~name:reason ~a:s.id ~b:0;
    dump_flightrec t ~reason:(reason ^ "-quarantine") ~session:s.name
  in
  match status with
  | Status.Trace_error -> quarantine "trace"
  | Status.Detector_error -> quarantine "detector"
  | Status.Evicted ->
      Obs.Metrics.inc t.metrics "serve_evictions_total";
      record t ~cat:"backpressure" ~name:"evict" ~a:s.id ~b:(Pool.in_flight s.slot);
      dump_flightrec t ~reason:"eviction" ~session:s.name
  | Status.Timeout -> Obs.Metrics.inc t.metrics "serve_timeouts_total"
  | Status.Ok | Status.Shutdown | Status.Protocol_error -> ()

(* Final reply for a session connection: account the terminal status
   before the frame goes out. [None]: the worker died, and no report
   will ever arrive. *)
let e2e_bounds = [| 0.001; 0.005; 0.02; 0.1; 0.5; 2.0; 10.0; 60.0 |]

let reply_session t conn s (outcome : Pool.outcome option) =
  (* Submit -> result: accept-time to result-frame-write, the whole
     session life through ingest, decoding and detector finish. *)
  Obs.Metrics.observe t.metrics ~bounds:e2e_bounds "serve_session_e2e_seconds" (Float.max 0.0 (now () -. s.created));
  let frame =
    match outcome with
    | None -> Wire.result_frame ~error:"worker domain died" Status.Detector_error
    | Some o ->
        Wire.result_frame ~events:o.Pool.report.Bug.events_processed ~skipped_lines:o.Pool.skipped_lines
          ~synthesized_end:o.Pool.synthesized_end ?error:o.Pool.error ~report:o.Pool.report o.Pool.status
  in
  note_end t s frame.Wire.status;
  let status = Status.name frame.Wire.status in
  Obs.Metrics.inc t.metrics ~labels:[ ("status", status) ] "serve_sessions_closed_total";
  record t ~cat:"session" ~name:status ~a:s.id ~b:1;
  (* A session can end while its client is still writing, blocked on a
     paused fd: stop receiving first, so that write fails (EPIPE) and
     the client goes on to read this reply instead of both sides
     waiting out the send timeout. *)
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
  reply_frame t conn frame

(* {2 Forwarding} *)

(* Hand the session's parked messages to its worker, in order, until
   the worker's queue is full. Raises [Pool.Closed] if the worker
   died. Bytes are counted as they are handed over, so what a reply
   drops from the outbox is not: the workers' serve_worker_bytes_total
   balances this count. *)
let flush t s =
  let rec go () =
    match s.outbox with
    | input :: rest when Pool.offer t.pool s.slot input ->
        (match input with
        | Pool.Chunk b -> Obs.Metrics.inc t.metrics ~by:(Bytes.length b) "serve_bytes_read_total"
        | Pool.End | Pool.Cut _ -> ());
        s.outbox <- rest;
        go ()
    | _ -> ()
  in
  go ()

let send t s input =
  s.outbox <- s.outbox @ [ input ];
  flush t s

(* The client's end of input ([End]) or the daemon's cut ([Cut]): the
   session awaits its worker's outcome. *)
let end_session t conn s input =
  record t ~cat:"session" ~name:"drain" ~a:s.id ~b:0;
  conn.kind <- Awaiting s;
  send t s input

(* {2 Hello handling} *)

(* The gauges of the connections open right now, read at snapshot time
   and never stored, so a closed session has no series. Events/sec is
   the average over the session's life so far. *)
let live_gauges t =
  let n = now () in
  let gauge labels name v = { Obs.Metrics.name; labels; value = Obs.Metrics.V_gauge v } in
  gauge [] "serve_sessions_active" (float_of_int (List.length t.conns))
  :: List.concat_map
       (fun conn ->
         match conn.kind with
         | Hello _ -> []
         | Streaming s | Awaiting s ->
             let labels = session_label s in
             let age = n -. s.created in
             let events = float_of_int (Pool.events s.slot) in
             [
               gauge labels "serve_queue_depth" (float_of_int (Pool.queued s.slot));
               gauge labels "serve_live_bytes" (float_of_int (Pool.in_flight s.slot));
               gauge labels "serve_events_per_sec" (if age > 0.0 then events /. age else 0.0);
             ])
       t.conns

(* Whole-daemon truth, for every stats reply and metrics-file write:
   the dispatch domain's registry merged with the latest published
   snapshot of every worker registry and the live gauges. *)
let merged_snapshot t =
  let live = if Obs.Metrics.is_on t.metrics then [ live_gauges t ] else [] in
  Obs.Metrics.merge ((Obs.Metrics.snapshot t.metrics :: live) @ Pool.metrics_snapshots t.pool)

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
        let slot = Pool.open_session t.pool ~id ~lenient in
        let n = now () in
        Obs.Metrics.inc t.metrics "serve_sessions_opened_total";
        record t ~cat:"session" ~name:"open" ~a:id ~b:0;
        conn.kind <- Streaming { id; name; created = n; slot; last_activity = n; outbox = []; paused = false }
      end

(* {2 Reading} *)

let read_buf = Bytes.create 65536

(* The worker owns what it is sent, so each read is copied out of the
   shared buffer. *)
let forward t s ~off ~len =
  s.last_activity <- now ();
  send t s (Pool.Chunk (Bytes.sub read_buf off len))

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
            match conn.kind with Streaming s -> end_session t conn s Pool.End | _ -> ()
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
              | Streaming s when i + 1 < n -> forward t s ~off:(i + 1) ~len:(n - i - 1)
              | _ -> ())))
  | Streaming s -> (
      match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ ->
          Obs.Metrics.inc t.metrics "serve_conn_errors_total";
          conn.eof <- true;
          (* A truncated trace; the status stays as it is. *)
          end_session t conn s (Pool.Cut (Status.Ok, None))
      | 0 ->
          conn.eof <- true;
          end_session t conn s Pool.End
      | n -> forward t s ~off:0 ~len:n)
  | Awaiting _ ->
      (* The reply is pending; ingest is over. Drain and discard
         whatever else the client sends so its writes never block. *)
      (match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
      | exception Unix.Unix_error _ -> ()
      | 0 -> conn.eof <- true
      | _ -> ())

(* {2 Per-pass upkeep} *)

(* A streaming session's fd leaves the read set while a message waits
   on a full worker queue or its bytes in flight reach the budget: the
   kernel socket buffer fills and the client's writes block — flow
   control without a protocol. *)
let paused t s = s.outbox <> [] || Pool.in_flight s.slot >= t.cfg.session_budget

let check_streaming t conn s =
  (* Fd-throttling rung changes are flight-recorder events: the black
     box shows when flow control engaged around a failure. *)
  let paused_now = paused t s in
  (* While its fd is paused the daemon, not the client, is idle: the
     idle timeout counts from the end of the pause. *)
  if paused_now || s.paused then s.last_activity <- now ();
  if paused_now <> s.paused then begin
    s.paused <- paused_now;
    if paused_now then Obs.Metrics.inc t.metrics "serve_backpressure_stalls_total";
    record t ~cat:"backpressure"
      ~name:(if paused_now then "throttle_on" else "throttle_off")
      ~a:s.id ~b:(Pool.in_flight s.slot)
  end;
  if (not paused_now) && t.cfg.idle_timeout > 0.0 && now () -. s.last_activity >= t.cfg.idle_timeout then
    end_session t conn s
      (Pool.Cut (Status.Timeout, Some (Printf.sprintf "idle for more than %.1fs" t.cfg.idle_timeout)))

(* Every loop pass: reply to a session whose outcome landed, retry its
   parked messages, and keep its pause state and idle clock. *)
let check_conn t conn =
  match conn.kind with
  | Hello _ -> ()
  | Streaming s | Awaiting s -> (
      match Pool.result s.slot with
      | Some outcome -> reply_session t conn s (Some outcome)
      | None -> (
          flush t s;
          match conn.kind with Streaming s -> check_streaming t conn s | _ -> ()))

(* The select timeout: the seconds to the earliest real deadline (the
   idle timeout of a session being read, the next metrics-file write),
   or -1.0 (wait for a read or a wake) when there is none. A paused
   session has no deadline: its worker wakes the loop when it may read
   again. One extra millisecond makes the wake land after the deadline,
   not a rounding error before it. *)
let select_timeout t =
  let idle c =
    match c.kind with
    | Streaming s when t.cfg.idle_timeout > 0.0 && not s.paused -> Some (s.last_activity +. t.cfg.idle_timeout)
    | _ -> None
  in
  let metrics = if t.cfg.metrics_file <> None then [ t.last_metrics_write +. stream_interval ] else [] in
  match metrics @ List.filter_map idle t.conns with
  | [] -> -1.0
  | d :: ds -> Float.max 0.0 (List.fold_left Float.min d ds -. now ()) +. 0.001

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
        t.conns <- { fd; kind = Hello (Buffer.create 64); eof = false } :: t.conns;
        go ()
  in
  go ()

(* {2 The main loop} *)

let wants_read t conn =
  match conn.kind with
  | Hello _ -> true
  | Streaming s -> not (paused t s)
  | Awaiting _ -> not conn.eof

(* One connection's failure never takes the daemon down; a dead worker
   fails only its own sessions. *)
let guard t conn f =
  try f () with
  | Pool.Closed -> (
      match conn.kind with
      | Streaming s | Awaiting s -> reply_session t conn s None
      | Hello _ -> remove_conn t conn)
  | _ ->
      Obs.Metrics.inc t.metrics "serve_conn_errors_total";
      remove_conn t conn

let begin_shutdown t =
  List.iter
    (fun conn ->
      guard t conn @@ fun () ->
      match conn.kind with
      | Hello _ -> protocol_error t conn "daemon is shutting down"
      | Streaming s -> end_session t conn s (Pool.Cut (Status.Shutdown, Some "daemon is shutting down"))
      | Awaiting _ -> ())
    t.conns

let run t =
  (* A client that hangs up before its reply must fail that one write
     (EPIPE), not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Fun.protect
    ~finally:(fun () ->
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
    (* 's' requests shutdown, 'q' (SIGQUIT) a black-box dump, 'w' only
       wakes the loop. *)
    let b = Bytes.create 16 in
    let dump = ref false in
    let rec go () =
      match Unix.read t.stop_r b 0 16 with
      | n ->
          for i = 0 to n - 1 do
            match Bytes.get b i with
            | 'q' -> dump := true
            | 'w' -> ()
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
      @ List.filter_map (fun c -> if wants_read t c then Some c.fd else None) t.conns
    in
    let readable, _, _ =
      match Unix.select read_fds [] [] (select_timeout t) with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [], [])
    in
    if List.mem t.stop_r readable then drain_stop_pipe ();
    if (not t.stopping) && List.mem t.listener readable then accept_loop t;
    List.iter (fun conn -> if List.mem conn.fd readable then guard t conn (fun () -> handle_readable t conn)) t.conns;
    if t.stopping && not !shutdown_started then begin
      shutdown_started := true;
      begin_shutdown t
    end;
    List.iter (fun conn -> guard t conn (fun () -> check_conn t conn)) t.conns;
    (if t.cfg.metrics_file <> None then
       let n = now () in
       if n -. t.last_metrics_write >= stream_interval then begin
         t.last_metrics_write <- n;
         write_metrics_file t
       end);
    if t.stopping && t.conns = [] then continue := false
  done
