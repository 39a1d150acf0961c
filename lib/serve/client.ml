let with_conn socket f =
  (* A daemon that hangs up mid-write must fail the write (EPIPE), not
     kill the client. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  with
  | fd -> Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "cannot connect to daemon at %s: %s" socket (Unix.error_message err))

let send_all fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* A daemon that closes with our unread bytes still queued resets the
   connection after what it sent: the reset ends the reply. *)
let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

(* The reply is one line; trailing bytes past the newline are the
   daemon's problem, not ours — strip the frame out. *)
let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let wrap_io f =
  try f () with Unix.Unix_error (err, _, _) -> Error (Printf.sprintf "daemon i/o error: %s" (Unix.error_message err))

let half_close fd = try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let result_of_reply raw =
  if raw = "" then Error "daemon closed the connection without a reply"
  else Wire.result_of_line (first_line raw)

(* Send [body] after the hello for session [name], half-close, and read
   the daemon's result frame. A daemon that ends the session early
   (eviction, a parse error) replies without reading the rest, so a
   write it refuses still leaves the reply to read. *)
let run_session ~socket ~name ~lenient body =
  with_conn socket @@ fun fd ->
  wrap_io @@ fun () ->
  (try
     send_all fd (Wire.hello_line (Wire.Session { name; lenient }) ^ "\n");
     send_all fd body
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  half_close fd;
  result_of_reply (read_all fd)

let replay_string ~socket ~name ?(lenient = false) body = run_session ~socket ~name ~lenient body

let replay_file ~socket ~name ?(lenient = false) path =
  match In_channel.with_open_bin path In_channel.input_all with
  | body -> run_session ~socket ~name ~lenient body
  | exception Sys_error msg -> Error msg

(* One exchange: send [body], half-close, and read the daemon's answer
   to EOF. *)
let exchange ~socket body =
  with_conn socket @@ fun fd ->
  wrap_io @@ fun () ->
  send_all fd body;
  half_close fd;
  Ok (read_all fd)

let raw = exchange

(* One request: the [hello] exchange, its reply's first line parsed. *)
let request ~socket hello parse =
  match exchange ~socket (Wire.hello_line hello ^ "\n") with
  | Error _ as e -> e
  | Ok "" -> Error "daemon closed the connection without a reply"
  | Ok reply -> parse (first_line reply)

let json_reply what of_json line =
  match Obs.Json.of_string line with
  | Error msg -> Error (Printf.sprintf "%s reply: %s" what msg)
  | Ok json -> of_json json

let stats ~socket = request ~socket Wire.Stats (json_reply "stats" Obs.Metrics.snapshot_of_json)

let heatmap ~socket = request ~socket Wire.Heatmap (json_reply "heatmap" Obs.Heatmap.snapshot_of_json)

(* Follow the daemon's stats by polling: one snapshot at once, then one
   per Daemon.stream_interval. A failed request after the first frame
   means the daemon went away, which ends the follow. *)
let stats_follow ~socket ?(frames = 0) ~on_frame () =
  let rec go seen =
    match stats ~socket with
    | Error _ when seen > 0 -> Ok seen
    | Error msg -> Error msg
    | Ok snap ->
        let seen = seen + 1 in
        if (not (on_frame snap)) || seen = frames then Ok seen
        else begin
          Unix.sleepf Daemon.stream_interval;
          go seen
        end
  in
  go 0

let stop ~socket =
  request ~socket Wire.Stop (fun line ->
      match Wire.result_of_line line with
      | Ok frame when frame.Wire.status = Status.Ok -> Ok ()
      | Ok frame -> Error (Printf.sprintf "daemon answered %s" (Status.name frame.Wire.status))
      | Error _ as e -> e)

(* Deliberately misbehaving clients, for the CI soak job and the
   fault-tolerance tests. *)
type probe = Garbage | Hang

let probe ~socket ~name kind =
  match kind with
  | Garbage ->
      (* A stream that cannot parse: the daemon must quarantine exactly
         this session and answer a structured trace-error frame. *)
      run_session ~socket ~name ~lenient:false "this is not an event\nnor is this\n"
  | Hang ->
      (* Open a session, send a valid prefix, then go silent without
         half-closing. The daemon must reap us at the idle timeout and
         still send the partial report. *)
      with_conn socket @@ fun fd ->
      wrap_io @@ fun () ->
      send_all fd (Wire.hello_line (Wire.Session { name; lenient = false }) ^ "\n");
      send_all fd "store 1 256 8\n";
      result_of_reply (read_all fd)
