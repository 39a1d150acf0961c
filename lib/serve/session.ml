open Pmtrace

type t = {
  id : int;
  name : string;
  lenient : bool;
  created : float; (* daemon clock at accept, for submit->result latency *)
  partial : Buffer.t;
  pending : (Event.t * int) Queue.t;
  mutable pending_bytes : int;
  mutable lines : int;
  mutable parsed : int;
  mutable delivered : int;
  mutable skipped : int;
  mutable bytes_read : int;
  mutable saw_end : bool;
  mutable synthesized_end : bool;
  mutable last_activity : float;
  mutable status : Status.t;
  mutable error : string option;
}

let create ~id ~name ~lenient ~now =
  {
    id;
    name;
    lenient;
    created = now;
    partial = Buffer.create 256;
    pending = Queue.create ();
    pending_bytes = 0;
    lines = 0;
    parsed = 0;
    delivered = 0;
    skipped = 0;
    bytes_read = 0;
    saw_end = false;
    synthesized_end = false;
    last_activity = now;
    status = Status.Ok;
    error = None;
  }

let id t = t.id

let name t = t.name

let lenient t = t.lenient

let status t = t.status

let error t = t.error

let events_delivered t = t.delivered

let skipped t = t.skipped

let bytes_read t = t.bytes_read

let synthesized_end t = t.synthesized_end

let last_activity t = t.last_activity

let created t = t.created

let pending_events t = Queue.length t.pending

let live_bytes t = Buffer.length t.partial + t.pending_bytes

(* The cost a queued event is charged against the session budget: its
   wire length plus boxing overhead. What matters is that the charge is
   proportional to the bytes the client actually sent, so a budget in
   bytes bounds both the raw partial-line buffer and the parsed queue. *)
let event_cost len = len + 16

let fail t msg =
  t.status <- Status.Trace_error;
  t.error <- Some msg;
  Error msg

(* Parse one complete line, [b.[off, off + len)]. Strict sessions fail
   the whole session at the first malformed line with the same
   ["line N: ..."] message the strict file replay produces; lenient
   sessions skip and count it, mirroring [pmdb replay --lenient]. *)
let accept_line t b ~off ~len =
  t.lines <- t.lines + 1;
  match Trace_io.event_of_bytes b ~off ~len with
  | Ok None -> Ok ()
  | Ok (Some ev) ->
      (match ev with Event.Program_end -> t.saw_end <- true | _ -> ());
      t.parsed <- t.parsed + 1;
      let cost = event_cost len in
      Queue.push (ev, cost) t.pending;
      t.pending_bytes <- t.pending_bytes + cost;
      Ok ()
  | Error msg ->
      if t.lenient then begin
        t.skipped <- t.skipped + 1;
        Ok ()
      end
      else fail t (Printf.sprintf "line %d: %s" t.lines msg)

let accept_partial t =
  let line = Buffer.to_bytes t.partial in
  Buffer.clear t.partial;
  accept_line t line ~off:0 ~len:(Bytes.length line)

(* The first '\n' in [buf.[i, stop)], or [stop]. Bounded by [stop]: the
   bytes past the chunk in a reused read buffer are stale. *)
let rec newline buf i stop = if i >= stop || Bytes.unsafe_get buf i = '\n' then i else newline buf (i + 1) stop

(* A line wholly inside the chunk is scanned where it lies; only a line
   split across chunks is copied, into [partial]. *)
let feed t ~now buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg "Session.feed";
  t.last_activity <- now;
  t.bytes_read <- t.bytes_read + len;
  let stop = off + len in
  let rec go start =
    let nl = newline buf start stop in
    if nl = stop then begin
      Buffer.add_subbytes t.partial buf start (stop - start);
      Ok ()
    end
    else
      let result =
        if Buffer.length t.partial = 0 then accept_line t buf ~off:start ~len:(nl - start)
        else begin
          Buffer.add_subbytes t.partial buf start (nl - start);
          accept_partial t
        end
      in
      match result with Ok () -> go (nl + 1) | Error _ -> result
  in
  go off

let flush_partial t = if Buffer.length t.partial = 0 then Ok () else accept_partial t

let peek_pending t = match Queue.peek_opt t.pending with None -> None | Some (ev, _) -> Some ev

let pop_pending t =
  match Queue.take_opt t.pending with
  | None -> None
  | Some (ev, cost) ->
      t.pending_bytes <- t.pending_bytes - cost;
      t.delivered <- t.delivered + 1;
      Some ev

let drop_pending t =
  Queue.clear t.pending;
  t.pending_bytes <- 0;
  Buffer.clear t.partial

let ensure_end t =
  if not t.saw_end then begin
    t.saw_end <- true;
    t.synthesized_end <- true;
    Queue.push (Event.Program_end, 0) t.pending
  end

let terminate t status msg =
  if t.status = Status.Ok then begin
    t.status <- status;
    t.error <- msg
  end
