open Pmtrace

type t = {
  id : int;
  name : string;
  created : float; (* daemon clock at accept, for submit->result latency *)
  decoder : Trace_io.Decoder.t;
  pending : (Event.t * int) Queue.t;
  pending_bytes : int ref;
  mutable delivered : int;
  mutable last_activity : float;
  mutable status : Status.t;
  mutable error : string option;
}

(* The cost a queued event is charged against the session budget: its
   line length plus boxing overhead. What matters is that the charge is
   proportional to the bytes the client actually sent, so a budget in
   bytes bounds both the decoder's carried line and the parsed queue. A
   synthesized end was never sent and costs nothing. *)
let event_cost len = if len = 0 then 0 else len + 16

let create ~id ~name ~lenient ~now =
  let pending = Queue.create () and pending_bytes = ref 0 in
  let enqueue ev len =
    let cost = event_cost len in
    Queue.push (ev, cost) pending;
    pending_bytes := !pending_bytes + cost
  in
  {
    id;
    name;
    created = now;
    decoder = Trace_io.Decoder.create ~lenient enqueue;
    pending;
    pending_bytes;
    delivered = 0;
    last_activity = now;
    status = Status.Ok;
    error = None;
  }

let id t = t.id

let name t = t.name

let status t = t.status

let error t = t.error

let events_delivered t = t.delivered

let skipped t = Trace_io.Decoder.skipped t.decoder

let synthesized_end t = Trace_io.Decoder.synthesized t.decoder

let last_activity t = t.last_activity

let created t = t.created

let pending_events t = Queue.length t.pending

let live_bytes t = Trace_io.Decoder.carried t.decoder + !(t.pending_bytes)

(* A strict decoding error fails the session. *)
let note_error t = function
  | Ok () -> Ok ()
  | Error msg as e ->
      t.status <- Status.Trace_error;
      t.error <- Some msg;
      e

let feed t ~now buf ~off ~len =
  t.last_activity <- now;
  note_error t (Trace_io.Decoder.feed t.decoder buf ~off ~len)

let finish t = note_error t (Trace_io.Decoder.finish t.decoder)

let peek_pending t = match Queue.peek_opt t.pending with None -> None | Some (ev, _) -> Some ev

let pop_pending t =
  match Queue.take_opt t.pending with
  | None -> None
  | Some (ev, cost) ->
      t.pending_bytes := !(t.pending_bytes) - cost;
      t.delivered <- t.delivered + 1;
      Some ev

let cut_short t ~drop =
  if drop then begin
    Queue.clear t.pending;
    t.pending_bytes := 0
  end;
  Trace_io.Decoder.truncate t.decoder

let terminate t status msg =
  if t.status = Status.Ok then begin
    t.status <- status;
    t.error <- msg
  end
