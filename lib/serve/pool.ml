open Pmtrace

type outcome = {
  status : Status.t;
  error : string option;
  report : Bug.report;
  skipped_lines : (int * string) list;
  synthesized_end : bool;
}

type slot = {
  id : int;
  in_flight : int Atomic.t; (* bytes offered, not yet decoded *)
  queued : int Atomic.t; (* chunks offered, not yet decoded *)
  events : int Atomic.t; (* events decoded so far *)
  outcome : outcome option Atomic.t;
}

let in_flight slot = Atomic.get slot.in_flight

let queued slot = Atomic.get slot.queued

let events slot = Atomic.get slot.events

let result slot = Atomic.get slot.outcome

type input = Chunk of Bytes.t | End | Cut of Status.t * string option

type msg = Open of slot * bool | Input of slot * input | Stop

(* Per-worker observability state, mutated only on the worker's domain.
   The registry is published as an immutable snapshot through [snap]
   (Atomic.set is a release: the dispatch domain reads a fully-built
   value), so `pmdb stats --daemon` merges live worker truth without
   the workers ever sharing a registry. The flight-recorder ring is
   read directly by the dispatch domain at dump time — a benign data
   race (every slot read sees some previously-written value; OCaml's
   memory model keeps it memory-safe), acceptable for a black-box
   diagnostic. *)
type worker_state = {
  labels : Obs.Metrics.labels; (* [("domain", "<i>")] *)
  reg : Obs.Metrics.t;
  ring : Obs.Flightrec.t;
  heatmap : Obs.Heatmap.t;
      (* shared by every session's detector on this worker — hot lines
         are a whole-daemon property, so per-session tables would just
         be merged again anyway *)
  snap : Obs.Metrics.snapshot Atomic.t;
  hm_snap : Obs.Heatmap.snapshot Atomic.t;
  mutable unpublished : int; (* events since the last publish *)
}

let publish_every = 512

(* Worker mailbox slots, counted in messages: a chunk is one read of up
   to 64 KiB, and a session's bytes in flight are capped by its budget. *)
let queue_capacity = 256

exception Closed

(* A worker's mailbox. An idle worker sleeps in [Condition.wait]. An
   {!offer} that finds [queue_capacity] messages sets [room_wanted];
   the worker's next take clears it and wakes the dispatch domain. The
   worker closes the mailbox when it exits. *)
type mailbox = {
  lock : Mutex.t;
  nonempty : Condition.t;
  msgs : msg Queue.t;
  mutable room_wanted : bool;
  mutable closed : bool;
}

let mailbox () =
  { lock = Mutex.create (); nonempty = Condition.create (); msgs = Queue.create (); room_wanted = false; closed = false }

(* [false] when [bounded] and the mailbox is full. Raises [Closed] once
   its worker has exited. *)
let post mb ~bounded msg =
  Mutex.protect mb.lock (fun () ->
      if mb.closed then raise Closed;
      if bounded && Queue.length mb.msgs >= queue_capacity then begin
        mb.room_wanted <- true;
        false
      end
      else begin
        Queue.push msg mb.msgs;
        Condition.signal mb.nonempty;
        true
      end)

let take mb wake =
  let msg, room_wanted =
    Mutex.protect mb.lock (fun () ->
        while Queue.is_empty mb.msgs do
          Condition.wait mb.nonempty mb.lock
        done;
        let room_wanted = mb.room_wanted in
        mb.room_wanted <- false;
        (Queue.pop mb.msgs, room_wanted))
  in
  if room_wanted then wake ();
  msg

let publish st =
  Atomic.set st.snap (Obs.Metrics.snapshot st.reg);
  if Obs.Heatmap.is_on st.heatmap then Atomic.set st.hm_snap (Obs.Heatmap.snapshot st.heatmap);
  st.unpublished <- 0

type t = {
  mailboxes : mailbox array;
  mutable domains : unit Domain.t array; (* empty once stopped *)
  states : worker_state array;
}

(* The session's outcome lands in its slot; its engine is gone from the
   worker, so input still queued for it is dropped. Metrics are
   published first: once the dispatch domain sees the outcome (and
   replies to the client), the published snapshot covers this whole
   session. *)
let conclude st wake sessions (slot, engine, session) =
  Hashtbl.remove sessions slot.id;
  let report = Engine.finish_one engine in
  (* A quarantine the engine recorded at finish overrides a clean
     status: the client must learn the detector failed. *)
  Option.iter (fun msg -> Session.terminate session Status.Detector_error (Some msg)) report.Bug.failure;
  if Obs.Metrics.is_on st.reg then begin
    Obs.Metrics.inc st.reg ~labels:st.labels "serve_worker_finishes_total";
    publish st
  end;
  Atomic.set slot.outcome
    (Some
       {
         status = Session.status session;
         error = Session.error session;
         report;
         skipped_lines = Session.skipped_lines session;
         synthesized_end = Session.synthesized_end session;
       });
  wake ()

(* After every message: a detector quarantine ends the session too (it
   is fed nothing more), and an ended session concludes. *)
let step st wake sessions ((slot, engine, session) as s) =
  (match Engine.quarantined engine with
  | (_, msg) :: _ -> Session.cut_short session Status.Detector_error (Some msg)
  | [] -> ());
  Atomic.set slot.events (Session.events session);
  if Session.ended session then conclude st wake sessions s

(* One message step, on the worker domain. A session is `pmdb replay`
   over its bytes: the offline decoder emitting into the offline
   detection path (Engine.open_one ... Engine.finish_one), so every
   detector exception, at creation included, funnels through the
   engine's quarantine — the session's report then carries the failure,
   exactly as an offline replay would. *)
let handle ~budget ~wake make_sink st sessions msg =
  match msg with
  | Open (slot, lenient) ->
      (* The engine records dispatch into the worker's ring (virtual
         seq timestamps); worker metrics stay out of the engine so the
         per-session report is byte-identical to an offline replay. *)
      let engine = Engine.open_one ~flightrec:st.ring (fun _ -> make_sink ~heatmap:st.heatmap) in
      let session = Session.create ~lenient ~budget (Engine.emit engine) in
      Hashtbl.replace sessions slot.id (slot, engine, session);
      if Obs.Metrics.is_on st.reg then begin
        Obs.Metrics.inc st.reg ~labels:st.labels "serve_worker_sessions_total";
        publish st
      end;
      step st wake sessions (slot, engine, session)
  | Input (slot, input) -> (
      let bytes = match input with Chunk b -> Bytes.length b | End | Cut _ -> 0 in
      Obs.Metrics.inc st.reg ~labels:st.labels ~by:bytes "serve_worker_bytes_total";
      match Hashtbl.find_opt sessions slot.id with
      | None ->
          (* Bytes sent after the session ended are published at once, so
             the books balance when the queue drains. *)
          if bytes > 0 && Obs.Metrics.is_on st.reg then publish st
      | Some ((_, _, session) as s) ->
          let before = Session.events session in
          (match input with
          | Chunk b ->
              Session.feed session b ~off:0 ~len:bytes;
              Atomic.decr slot.queued;
              (* A session whose fd was paused at its budget can be read
                 again: wake the dispatch domain. *)
              let was = Atomic.fetch_and_add slot.in_flight (-bytes) in
              if was >= budget && was - bytes < budget then wake ()
          | End -> Session.finish session
          | Cut (status, msg) -> Session.cut_short session status msg);
          if Obs.Metrics.is_on st.reg then begin
            let n = Session.events session - before in
            Obs.Metrics.inc st.reg ~by:n "serve_events_total";
            Obs.Metrics.inc st.reg ~labels:st.labels ~by:n "serve_worker_events_total";
            st.unpublished <- st.unpublished + n;
            if st.unpublished >= publish_every then publish st
          end;
          step st wake sessions s)
  | Stop -> ()

let worker_loop ~budget ~wake make_sink st mb =
  (* Closing the mailbox on exit: a post after worker death raises
     [Closed] instead of parking messages nobody will take. *)
  Fun.protect ~finally:(fun () -> Mutex.protect mb.lock (fun () -> mb.closed <- true)) @@ fun () ->
  let sessions = Hashtbl.create 16 in
  let rec go () =
    match take mb wake with
    | Stop -> ()
    | msg ->
        handle ~budget ~wake make_sink st sessions msg;
        go ()
  in
  go ()

let create ?(worker_metrics = false) ?flightrec_capacity ?heatmap_cap ~wake ~workers ~session_budget
    make_sink =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let mailboxes = Array.init workers (fun _ -> mailbox ()) in
  let states =
    Array.init workers (fun i ->
        let labels = [ ("domain", string_of_int i) ] in
        let reg = if worker_metrics then Obs.Metrics.create () else Obs.Metrics.disabled in
        if worker_metrics then begin
          (* Declare the series so every worker appears in merged
             snapshots even before its first session. *)
          List.iter
            (fun name -> Obs.Metrics.inc reg ~labels ~by:0 name)
            [
              "serve_worker_sessions_total";
              "serve_worker_events_total";
              "serve_worker_finishes_total";
              "serve_worker_bytes_total";
            ];
          Obs.Metrics.inc reg ~by:0 "serve_events_total"
        end;
        let ring =
          match flightrec_capacity with
          | None -> Obs.Flightrec.disabled
          | Some capacity -> Obs.Flightrec.create ~capacity ()
        in
        let heatmap =
          match heatmap_cap with
          | None -> Obs.Heatmap.disabled
          | Some cap -> Obs.Heatmap.create ~cap ()
        in
        {
          labels;
          reg;
          ring;
          heatmap;
          snap = Atomic.make (Obs.Metrics.snapshot reg);
          hm_snap = Atomic.make (Obs.Heatmap.snapshot heatmap);
          unpublished = 0;
        })
  in
  let domains =
    Array.init workers (fun i ->
        Domain.spawn (fun () -> worker_loop ~budget:session_budget ~wake make_sink states.(i) mailboxes.(i)))
  in
  { mailboxes; domains; states }

let mailbox_of t slot = t.mailboxes.(slot.id mod Array.length t.mailboxes)

let open_session t ~id ~lenient =
  let slot =
    { id; in_flight = Atomic.make 0; queued = Atomic.make 0; events = Atomic.make 0; outcome = Atomic.make None }
  in
  ignore (post (mailbox_of t slot) ~bounded:false (Open (slot, lenient)));
  slot

(* A chunk counts as in flight before it is posted, so the worker's
   decrement never sees it early. *)
let offer t slot input =
  let bytes, chunks = match input with Chunk b -> (Bytes.length b, 1) | End | Cut _ -> (0, 0) in
  let count sign =
    ignore (Atomic.fetch_and_add slot.in_flight (sign * bytes));
    ignore (Atomic.fetch_and_add slot.queued (sign * chunks))
  in
  count 1;
  let sent = post (mailbox_of t slot) ~bounded:true (Input (slot, input)) in
  if not sent then count (-1);
  sent

let metrics_snapshots t = Array.to_list (Array.map (fun st -> Atomic.get st.snap) t.states)

let heatmap_snapshots t = Array.to_list (Array.map (fun st -> Atomic.get st.hm_snap) t.states)

let flightrec_rings t =
  Array.to_list (Array.mapi (fun i st -> (Printf.sprintf "worker-%d" i, st.ring)) t.states)

let stop t =
  if Array.length t.domains > 0 then begin
    Array.iter (fun mb -> try ignore (post mb ~bounded:false Stop) with Closed -> ()) t.mailboxes;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    (* The workers have joined: publish their final registries so the
       daemon's shutdown snapshot is exact. *)
    Array.iter publish t.states
  end
