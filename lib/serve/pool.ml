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

(* Worker queue slots, counted in messages: a chunk is one read of up to
   64 KiB, and a session's bytes in flight are capped by its budget. *)
let queue_capacity = 256

let publish st =
  Atomic.set st.snap (Obs.Metrics.snapshot st.reg);
  if Obs.Heatmap.is_on st.heatmap then Atomic.set st.hm_snap (Obs.Heatmap.snapshot st.heatmap);
  st.unpublished <- 0

type t = {
  queues : msg Spsc.t array;
  room_wanted : bool Atomic.t array; (* per worker: {!offer} found its queue full *)
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

let worker_loop ~budget ~wake make_sink st q room_wanted =
  (* Closing the queue on exit poisons it: a router push after worker
     death raises [Spsc.Closed] instead of blocking forever. *)
  Fun.protect ~finally:(fun () -> Spsc.close q) @@ fun () ->
  let sessions = Hashtbl.create 16 in
  let rec go () =
    match Spsc.pop q with
    | msg -> (
        (* The pop made room: a message parked on the full queue may go. *)
        if Atomic.exchange room_wanted false then wake ();
        match msg with
        | Stop -> ()
        | msg ->
            handle ~budget ~wake make_sink st sessions msg;
            go ())
    | exception Spsc.Closed -> ()
  in
  go ()

let create ?(worker_metrics = false) ?flightrec_capacity ?heatmap_cap ~wake ~workers ~session_budget
    make_sink =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let queues = Array.init workers (fun _ -> Spsc.create ~capacity:queue_capacity) in
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
  let room_wanted = Array.init workers (fun _ -> Atomic.make false) in
  let domains =
    Array.init workers (fun i ->
        Domain.spawn (fun () ->
            worker_loop ~budget:session_budget ~wake make_sink states.(i) queues.(i) room_wanted.(i)))
  in
  { queues; room_wanted; domains; states }

let worker t slot = slot.id mod Array.length t.queues

let queue t slot = t.queues.(worker t slot)

let open_session t ~id ~lenient =
  let slot =
    { id; in_flight = Atomic.make 0; queued = Atomic.make 0; events = Atomic.make 0; outcome = Atomic.make None }
  in
  Spsc.push (queue t slot) (Open (slot, lenient));
  slot

(* A chunk counts as in flight before it is pushed, so the worker's
   decrement never sees it early. On a full queue the worker is asked
   for a wake at its next pop, and the push is tried once more: that
   catches a worker that emptied the queue before it saw the request. *)
let offer t slot input =
  let bytes, chunks = match input with Chunk b -> (Bytes.length b, 1) | End | Cut _ -> (0, 0) in
  let count sign =
    ignore (Atomic.fetch_and_add slot.in_flight (sign * bytes));
    ignore (Atomic.fetch_and_add slot.queued (sign * chunks))
  in
  count 1;
  let q = queue t slot and msg = Input (slot, input) in
  let sent =
    Spsc.try_push q msg
    || begin
         Atomic.set t.room_wanted.(worker t slot) true;
         Spsc.try_push q msg
       end
  in
  if not sent then count (-1);
  sent

let metrics_snapshots t = Array.to_list (Array.map (fun st -> Atomic.get st.snap) t.states)

let heatmap_snapshots t = Array.to_list (Array.map (fun st -> Atomic.get st.hm_snap) t.states)

let flightrec_rings t =
  Array.to_list (Array.mapi (fun i st -> (Printf.sprintf "worker-%d" i, st.ring)) t.states)

let stop t =
  if Array.length t.domains > 0 then begin
    Array.iter (fun q -> try Spsc.push q Stop with Spsc.Closed -> ()) t.queues;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    (* The workers have joined: publish their final registries so the
       daemon's shutdown snapshot is exact. *)
    Array.iter publish t.states
  end
