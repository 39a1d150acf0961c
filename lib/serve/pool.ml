open Pmtrace

type slot = { failed : string option Atomic.t; result : Bug.report option Atomic.t }

let failed slot = Atomic.get slot.failed

let result slot = Atomic.get slot.result

type msg = Open of int * slot | Ev of int * Event.t | Finish of int | Stop

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
  mutable unpublished : int; (* Ev records since the last publish *)
}

let publish_every = 512

let publish st =
  Atomic.set st.snap (Obs.Metrics.snapshot st.reg);
  if Obs.Heatmap.is_on st.heatmap then Atomic.set st.hm_snap (Obs.Heatmap.snapshot st.heatmap);
  st.unpublished <- 0

type t = {
  queues : msg Spsc.t array;
  mutable domains : unit Domain.t array; (* empty once stopped *)
  states : worker_state array;
}

(* Surface the engine's quarantine, if any, to the dispatch domain. *)
let note_failure engine slot =
  if Atomic.get slot.failed = None then
    match Engine.quarantined engine with (_, msg) :: _ -> Atomic.set slot.failed (Some msg) | [] -> ()

(* One message step, on the worker domain. A session is the offline
   detection path (Engine.open_one ... Engine.finish_one): every
   detector exception, at creation included, funnels through the
   engine's quarantine — the session's report then carries the failure,
   exactly as an offline replay would. *)
let handle make_sink st sessions msg =
  match msg with
  | Open (id, slot) ->
      (* The engine records dispatch into the worker's ring (virtual
         seq timestamps); worker metrics stay out of the engine so the
         per-session report is byte-identical to an offline replay. *)
      let engine = Engine.open_one ~flightrec:st.ring (fun _ -> make_sink ~heatmap:st.heatmap) in
      note_failure engine slot;
      Hashtbl.replace sessions id (engine, slot);
      if Obs.Metrics.is_on st.reg then begin
        Obs.Metrics.inc st.reg ~labels:st.labels "serve_worker_sessions_total";
        publish st
      end
  | Ev (id, ev) -> (
      match Hashtbl.find_opt sessions id with
      | None -> ()
      | Some (engine, slot) ->
          Engine.emit engine ev;
          if Obs.Metrics.is_on st.reg then begin
            Obs.Metrics.inc st.reg ~labels:st.labels "serve_worker_events_total";
            st.unpublished <- st.unpublished + 1;
            if st.unpublished >= publish_every then publish st
          end;
          note_failure engine slot)
  | Finish id -> (
      match Hashtbl.find_opt sessions id with
      | None -> ()
      | Some (engine, slot) ->
          Hashtbl.remove sessions id;
          let report = Engine.finish_one engine in
          (* Publish before the result lands: once the dispatch domain
             sees the report (and replies to the client), the published
             snapshot is guaranteed to cover this whole session. *)
          if Obs.Metrics.is_on st.reg then begin
            Obs.Metrics.inc st.reg ~labels:st.labels "serve_worker_finishes_total";
            publish st
          end;
          Atomic.set slot.result (Some report))
  | Stop -> ()

let worker_loop make_sink st q =
  (* Closing the queue on exit poisons it: a router push after worker
     death raises [Spsc.Closed] instead of blocking forever. *)
  Fun.protect ~finally:(fun () -> Spsc.close q) @@ fun () ->
  let sessions = Hashtbl.create 16 in
  let rec go () =
    match Spsc.pop q with
    | Stop -> ()
    | msg ->
        handle make_sink st sessions msg;
        go ()
    | exception Spsc.Closed -> ()
  in
  go ()

let create ?(worker_metrics = false) ?flightrec_capacity ?heatmap_cap ~workers
    ~queue_capacity make_sink =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let queues = Array.init workers (fun _ -> Spsc.create ~capacity:queue_capacity) in
  let states =
    Array.init workers (fun i ->
        let labels = [ ("domain", string_of_int i) ] in
        let reg = if worker_metrics then Obs.Metrics.create () else Obs.Metrics.disabled in
        if worker_metrics then
          (* Declare the series so every worker appears in merged
             snapshots even before its first session. *)
          List.iter
            (fun name -> Obs.Metrics.inc reg ~labels ~by:0 name)
            [ "serve_worker_sessions_total"; "serve_worker_events_total"; "serve_worker_finishes_total" ];
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
  let domains = Array.init workers (fun i -> Domain.spawn (fun () -> worker_loop make_sink states.(i) queues.(i))) in
  { queues; domains; states }

let worker_of t id = id mod Array.length t.queues

let send t id msg = Spsc.push t.queues.(worker_of t id) msg

let try_send t id msg = Spsc.try_push t.queues.(worker_of t id) msg

let open_session t ~id =
  let slot = { failed = Atomic.make None; result = Atomic.make None } in
  send t id (Open (id, slot));
  slot

let submit t ~id ev = send t id (Ev (id, ev))

let try_submit t ~id ev = try_send t id (Ev (id, ev))

let finish_session t ~id = send t id (Finish id)

let queue_length t ~id = Spsc.length t.queues.(worker_of t id)

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
