(* Each attached sink lives in a slot so a sink that raises can be
   quarantined — taken out of the dispatch path with its exception
   recorded — without disturbing sibling sinks. *)
type slot = {
  sink : Sink.t;
  mutable events_seen : int;
  mutable failure : string option;
}

type t = {
  state : Pmem.State.t;
  mutable slots_rev : slot list; (* reverse attach order: O(1) attach *)
  mutable active : slot array; (* dispatch cache, attach order, healthy only *)
  mutable active_dirty : bool;
  mutable instrument : bool;
  metrics : Obs.Metrics.t;
  flightrec : Obs.Flightrec.t;
  mutable tid : int;
  mutable seq : int;
}

let create ?(metrics = Obs.Metrics.disabled) ?(flightrec = Obs.Flightrec.disabled) () =
  {
    state = Pmem.State.create ();
    slots_rev = [];
    active = [||];
    active_dirty = false;
    instrument = true;
    metrics;
    flightrec;
    tid = 0;
    seq = 0;
  }

let pm t = t.state

let attach t sink =
  t.slots_rev <- { sink; events_seen = 0; failure = None } :: t.slots_rev;
  t.active_dirty <- true

let detach_all t =
  t.slots_rev <- [];
  t.active <- [||];
  t.active_dirty <- false

let slots_in_order t = List.rev t.slots_rev

let sinks t = List.map (fun s -> s.sink) (slots_in_order t)

let refresh_active t =
  t.active <- Array.of_list (List.filter (fun s -> s.failure = None) (slots_in_order t));
  t.active_dirty <- false

let quarantine_msg t slot msg =
  slot.failure <- Some msg;
  Obs.Metrics.inc t.metrics ~labels:[ ("sink", slot.sink.Sink.name) ] "engine_sinks_quarantined_total";
  if Obs.Flightrec.is_on t.flightrec then
    Obs.Flightrec.record t.flightrec ~ts:(float_of_int t.seq) ~cat:"quarantine"
      ~name:slot.sink.Sink.name ~a:t.seq ~b:0;
  t.active_dirty <- true

let quarantine t slot exn = quarantine_msg t slot (Printexc.to_string exn)

let quarantined t =
  List.filter_map
    (fun s -> match s.failure with Some msg -> Some (s.sink.Sink.name, msg) | None -> None)
    (slots_in_order t)

let set_instrumentation t b = t.instrument <- b

let set_tid t tid = t.tid <- tid

let run_sinks t slots ev =
  for i = 0 to Array.length slots - 1 do
    let slot = slots.(i) in
    if slot.failure = None then begin
      match slot.sink.Sink.on_event ev with
      | () -> slot.events_seen <- slot.events_seen + 1
      | exception exn -> quarantine t slot exn
    end
  done

let dispatch t ev =
  t.seq <- t.seq + 1;
  if t.instrument then begin
    if t.active_dirty then refresh_active t;
    let slots = t.active in
    (* Hot path: disabled flight recorder and metrics cost one branch
       each. The recorder timestamps with virtual seq time, so replay
       dumps are deterministic. *)
    if Obs.Flightrec.is_on t.flightrec then
      Obs.Flightrec.record t.flightrec ~ts:(float_of_int t.seq) ~cat:"dispatch"
        ~name:(Event.class_name ev) ~a:t.seq
        ~b:(match ev with Event.Store { addr; _ } | Event.Clf { addr; _ } -> addr | _ -> 0);
    if not (Obs.Metrics.is_on t.metrics) then run_sinks t slots ev
    else begin
      let labels = [ ("class", Event.class_name ev) ] in
      Obs.Metrics.inc t.metrics ~labels "engine_events_total";
      let t0 = Unix.gettimeofday () in
      run_sinks t slots ev;
      Obs.Metrics.observe t.metrics ~labels "engine_dispatch_seconds" (Unix.gettimeofday () -. t0)
    end
  end

(* A sink whose [finish] raises is quarantined exactly like one whose
   [on_event] raises — failure recorded, metric bumped, dispatch cache
   invalidated — and yields an empty report, so one bad sink can never
   abort the drain of its siblings. A sink already quarantined mid-run
   keeps its original failure message. *)
let finish_slot t slot =
  let base =
    match slot.sink.Sink.finish () with
    | report -> report
    | exception exn ->
        if slot.failure = None then
          quarantine_msg t slot (Printf.sprintf "finish raised: %s" (Printexc.to_string exn));
        { (Bug.empty_report slot.sink.Sink.name) with Bug.events_processed = slot.events_seen }
  in
  match slot.failure with None -> base | Some msg -> { base with Bug.failure = Some msg }

let finish_all t = List.map (finish_slot t) (slots_in_order t)

(* A constructor that raises leaves a slot that was never healthy: it is
   quarantined before the first event, so dispatch skips it and
   [finish_all] still yields its one report, failure recorded. *)
let open_one ?metrics ?flightrec make =
  let t = create ?metrics ?flightrec () in
  (match make t with
  | sink -> attach t sink
  | exception exn ->
      let slot = { sink = Sink.noop "sink"; events_seen = 0; failure = None } in
      t.slots_rev <- [ slot ];
      quarantine_msg t slot (Printf.sprintf "sink creation raised: %s" (Printexc.to_string exn)));
  t

let finish_one t =
  match finish_all t with [ report ] -> report | _ -> invalid_arg "Engine.finish_one: not a one-sink engine"

let emit = dispatch

let store_bytes t ~addr b =
  Pmem.State.store t.state ~addr b;
  dispatch t (Event.Store { addr; size = Bytes.length b; tid = t.tid })

let store_i64 t ~addr v =
  Pmem.State.store_i64 t.state ~addr v;
  dispatch t (Event.Store { addr; size = 8; tid = t.tid })

let store_int t ~addr v = store_i64 t ~addr (Int64.of_int v)

let store_u8 t ~addr v =
  let b = Bytes.make 1 (Char.chr (v land 0xff)) in
  store_bytes t ~addr b

let store_string t ~addr s = store_bytes t ~addr (Bytes.of_string s)

let clf_with t kind ~addr ~size =
  Pmem.State.clf t.state ~addr;
  dispatch t (Event.Clf { addr = Pmem.Addr.line_base addr; size; kind; tid = t.tid })

let clwb t ~addr = clf_with t Event.Clwb ~addr ~size:Pmem.Addr.cache_line_size

let clflush t ~addr = clf_with t Event.Clflush ~addr ~size:Pmem.Addr.cache_line_size

let clflushopt t ~addr = clf_with t Event.Clflushopt ~addr ~size:Pmem.Addr.cache_line_size

let flush_range t ~addr ~size =
  List.iter
    (fun line -> clwb t ~addr:(line * Pmem.Addr.cache_line_size))
    (Pmem.Addr.lines_of_range ~lo:addr ~hi:(addr + size))

let sfence t =
  Pmem.State.fence t.state;
  dispatch t (Event.Fence { tid = t.tid })

let persist t ~addr ~size =
  flush_range t ~addr ~size;
  sfence t

let load_i64 t ~addr = Pmem.Image.get_i64 (Pmem.State.volatile t.state) addr

let load_int t ~addr = Pmem.Image.get_int (Pmem.State.volatile t.state) addr

let load_u8 t ~addr = Pmem.Image.get_u8 (Pmem.State.volatile t.state) addr

let load_string t ~addr ~len = Pmem.Image.get_string (Pmem.State.volatile t.state) ~addr ~len

let load_bytes t ~addr ~len = Pmem.Image.read (Pmem.State.volatile t.state) ~addr ~len

let register_pmem t ~base ~size = dispatch t (Event.Register_pmem { base; size })

let epoch_begin t = dispatch t (Event.Epoch_begin { tid = t.tid })

let epoch_end t = dispatch t (Event.Epoch_end { tid = t.tid })

let strand_begin t ~strand = dispatch t (Event.Strand_begin { tid = t.tid; strand })

let strand_end t ~strand = dispatch t (Event.Strand_end { tid = t.tid; strand })

let join_strand t = dispatch t (Event.Join_strand { tid = t.tid })

let tx_log t ~obj_addr ~size = dispatch t (Event.Tx_log { obj_addr; size; tid = t.tid })

let register_var t ~name ~addr ~size = dispatch t (Event.Register_var { name; addr; size })

let call_marker t ~func = dispatch t (Event.Call { func; tid = t.tid })

let annotate t a = dispatch t (Event.Annotation a)

let program_end t = dispatch t Event.Program_end
