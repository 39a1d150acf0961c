open Pmem
open Pmtrace

type t = {
  shadow : Shadow_tree.t;
  order : Pmdebugger.Persist_order.t;
  logs : Pmdebugger.Tx_logs.t;
  (* Pre-failure trace recorded so far; replayed at every failure point. *)
  mutable prefix : Event.t array ref;
  mutable prefix_len : int;
  max_failure_points : int;
  mutable failure_points : int;
  mutable fences_seen : int;
  mutable next_fp_fence : int;
  pm : State.t option;
  recovery : (Image.t -> bool) option;
  ledger : Bug.Ledger.t;
  mutable events : int;
  mutable seq : int;
}

let create ?(max_failure_points = 200) ?(config = Pmdebugger.Order_config.empty) ?pm ?recovery () =
  {
    shadow = Shadow_tree.create ();
    order = Pmdebugger.Persist_order.create config;
    logs = Pmdebugger.Tx_logs.create ();
    prefix = ref (Array.make 1024 Event.Program_end);
    prefix_len = 0;
    max_failure_points;
    failure_points = 0;
    fences_seen = 0;
    next_fp_fence = 1;
    pm;
    recovery;
    ledger = Bug.Ledger.create ();
    events = 0;
    seq = 0;
  }

let report_bug t kind ~addr ?size ~detail () = Bug.Ledger.add t.ledger kind ~addr ?size ~seq:t.seq ~detail ()

let record t ev =
  let arr = !(t.prefix) in
  let cap = Array.length arr in
  if t.prefix_len >= cap then begin
    let bigger = Array.make (cap * 2) Event.Program_end in
    Array.blit arr 0 bigger 0 cap;
    t.prefix <- ref bigger
  end;
  !(t.prefix).(t.prefix_len) <- ev;
  t.prefix_len <- t.prefix_len + 1

let on_store t ~addr ~size =
  let lo = addr and hi = addr + size in
  if Shadow_tree.tracks t.shadow ~lo ~hi then begin
    if Shadow_tree.store t.shadow ~lo ~hi ~seq:t.seq then
      report_bug t Bug.Multiple_overwrites ~addr ~size ~detail:"overwrite before durability guaranteed" ();
    Pmdebugger.Persist_order.note_store t.order ~lo ~hi
  end

let on_clf t ~addr ~size =
  let lo = addr and hi = addr + size in
  if Shadow_tree.tracks t.shadow ~lo ~hi then begin
    match Shadow_tree.clf t.shadow ~lo ~hi with
    | Shadow_tree.Redundant { addr; size } ->
        report_bug t Bug.Redundant_flush ~addr ~size ~detail:"store flushed again before the fence" ()
    (* No flush-nothing rule (Table 6). *)
    | Shadow_tree.Flushed_nothing | Shadow_tree.Persisted -> ()
  end

(* Only plain [order] constraints, checked at fences and the program
   end. *)
let check_order t ~cls =
  if Pmdebugger.Persist_order.constrained t.order then begin
    let tree = Shadow_tree.tree t.shadow in
    Pmdebugger.Persist_order.update t.order ~seq:t.seq ~cls ~pending:(fun ~lo ~hi ->
        Rangetree.exists_overlap tree ~lo ~hi);
    Pmdebugger.Persist_order.check t.order
      ~enabled:(fun kind -> kind = Pmdebugger.Order_config.Intra)
      (fun e ~addr ~at:_ ->
        report_bug t Bug.No_order_guarantee ~addr
          ~detail:
            (Printf.sprintf "%s persisted before %s" e.Pmdebugger.Order_config.next e.Pmdebugger.Order_config.first)
          ())
  end

(* The cost model of the two-phase design: reaching failure point k
   means re-executing the whole pre-failure prefix, then executing the
   post-failure (recovery) phase. *)
let simulate_failure_point t =
  if t.failure_points < t.max_failure_points then begin
    t.failure_points <- t.failure_points + 1;
    let arr = !(t.prefix) in
    (* Re-execute the prefix: every store/CLF/fence re-drives a shadow
       persistency state, as the two-phase re-run does. *)
    let lines : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    for i = 0 to t.prefix_len - 1 do
      match arr.(i) with
      | Event.Store { addr; size; _ } ->
          List.iter (fun line -> Hashtbl.replace lines line 1) (Addr.lines_of_range ~lo:addr ~hi:(addr + size))
      | Event.Clf { addr; _ } -> (
          let line = Addr.line_of addr in
          match Hashtbl.find_opt lines line with Some 1 -> Hashtbl.replace lines line 2 | _ -> ())
      | Event.Fence _ ->
          Hashtbl.filter_map_inplace (fun _ state -> if state = 2 then None else Some state) lines
      | _ -> ()
    done;
    ignore (Hashtbl.length lines);
    match (t.pm, t.recovery) with
    | Some pm, Some recovery ->
        let violations, _ = Pmem.State.check_crash_images pm ~max_images:8 ~recovery in
        if violations > 0 then
          report_bug t Bug.Cross_failure_semantic ~addr:(-1)
            ~detail:(Printf.sprintf "failure point %d: %d inconsistent crash image(s)" t.failure_points violations)
            ()
    | _ -> ()
  end

let on_fence t =
  Shadow_tree.drop_flushed t.shadow;
  check_order t ~cls:"fence";
  (* Failure points are spread geometrically over the execution so long
     runs get analysed end to end within the budget. *)
  t.fences_seen <- t.fences_seen + 1;
  if t.fences_seen >= t.next_fp_fence then begin
    t.next_fp_fence <- t.fences_seen + 1 + (t.fences_seen / 16);
    simulate_failure_point t
  end

let on_tx_log t ~obj_addr ~size ~tid =
  if Pmdebugger.Tx_logs.note t.logs ~tid ~lo:obj_addr ~hi:(obj_addr + size) ~seq:t.seq then
    report_bug t Bug.Redundant_logging ~addr:obj_addr ~size ~detail:"object logged more than once in one transaction" ()

let on_program_end t =
  (* The final durability sweep presumes the two-phase analysis covered
     the whole execution; once the failure-point budget is exhausted the
     suffix was never analysed and coverage is lost (§7.4: XFDetector
     "has to restrict the number of instrumented failure points to
     reduce its overhead, resulting in lower bug coverage"). *)
  if t.fences_seen <= t.max_failure_points then
    Shadow_tree.iter_unpersisted t.shadow (fun ~addr ~size ~detail ->
        report_bug t Bug.No_durability ~addr ~size ~detail ());
  check_order t ~cls:"program_end"

let on_event t ev =
  t.events <- t.events + 1;
  t.seq <- t.seq + 1;
  record t ev;
  match ev with
  | Event.Store { addr; size; tid = _ } -> on_store t ~addr ~size
  | Event.Clf { addr; size; tid = _; kind = _ } -> on_clf t ~addr ~size
  | Event.Fence _ -> on_fence t
  | Event.Register_pmem { base; size } -> Shadow_tree.register t.shadow (Addr.of_base_size base size)
  | Event.Register_var { name; addr; size } ->
      Pmdebugger.Persist_order.register t.order ~name (Addr.of_base_size addr size)
  | Event.Call { func; tid = _ } -> Pmdebugger.Persist_order.call t.order func
  | Event.Tx_log { obj_addr; size; tid } -> on_tx_log t ~obj_addr ~size ~tid
  | Event.Epoch_end { tid } -> Pmdebugger.Tx_logs.reset t.logs ~tid
  (* No flush-nothing rule, no epoch/strand rules (Table 6). *)
  | Event.Epoch_begin _ | Event.Strand_begin _ | Event.Strand_end _ | Event.Join_strand _ | Event.Annotation _ -> ()
  | Event.Program_end -> on_program_end t

let failure_points_used t = t.failure_points

let sink t =
  Sink.make ~name:"xfdetector"
    ~on_event:(fun ev -> on_event t ev)
    ~finish:(fun () ->
      {
        Bug.detector = "xfdetector";
        bugs = Bug.Ledger.findings t.ledger;
        events_processed = t.events;
        stats = [ ("failure_points", float_of_int t.failure_points) ];
        failure = None;
      })
