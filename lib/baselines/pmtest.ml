open Pmem
open Pmtrace

type line_info = {
  mutable dirty : bool;  (** stored since last drain *)
  mutable pending : bool;  (** flushed, waiting for a fence *)
  mutable drain_seq : int;  (** sequence of the fence that last drained it *)
}

type t = {
  lines : (int, line_info) Hashtbl.t;
  mutable pending_lines : int list;
  logs : Pmdebugger.Tx_logs.t;
  ledger : Bug.Ledger.t;
  mutable events : int;
  mutable seq : int;
  mutable annotations : int;
}

let create () =
  {
    lines = Hashtbl.create 1024;
    pending_lines = [];
    logs = Pmdebugger.Tx_logs.create ();
    ledger = Bug.Ledger.create ();
    events = 0;
    seq = 0;
    annotations = 0;
  }

let report_bug t kind ~addr ?size ~detail () = Bug.Ledger.add t.ledger kind ~addr ?size ~seq:t.seq ~detail ()

let line_info t line =
  match Hashtbl.find_opt t.lines line with
  | Some info -> info
  | None ->
      let info = { dirty = false; pending = false; drain_seq = -1 } in
      Hashtbl.replace t.lines line info;
      info

let on_store t ~addr ~size =
  List.iter
    (fun line ->
      let info = line_info t line in
      info.dirty <- true;
      (* A pending writeback of this line is voided by the new store. *)
      info.pending <- false)
    (Addr.lines_of_range ~lo:addr ~hi:(addr + size))

let on_clf t ~addr ~size =
  List.iter
    (fun line ->
      let info = line_info t line in
      if info.pending then
        report_bug t Bug.Redundant_flush ~addr:(line * Addr.cache_line_size) ~size:Addr.cache_line_size
          ~detail:"line already flushed before fence" ()
      else if info.dirty then begin
        info.dirty <- false;
        info.pending <- true;
        t.pending_lines <- line :: t.pending_lines
      end)
    (Addr.lines_of_range ~lo:addr ~hi:(addr + size))

let on_fence t =
  List.iter
    (fun line ->
      let info = line_info t line in
      if info.pending then begin
        info.pending <- false;
        info.drain_seq <- t.seq
      end)
    t.pending_lines;
  t.pending_lines <- []

let durable t ~addr ~size =
  List.for_all
    (fun line ->
      match Hashtbl.find_opt t.lines line with
      | None -> false (* never stored: nothing made it durable *)
      | Some info -> (not info.dirty) && (not info.pending) && info.drain_seq >= 0)
    (Addr.lines_of_range ~lo:addr ~hi:(addr + size))

let last_drain t ~addr ~size =
  List.fold_left
    (fun acc line ->
      match Hashtbl.find_opt t.lines line with
      | Some info when info.drain_seq >= 0 -> max acc info.drain_seq
      | _ -> acc)
    (-1)
    (Addr.lines_of_range ~lo:addr ~hi:(addr + size))

let on_annotation t = function
  | Event.Assert_durable { addr; size } ->
      t.annotations <- t.annotations + 1;
      if not (durable t ~addr ~size) then
        report_bug t Bug.No_durability ~addr ~size ~detail:"assert_durable failed" ()
  | Event.Assert_ordered { first_addr; first_size; then_addr; then_size } ->
      t.annotations <- t.annotations + 1;
      let first_durable = durable t ~addr:first_addr ~size:first_size in
      let then_durable = durable t ~addr:then_addr ~size:then_size in
      let violated =
        (then_durable && not first_durable)
        || (first_durable && then_durable
           && last_drain t ~addr:then_addr ~size:then_size < last_drain t ~addr:first_addr ~size:first_size)
      in
      if violated then
        report_bug t Bug.No_order_guarantee ~addr:then_addr ~size:then_size ~detail:"assert_ordered failed" ()
  | Event.Assert_fresh { addr; size } ->
      t.annotations <- t.annotations + 1;
      let stale =
        List.exists
          (fun line ->
            match Hashtbl.find_opt t.lines line with Some info -> info.dirty || info.pending | None -> false)
          (Addr.lines_of_range ~lo:addr ~hi:(addr + size))
      in
      if stale then
        report_bug t Bug.Multiple_overwrites ~addr ~size ~detail:"assert_fresh: pending store overwritten" ()

let on_tx_log t ~obj_addr ~size ~tid =
  if Pmdebugger.Tx_logs.note t.logs ~tid ~lo:obj_addr ~hi:(obj_addr + size) ~seq:t.seq then
    report_bug t Bug.Redundant_logging ~addr:obj_addr ~size ~detail:"object logged more than once in one transaction" ()

let on_event t ev =
  t.events <- t.events + 1;
  t.seq <- t.seq + 1;
  match ev with
  | Event.Store { addr; size; tid = _ } -> on_store t ~addr ~size
  | Event.Clf { addr; size; tid = _; kind = _ } -> on_clf t ~addr ~size
  | Event.Fence _ -> on_fence t
  | Event.Annotation ann -> on_annotation t ann
  | Event.Tx_log { obj_addr; size; tid } -> on_tx_log t ~obj_addr ~size ~tid
  | Event.Epoch_end { tid } -> Pmdebugger.Tx_logs.reset t.logs ~tid
  (* PMTest has no epoch/strand rules and no final-state sweep: bugs not
     covered by an annotation are missed. *)
  | Event.Register_pmem _ | Event.Epoch_begin _ | Event.Strand_begin _ | Event.Strand_end _ | Event.Join_strand _
  | Event.Register_var _ | Event.Call _ | Event.Program_end ->
      ()

let annotations_seen t = t.annotations

let sink t =
  Sink.make ~name:"pmtest"
    ~on_event:(fun ev -> on_event t ev)
    ~finish:(fun () ->
      {
        Bug.detector = "pmtest";
        bugs = Bug.Ledger.findings t.ledger;
        events_processed = t.events;
        stats = [ ("annotations", float_of_int t.annotations) ];
        failure = None;
      })
