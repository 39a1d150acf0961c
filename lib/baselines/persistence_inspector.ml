open Pmem
open Pmtrace

type record = { lo : int; hi : int; mutable flushed : bool; seq : int }

type t = {
  (* Per-store history of every location touched inside the PMDK
     domain, scanned linearly — the expensive bookkeeping that puts the
     tool in Table 1's "high overhead" row. *)
  mutable history : record list;
  mutable engaged : bool;  (** PMDK markers seen *)
  mutable in_tx : int;
  ledger : Bug.Ledger.t;
  mutable events : int;
  mutable seq : int;
}

let create () =
  {
    history = [];
    engaged = false;
    in_tx = 0;
    ledger = Bug.Ledger.create ();
    events = 0;
    seq = 0;
  }

let active t = t.engaged

let report_bug t kind ~addr ?size ~detail () = Bug.Ledger.add t.ledger kind ~addr ?size ~seq:t.seq ~detail ()

let overlaps r ~lo ~hi = r.lo < hi && lo < r.hi

(* Only stores made inside a transaction are analyzed: the tool's PMDK
   focus. *)
let on_store t ~addr ~size =
  if t.engaged && t.in_tx > 0 then begin
    List.iter
      (fun r ->
        if overlaps r ~lo:addr ~hi:(addr + size) then begin
          if not r.flushed then
            report_bug t Bug.Multiple_overwrites ~addr ~size ~detail:"overwrite before durability guaranteed" ();
          r.flushed <- false
        end)
      t.history;
    t.history <- { lo = addr; hi = addr + size; flushed = false; seq = t.seq } :: t.history
  end

let on_clf t ~addr ~size =
  if t.engaged then begin
    let hit = ref false and fresh = ref false in
    List.iter
      (fun r ->
        if overlaps r ~lo:addr ~hi:(addr + size) then begin
          hit := true;
          if not r.flushed then begin
            fresh := true;
            if Addr.range ~lo:addr ~hi:(addr + size) |> fun f -> Addr.covers f (Addr.range ~lo:r.lo ~hi:r.hi) then
              r.flushed <- true
          end
        end)
      t.history;
    if !hit && not !fresh then
      report_bug t Bug.Redundant_flush ~addr ~size ~detail:"store flushed again before the fence" ()
  end

let on_fence t = if t.engaged then t.history <- List.filter (fun r -> not r.flushed) t.history

let on_program_end t =
  List.iter
    (fun r ->
      report_bug t Bug.No_durability ~addr:r.lo ~size:(r.hi - r.lo)
        ~detail:(if r.flushed then "flushed but never fenced (missing fence)" else "never flushed (missing CLF)")
        ())
    t.history

let on_event t ev =
  t.events <- t.events + 1;
  t.seq <- t.seq + 1;
  match ev with
  | Event.Epoch_begin _ ->
      t.engaged <- true;
      t.in_tx <- t.in_tx + 1
  | Event.Epoch_end _ -> t.in_tx <- max 0 (t.in_tx - 1)
  | Event.Tx_log _ -> t.engaged <- true
  | Event.Store { addr; size; _ } -> on_store t ~addr ~size
  | Event.Clf { addr; size; _ } -> on_clf t ~addr ~size
  | Event.Fence _ -> on_fence t
  | Event.Program_end -> on_program_end t
  | Event.Register_pmem _ | Event.Strand_begin _ | Event.Strand_end _ | Event.Join_strand _ | Event.Register_var _
  | Event.Call _ | Event.Annotation _ ->
      ()

let sink t =
  Sink.make ~name:"persistence-inspector"
    ~on_event:(fun ev -> on_event t ev)
    ~finish:(fun () ->
      {
        Bug.detector = "persistence-inspector";
        bugs = Bug.Ledger.findings t.ledger;
        events_processed = t.events;
        stats = [ ("engaged", if t.engaged then 1.0 else 0.0) ];
        failure = None;
      })
