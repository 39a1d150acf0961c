open Pmem
open Pmtrace

type payload = { mutable flushed : bool; seq : int }

type var_state = { mutable stored : bool; mutable persisted : int option }

type t = {
  tree : payload Rangetree.t;
  mutable registered : Addr.range list;
  mutable track_all : bool;
  config : Pmdebugger.Order_config.t;
  vars : (string, Addr.range) Hashtbl.t;
  var_state : (string, var_state) Hashtbl.t;
  funcs_called : (string, unit) Hashtbl.t;
  logged : (int, Addr.range list ref) Hashtbl.t;
  (* Pre-failure trace recorded so far; replayed at every failure point. *)
  mutable prefix : Event.t array ref;
  mutable prefix_len : int;
  max_failure_points : int;
  mutable failure_points : int;
  mutable fences_seen : int;
  mutable next_fp_fence : int;
  pm : State.t option;
  recovery : (Image.t -> bool) option;
  bugs : (Bug.kind * int, Bug.t) Hashtbl.t;
  mutable bug_keys : (Bug.kind * int) list;
  kind_counts : (Bug.kind, int) Hashtbl.t;
  max_bugs_per_kind : int;
  mutable events : int;
  mutable seq : int;
}

let create ?(max_failure_points = 200) ?(config = Pmdebugger.Order_config.empty) ?pm ?recovery
    ?(max_bugs_per_kind = 1000) () =
  {
    tree = Rangetree.create ();
    registered = [];
    track_all = true;
    config;
    vars = Hashtbl.create 8;
    var_state = Hashtbl.create 8;
    funcs_called = Hashtbl.create 8;
    logged = Hashtbl.create 8;
    prefix = ref (Array.make 1024 Event.Program_end);
    prefix_len = 0;
    max_failure_points;
    failure_points = 0;
    fences_seen = 0;
    next_fp_fence = 1;
    pm;
    recovery;
    bugs = Hashtbl.create 64;
    bug_keys = [];
    kind_counts = Hashtbl.create 16;
    max_bugs_per_kind;
    events = 0;
    seq = 0;
  }

let report_bug t kind ~addr ?(size = 0) ~detail () =
  let key = (kind, addr) in
  if not (Hashtbl.mem t.bugs key) then begin
    let n = match Hashtbl.find_opt t.kind_counts kind with None -> 0 | Some n -> n in
    if n < t.max_bugs_per_kind then begin
      Hashtbl.replace t.kind_counts kind (n + 1);
      Hashtbl.replace t.bugs key (Bug.make ~addr ~size ~seq:t.seq ~detail kind);
      t.bug_keys <- key :: t.bug_keys
    end
  end

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

let in_registered t ~lo ~hi =
  t.track_all || List.exists (fun r -> Addr.overlaps r (Addr.range ~lo ~hi)) t.registered

let on_store t ~addr ~size =
  if in_registered t ~lo:addr ~hi:(addr + size) then begin
    let store_range = Addr.of_base_size addr size in
    (* The store supersedes exactly the overlapped bytes: flushed
       regions keep their non-overlapped parts flushed. *)
    let visited =
      Rangetree.map_overlapping t.tree ~lo:addr ~hi:(addr + size) ~f:(fun r p ->
          if Addr.covers store_range r then []
          else if not p.flushed then [ (r, p) ]
          else List.map (fun piece -> (piece, { flushed = true; seq = p.seq })) (Addr.diff r store_range))
    in
    if visited > 0 then
      report_bug t Bug.Multiple_overwrites ~addr ~size ~detail:"overwrite before durability guaranteed" ();
    Rangetree.insert t.tree ~lo:addr ~hi:(addr + size) { flushed = false; seq = t.seq };
    if Hashtbl.length t.vars > 0 then
      Hashtbl.iter
        (fun name (r : Addr.range) ->
          if Addr.overlaps r (Addr.range ~lo:addr ~hi:(addr + size)) then begin
            match Hashtbl.find_opt t.var_state name with
            | Some st ->
                st.stored <- true;
                st.persisted <- None
            | None -> Hashtbl.replace t.var_state name { stored = true; persisted = None }
          end)
        t.vars
  end

let on_clf t ~addr ~size =
  if in_registered t ~lo:addr ~hi:(addr + size) then begin
    let flush = Addr.of_base_size addr size in
    let newly = ref 0 in
    let redundant = ref None in
    let visited =
      Rangetree.map_overlapping t.tree ~lo:addr ~hi:(addr + size) ~f:(fun r p ->
          if p.flushed then begin
            if !redundant = None then redundant := Some (r.Addr.lo, Addr.size r);
            [ (r, p) ]
          end
          else if Addr.covers flush r then begin
            p.flushed <- true;
            incr newly;
            [ (r, p) ]
          end
          else begin
            match Addr.inter r flush with
            | None -> [ (r, p) ]
            | Some covered ->
                incr newly;
                (covered, { flushed = true; seq = p.seq })
                :: List.map (fun part -> (part, { flushed = false; seq = p.seq })) (Addr.diff r covered)
          end)
    in
    (* Redundant only when the writeback persists nothing new; no
       flush-nothing rule (Table 6). *)
    if visited > 0 && !newly = 0 then begin
      let a, s = match !redundant with Some (a, s) -> (a, s) | None -> (addr, size) in
      report_bug t Bug.Redundant_flush ~addr:a ~size:s ~detail:"store flushed again before the fence" ()
    end
  end

let var_persisted t name =
  match Hashtbl.find_opt t.var_state name with Some { persisted = Some _; _ } -> true | _ -> false

let var_addr t name = match Hashtbl.find_opt t.vars name with Some r -> r.Addr.lo | None -> -1

let update_vars_and_check t =
  Hashtbl.iter
    (fun name (r : Addr.range) ->
      match Hashtbl.find_opt t.var_state name with
      | Some st when st.stored && st.persisted = None ->
          if Rangetree.find_first_overlap t.tree ~lo:r.Addr.lo ~hi:r.Addr.hi = None then st.persisted <- Some t.seq
      | _ -> ())
    t.vars;
  List.iter
    (fun (e : Pmdebugger.Order_config.entry) ->
      let gate = match e.Pmdebugger.Order_config.func with None -> true | Some f -> Hashtbl.mem t.funcs_called f in
      if
        e.Pmdebugger.Order_config.kind = Pmdebugger.Order_config.Intra
        && gate
        && var_persisted t e.Pmdebugger.Order_config.next
        && not (var_persisted t e.Pmdebugger.Order_config.first)
      then
        report_bug t Bug.No_order_guarantee
          ~addr:(var_addr t e.Pmdebugger.Order_config.next)
          ~detail:
            (Printf.sprintf "%s persisted before %s" e.Pmdebugger.Order_config.next e.Pmdebugger.Order_config.first)
          ())
    (Pmdebugger.Order_config.entries t.config)

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
  ignore (Rangetree.filter_in_place t.tree (fun _ p -> not p.flushed));
  if not (Pmdebugger.Order_config.is_empty t.config) then update_vars_and_check t;
  (* Failure points are spread geometrically over the execution so long
     runs get analysed end to end within the budget. *)
  t.fences_seen <- t.fences_seen + 1;
  if t.fences_seen >= t.next_fp_fence then begin
    t.next_fp_fence <- t.fences_seen + 1 + (t.fences_seen / 16);
    simulate_failure_point t
  end

let on_tx_log t ~obj_addr ~size ~tid =
  let ranges =
    match Hashtbl.find_opt t.logged tid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.logged tid r;
        r
  in
  let range = Addr.of_base_size obj_addr size in
  if List.exists (fun r -> Addr.overlaps r range) !ranges then
    report_bug t Bug.Redundant_logging ~addr:obj_addr ~size ~detail:"object logged more than once in one transaction" ()
  else ranges := range :: !ranges

let on_program_end t =
  (* The final durability sweep presumes the two-phase analysis covered
     the whole execution; once the failure-point budget is exhausted the
     suffix was never analysed and coverage is lost (§7.4: XFDetector
     "has to restrict the number of instrumented failure points to
     reduce its overhead, resulting in lower bug coverage"). *)
  if t.fences_seen <= t.max_failure_points then
    Rangetree.iter t.tree (fun r p ->
        let detail = if p.flushed then "flushed but never fenced (missing fence)" else "never flushed (missing CLF)" in
        report_bug t Bug.No_durability ~addr:r.Addr.lo ~size:(Addr.size r) ~detail ());
  if not (Pmdebugger.Order_config.is_empty t.config) then update_vars_and_check t

let on_event t ev =
  t.events <- t.events + 1;
  t.seq <- t.seq + 1;
  record t ev;
  match ev with
  | Event.Store { addr; size; tid = _ } -> on_store t ~addr ~size
  | Event.Clf { addr; size; tid = _; kind = _ } -> on_clf t ~addr ~size
  | Event.Fence _ -> on_fence t
  | Event.Register_pmem { base; size } ->
      t.track_all <- false;
      t.registered <- Addr.of_base_size base size :: t.registered
  | Event.Register_var { name; addr; size } ->
      Hashtbl.replace t.vars name (Addr.of_base_size addr size);
      if not (Hashtbl.mem t.var_state name) then Hashtbl.replace t.var_state name { stored = false; persisted = None }
  | Event.Call { func; tid = _ } -> Hashtbl.replace t.funcs_called func ()
  | Event.Tx_log { obj_addr; size; tid } -> on_tx_log t ~obj_addr ~size ~tid
  | Event.Epoch_end { tid } -> Hashtbl.remove t.logged tid
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
        bugs = List.rev_map (fun key -> Hashtbl.find t.bugs key) t.bug_keys;
        events_processed = t.events;
        stats = [ ("failure_points", float_of_int t.failure_points) ];
        failure = None;
      })
