open Pmtrace

type t = {
  pm : Pmem.State.t;
  max_failure_points : int;
  images_per_point : int;
  mutable failure_points : int;
  mutable states : int;
  bugs : (int, Bug.t) Hashtbl.t; (* keyed by failure point *)
  mutable bug_order : int list;
  mutable events : int;
  mutable fences : int;
  mutable next_fp : int;
}

let create ?(max_failure_points = 64) ?(images_per_point = 16) ~pm () =
  {
    pm;
    max_failure_points;
    images_per_point;
    failure_points = 0;
    states = 0;
    bugs = Hashtbl.create 16;
    bug_order = [];
    events = 0;
    fences = 0;
    next_fp = 1;
  }

let check_point t =
  if t.failure_points < t.max_failure_points then begin
    t.failure_points <- t.failure_points + 1;
    let bad, checked = Pmem.State.check_crash_images t.pm ~max_images:t.images_per_point ~recovery:Pmfs.fsck in
    t.states <- t.states + checked;
    if bad > 0 && not (Hashtbl.mem t.bugs t.failure_points) then begin
      Hashtbl.replace t.bugs t.failure_points
        (Bug.make ~seq:t.events
           ~detail:(Printf.sprintf "failure point %d: %d/%d crash state(s) fail fsck" t.failure_points bad checked)
           Bug.Cross_failure_semantic);
      t.bug_order <- t.failure_points :: t.bug_order
    end
  end

let on_event t ev =
  t.events <- t.events + 1;
  match ev with
  | Event.Fence _ ->
      (* Geometric spacing so long runs are covered end to end. *)
      t.fences <- t.fences + 1;
      if t.fences >= t.next_fp then begin
        t.next_fp <- t.fences + 1 + (t.fences / 8);
        check_point t
      end
  | Event.Program_end -> check_point t
  | _ -> ()

let states_checked t = t.states

let sink t =
  Sink.make ~name:"yat"
    ~on_event:(fun ev -> on_event t ev)
    ~finish:(fun () ->
      {
        Bug.detector = "yat";
        bugs = List.rev_map (fun k -> Hashtbl.find t.bugs k) t.bug_order;
        events_processed = t.events;
        stats =
          [ ("failure_points", float_of_int t.failure_points); ("crash_states", float_of_int t.states) ];
        failure = None;
      })
