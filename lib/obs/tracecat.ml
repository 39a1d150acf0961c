(* Daemon-wide causal trace: fold per-domain flight-recorder rings and
   coarse Span phases into ONE Perfetto document on a shared time base.
   Ordering between domains is invisible when each ring normalizes its
   own clock; here every ring shares one tmin, one track per ring. *)

(* One ring's entries on track [tid]; [us] maps an entry timestamp to
   trace microseconds on the shared time base. cat="session" entries
   are grouped by session id (the [a] argument) and drawn as lifecycle
   slices: consecutive transitions pair into complete slices named
   after the phase being left; the final entry is an instant when
   terminal ([b] = 1, named after the exit status) and an open
   begin_slice when the session was still in flight at dump time.
   Everything else renders as instants carrying a/b as args. *)
let render_entries p ~tid ~us entries =
  let open Flightrec in
  let sessions = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.e_cat = "session" then
        Hashtbl.replace sessions e.e_a (e :: Option.value ~default:[] (Hashtbl.find_opt sessions e.e_a))
      else
        Perfetto.instant ~cat:e.e_cat ~tid p ~name:e.e_name ~ts:(us e.e_ts)
          ~args:[ ("a", Json.Int e.e_a); ("b", Json.Int e.e_b) ])
    entries;
  (* Deterministic session order: by id. *)
  Hashtbl.fold (fun id es acc -> (id, List.rev es) :: acc) sessions []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (id, es) ->
         let args = [ ("session", Json.Int id) ] in
         let rec slices = function
           | [] -> ()
           | [ final ] ->
               if final.e_b = 1 then
                 Perfetto.instant ~cat:"session" ~tid p ~name:final.e_name ~ts:(us final.e_ts) ~args
               else
                 Perfetto.begin_slice ~cat:"session" ~tid p ~name:final.e_name ~ts:(us final.e_ts)
                   ~args
           | a :: (b :: _ as rest) ->
               Perfetto.complete ~cat:"session" ~tid p ~name:a.e_name ~ts:(us a.e_ts)
                 ~dur:(us b.e_ts - us a.e_ts) ~args;
               slices rest
         in
         slices es)

let merge ?last ?(spans = []) ?(metadata = []) rings =
  let windows = List.map (fun (label, r) -> (label, Flightrec.window ?last r)) rings in
  let tmin =
    let over_entries acc =
      List.fold_left
        (fun acc (_, es) -> List.fold_left (fun acc e -> Float.min acc e.Flightrec.e_ts) acc es)
        acc windows
    in
    let over_spans acc =
      List.fold_left (fun acc s -> Float.min acc s.Span.sp_start_s) acc spans
    in
    let m = over_spans (over_entries infinity) in
    if m = infinity then 0.0 else m
  in
  let us ts = max 0 (int_of_float ((ts -. tmin) *. 1e6)) in
  let p = Perfetto.create () in
  Perfetto.process_name p "pmdb causal trace";
  List.iteri
    (fun tid (label, entries) ->
      Perfetto.thread_name ~tid p label;
      render_entries p ~tid ~us entries)
    windows;
  (* Coarse phases (run/finish/replay spans) on their own track, so the
     fine-grained domain activity reads against the overall timeline. *)
  (match spans with
  | [] -> ()
  | spans ->
      let tid = List.length windows in
      Perfetto.thread_name ~tid p "phases";
      Span.render ~tid ~t0:tmin p spans);
  Perfetto.to_json ~metadata p
