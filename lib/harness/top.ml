(* The `pmdb top` dashboard renderer: one merged metrics snapshot in,
   one multi-line string out. Pure — the CLI owns the polling, the
   refresh loop and the terminal; keeping the renderer side-effect-free
   makes every layout decision unit-testable against synthetic
   snapshots.

   Rates are derived from counter deltas against the previous frame
   ([prev = None] on the first frame renders absolute values only).
   Histogram quantiles come straight from the snapshot's bucket counts
   via {!Obs.Metrics.quantile}. Series the daemon does not record
   (e.g. session latency before the first session closes) render as
   "-" rather than being invented. *)

let counter = Obs.Metrics.counter_value

let gauge snap ?labels name =
  match Obs.Metrics.find snap ?labels name with Some (Obs.Metrics.V_gauge v) -> v | _ -> 0.0

(* All samples of one metric, as (labels, view) pairs in snapshot
   (= sorted) order. *)
let series snap name =
  List.filter_map
    (fun (s : Obs.Metrics.sample) -> if s.Obs.Metrics.name = name then Some (s.Obs.Metrics.labels, s.Obs.Metrics.value) else None)
    snap

let fmt_seconds s =
  if s <= 0.0 then "-"
  else if s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let fmt_quantiles = function
  | None -> "p50 -     p99 -"
  | Some h when h.Obs.Metrics.h_count = 0 -> "p50 -     p99 -"
  | Some h ->
      Printf.sprintf "p50 %-6s p99 %-6s"
        (fmt_seconds (Obs.Metrics.quantile h 0.5))
        (fmt_seconds (Obs.Metrics.quantile h 0.99))

(* Counter delta vs. the previous frame, as a per-second rate. *)
let rate ~prev ~cur ~dt ?labels name =
  match prev with
  | Some p when dt > 0.0 -> Some (float_of_int (counter cur ?labels name - counter p ?labels name) /. dt)
  | _ -> None

let fmt_rate = function None -> "" | Some r -> Printf.sprintf "  (+%.0f/s)" (Float.max 0.0 r)

(* The daemon's backpressure ladder, reconstructed from this frame's
   deltas: "stalling" = a session's fd was paused (its bytes in flight
   reached the budget, or its worker's queue was full), "EVICTING" = an
   eviction landed. *)
let rung ~prev ~cur =
  let delta name = match prev with Some p -> counter cur name - counter p name | None -> counter cur name in
  if delta "serve_evictions_total" > 0 then "EVICTING"
  else if delta "serve_backpressure_stalls_total" > 0 then "stalling"
  else "idle"

let render ~prev ~cur ~dt =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let events = counter cur "serve_events_total" in
  let active = gauge cur "serve_sessions_active" in
  line "pmdb top — %d session(s) active, %d event(s) ingested%s" (int_of_float active) events
    (fmt_rate (rate ~prev ~cur ~dt "serve_events_total"));
  line "  sessions: opened %d  evictions %d  timeouts %d  quarantines %d  backpressure: %s (stalls %d)"
    (counter cur "serve_sessions_opened_total")
    (counter cur "serve_evictions_total") (counter cur "serve_timeouts_total")
    (counter cur ~labels:[ ("reason", "trace") ] "serve_quarantines_total"
    + counter cur ~labels:[ ("reason", "detector") ] "serve_quarantines_total")
    (rung ~prev ~cur)
    (counter cur "serve_backpressure_stalls_total");
  line "  latency: e2e %s"
    (fmt_quantiles
       (match Obs.Metrics.find cur "serve_session_e2e_seconds" with Some (Obs.Metrics.V_hist h) -> Some h | _ -> None));
  (* Worker balance: share of all worker-dispatched events per domain. *)
  (match series cur "serve_worker_events_total" with
  | [] -> ()
  | workers ->
      let total =
        List.fold_left (fun acc (_, v) -> match v with Obs.Metrics.V_counter n -> acc + n | _ -> acc) 0 workers
      in
      let cell (labels, v) =
        let d = match List.assoc_opt "domain" labels with Some d -> d | None -> "?" in
        let n = match v with Obs.Metrics.V_counter n -> n | _ -> 0 in
        let share = if total > 0 then 100.0 *. float_of_int n /. float_of_int total else 0.0 in
        Printf.sprintf "w%s %.0f%% (%d)" d share n
      in
      line "  workers: %s" (String.concat "  " (List.map cell workers)));
  (* One row per live session (gauges are zeroed when a session
     closes, so only in-flight sessions appear). *)
  let sessions =
    List.filter_map
      (fun (labels, v) ->
        match (List.assoc_opt "session" labels, v) with
        | Some name, Obs.Metrics.V_gauge depth when depth > 0.0 || gauge cur ~labels "serve_events_per_sec" > 0.0 ->
            Some (name, depth, gauge cur ~labels "serve_events_per_sec", gauge cur ~labels "serve_live_bytes")
        | _ -> None)
      (series cur "serve_queue_depth")
  in
  (match sessions with
  | [] -> ()
  | sessions ->
      line "  %-24s %10s %12s %12s" "session" "queue" "events/s" "bytes held";
      List.iter
        (fun (name, depth, rate, bytes) -> line "  %-24s %10.0f %12.0f %12.0f" name depth rate bytes)
        sessions);
  Buffer.contents b
