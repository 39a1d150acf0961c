(* The obs library itself (json / metrics / spans) plus its integration
   with the instrumented pipeline layers. *)

module J = Obs.Json
module M = Obs.Metrics

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let sample_json =
  J.Obj
    [
      ("schema", J.Str "x/v1");
      ("quote\"back\\slash", J.Str "tab\there\nnewline");
      ("int", J.Int 42);
      ("neg", J.Int (-7));
      ("float", J.Float 0.25);
      ("whole_float", J.Float 3.0);
      ("tiny", J.Float 1e-7);
      ("yes", J.Bool true);
      ("nothing", J.Null);
      ("list", J.List [ J.Int 1; J.Str "two"; J.Obj [] ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match J.of_string (J.to_string ~indent sample_json) with
      | Error msg -> Alcotest.fail msg
      | Ok decoded ->
          Alcotest.(check bool) (Printf.sprintf "roundtrip indent=%b" indent) true (decoded = sample_json))
    [ true; false ]

let test_json_int_float_distinct () =
  (* The printer forces a "." into floats so Int/Float survives a
     round-trip — "pmdb stats --check" relies on it. *)
  match J.of_string (J.to_string (J.List [ J.Int 3; J.Float 3.0 ])) with
  | Ok (J.List [ J.Int 3; J.Float 3.0 ]) -> ()
  | Ok other -> Alcotest.failf "got %s" (J.to_string ~indent:false other)
  | Error msg -> Alcotest.fail msg

let test_json_errors () =
  List.iter
    (fun text ->
      match J.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_accessors () =
  Alcotest.(check (option int)) "member+to_int" (Some 42) (Option.bind (J.member "int" sample_json) J.to_int);
  Alcotest.(check (option int)) "missing" None (Option.bind (J.member "nope" sample_json) J.to_int);
  Alcotest.(check bool) "to_float on int" true (J.to_float (J.Int 2) = Some 2.0);
  Alcotest.(check (option string)) "to_str" (Some "x/v1") (Option.bind (J.member "schema" sample_json) J.to_str)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counters_and_gauges () =
  let t = M.create () in
  M.inc t "a_total";
  M.inc t ~by:4 "a_total";
  M.set t "g" 2.0;
  M.max_set t "peak" 1.0;
  M.max_set t "peak" 3.0;
  M.max_set t "peak" 2.0;
  let snap = M.snapshot t in
  Alcotest.(check int) "counter sums" 5 (M.counter_value snap "a_total");
  (match M.find snap "g" with
  | Some (M.V_gauge v) -> Alcotest.(check (float 0.0)) "gauge" 2.0 v
  | _ -> Alcotest.fail "gauge missing");
  match M.find snap "peak" with
  | Some (M.V_gauge v) -> Alcotest.(check (float 0.0)) "max_set keeps the peak" 3.0 v
  | _ -> Alcotest.fail "peak missing"

let test_label_merging () =
  let t = M.create () in
  M.inc t ~labels:[ ("b", "2"); ("a", "1") ] "x_total";
  M.inc t ~labels:[ ("a", "1"); ("b", "2") ] "x_total";
  M.inc t ~labels:[ ("a", "1") ] "x_total";
  let snap = M.snapshot t in
  Alcotest.(check int) "orders merge" 2 (M.counter_value snap ~labels:[ ("a", "1"); ("b", "2") ] "x_total");
  Alcotest.(check int) "query order-insensitive" 2
    (M.counter_value snap ~labels:[ ("b", "2"); ("a", "1") ] "x_total");
  Alcotest.(check int) "subset is a distinct series" 1 (M.counter_value snap ~labels:[ ("a", "1") ] "x_total")

let test_histogram_buckets () =
  let t = M.create () in
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* One observation per region: first bucket (inclusive upper bound),
     second, third, overflow. *)
  List.iter (fun v -> M.observe t ~bounds "h" v) [ 0.5; 1.0; 1.5; 4.0; 99.0 ];
  match M.find (M.snapshot t) "h" with
  | Some (M.V_hist v) ->
      Alcotest.(check (array (float 0.0))) "bounds kept" bounds v.M.h_bounds;
      Alcotest.(check (array int)) "bucket counts (<=1, <=2, <=4, overflow)" [| 2; 1; 1; 1 |] v.M.h_counts;
      Alcotest.(check int) "count" 5 v.M.h_count;
      Alcotest.(check (float 1e-9)) "sum" 106.0 v.M.h_sum;
      Alcotest.(check (float 1e-9)) "observed max tracked" 99.0 v.M.h_max;
      Alcotest.(check bool) "overflow quantile reaches the observed max" true (M.quantile v 1.0 = 99.0)
  | _ -> Alcotest.fail "histogram missing"

(* Pin p50/p99 on a known synthetic distribution. Interior buckets
   interpolate linearly; the overflow bucket used to report the last
   bound verbatim for every q (so a p99 past the bounds snapped to a
   bucket edge) — it now interpolates toward the observed max. *)
let test_quantile_interpolation_pinned () =
  (* Uniform 1..40 over bounds 10/20/30/40: quantiles are exact. *)
  let h = M.hist_create ~bounds:[| 10.0; 20.0; 30.0; 40.0 |] () in
  for i = 1 to 40 do
    M.hist_observe h (float_of_int i)
  done;
  let v = M.hist_view h in
  Alcotest.(check (float 1e-9)) "p50 pinned" 20.0 (M.quantile v 0.5);
  Alcotest.(check (float 1e-9)) "p99 pinned" 39.6 (M.quantile v 0.99);
  (* All mass past the last bound: the pre-fix code returned 1.0 for
     every q here. *)
  let o = M.hist_create ~bounds:[| 1.0 |] () in
  List.iter (M.hist_observe o) [ 2.0; 4.0; 6.0; 8.0 ];
  let ov = M.hist_view o in
  Alcotest.(check (float 1e-9)) "overflow p50 interpolates" 4.5 (M.quantile ov 0.5);
  Alcotest.(check (float 1e-9)) "overflow p100 is the max" 8.0 (M.quantile ov 1.0);
  Alcotest.(check bool) "overflow p99 off the bucket edge" true (M.quantile ov 0.99 > 1.0);
  (* The max survives the JSON round-trip, so --diff'd reports keep
     interpolating identically. *)
  let t = M.create () in
  M.observe t ~bounds:[| 1.0 |] "h_seconds" 5.0;
  match M.snapshot_of_json (M.to_json t) with
  | Ok snap -> (
      match M.find snap "h_seconds" with
      | Some (M.V_hist r) -> Alcotest.(check (float 1e-9)) "max round-trips" 5.0 r.M.h_max
      | _ -> Alcotest.fail "histogram lost in round-trip")
  | Error msg -> Alcotest.fail msg

let test_quantiles () =
  let h = M.hist_create ~bounds:[| 1.0; 2.0; 3.0; 4.0 |] () in
  for v = 1 to 4 do
    M.hist_observe h (float_of_int v -. 0.5)
  done;
  let v = M.hist_view h in
  Alcotest.(check bool) "p50 in the middle" true (M.quantile v 0.5 >= 1.0 && M.quantile v 0.5 <= 3.0);
  Alcotest.(check bool) "monotone in q" true (M.quantile v 0.95 >= M.quantile v 0.5);
  Alcotest.(check (float 0.0)) "empty histogram" 0.0 (M.quantile (M.hist_view (M.hist_create ())) 0.5);
  (* The view is a copy: observing afterwards must not change it. *)
  M.hist_observe h 100.0;
  Alcotest.(check int) "view frozen" 4 v.M.h_count

(* Every observation lies in 2.0–2.1, inside the 2.0–10.0 bucket: a
   quantile interpolated up to the bucket's bound would read up to 10.0
   when nothing took longer than 2.1. *)
let test_quantile_within_observed_max () =
  let h = M.hist_create ~bounds:[| 1.0; 2.0; 10.0 |] () in
  for i = 1 to 100 do
    M.hist_observe h (2.0 +. (0.1 *. float_of_int i /. 100.0))
  done;
  let v = M.hist_view h in
  let p99 = M.quantile v 0.99 in
  Alcotest.(check bool) (Printf.sprintf "p99 %.3f <= 2.1" p99) true (p99 <= 2.1);
  Alcotest.(check bool) (Printf.sprintf "p99 %.3f >= 2.0" p99) true (p99 >= 2.0);
  Alcotest.(check bool) "p100 is the max" true (M.quantile v 1.0 <= v.M.h_max)

let test_snapshot_determinism () =
  let mk order =
    let t = M.create () in
    List.iter
      (fun (name, labels) -> M.inc t ~labels name)
      (if order then
         [ ("b_total", []); ("a_total", [ ("k", "2") ]); ("a_total", [ ("k", "1") ]) ]
       else [ ("a_total", [ ("k", "1") ]); ("a_total", [ ("k", "2") ]); ("b_total", []) ]);
    M.observe t "h_seconds" 0.5;
    t
  in
  let j1 = J.to_string (M.to_json (mk true)) and j2 = J.to_string (M.to_json (mk false)) in
  Alcotest.(check string) "identical JSON regardless of insertion order" j1 j2;
  let names = List.map (fun s -> s.M.name) (M.snapshot (mk true)) in
  Alcotest.(check (list string)) "sorted by name" [ "a_total"; "a_total"; "b_total"; "h_seconds" ] names

let test_metrics_json_valid () =
  let t = M.create () in
  M.inc t ~labels:[ ("class", "store") ] "engine_events_total";
  M.set t "space_array_live_peak" 12.0;
  M.observe t "engine_dispatch_seconds" 1e-6;
  let json = M.to_json t in
  (match M.validate_json json with
  | Ok n -> Alcotest.(check int) "three series" 3 n
  | Error msg -> Alcotest.fail msg);
  (* And the validator rejects a broken document. *)
  match M.validate_json (J.Obj [ ("schema", J.Str "pmdb-metrics/v1"); ("metrics", J.Int 3) ]) with
  | Ok _ -> Alcotest.fail "accepted malformed metrics"
  | Error _ -> ()

let test_disabled_noop () =
  let t = M.disabled in
  M.inc t "a_total";
  M.set t "g" 1.0;
  M.max_set t "g" 9.0;
  M.observe t "h" 0.5;
  Alcotest.(check int) "nothing recorded" 0 (List.length (M.snapshot t));
  Alcotest.(check bool) "shared disabled registry is off" false (M.is_on t)

let test_kind_mismatch () =
  let t = M.create () in
  M.inc t "x";
  match M.set t "x" 1.0 with
  | () -> Alcotest.fail "counter used as gauge must raise"
  | exception Invalid_argument _ -> ()

(* The ISSUE's regression guard: a disabled registry must cost one
   branch per record call, so instrumented-but-off code stays at the
   Nulgrind baseline. Generous absolute bound to stay CI-safe: 1M
   disabled incs in well under a second (a non-short-circuiting
   implementation — hashing, allocation — blows past this). *)
let test_disabled_overhead () =
  let t = M.disabled in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 1_000_000 do
    M.inc t ~labels:[ ("class", "store") ] "engine_events_total"
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "1M disabled incs in %.3fs < 0.5s" dt) true (dt < 0.5)

(* Engine dispatch with a disabled registry vs a metrics-free baseline:
   the instrumented hot path may not add measurable slowdown. Ratio kept
   lenient (3x) — CI boxes are noisy; catching an accidental
   always-on path (10-100x) is the point. *)
let test_nulgrind_overhead_guard () =
  let run engine =
    Pmtrace.Engine.register_pmem engine ~base:0 ~size:65536;
    for i = 0 to 4999 do
      Pmtrace.Engine.store_i64 engine ~addr:(i * 8 mod 4096) 7L;
      if i mod 8 = 7 then Pmtrace.Engine.persist engine ~addr:(i * 8 mod 4096) ~size:8
    done;
    Pmtrace.Engine.program_end engine
  in
  let replay trace =
    let engine = Pmtrace.Engine.create () in
    Pmtrace.Engine.attach engine (Pmtrace.Sink.noop "nulgrind");
    Array.iter (Pmtrace.Engine.emit engine) trace;
    ignore (Pmtrace.Engine.finish_all engine)
  in
  let trace = Pmtrace.Recorder.record run in
  ignore (Sys.opaque_identity (replay trace));
  let t = Harness.Timing.median_of ~repeats:5 (fun () -> replay trace) in
  Alcotest.(check bool) "baseline measurable" true (t >= 0.0);
  let t2 = Harness.Timing.median_of ~repeats:5 (fun () -> replay trace) in
  Alcotest.(check bool)
    (Printf.sprintf "disabled-metrics dispatch stable (%.4fs vs %.4fs)" t t2)
    true
    (t2 < 0.002 || t2 < 3.0 *. (t +. 0.001))

(* ------------------------------------------------------------------ *)
(* Merge: the domain-safe aggregation laws                             *)
(* ------------------------------------------------------------------ *)

(* Registries are built from op lists with kind-disjoint name pools
   (c*_total counters, g* gauges, one default-bounds histogram), so any
   two generated snapshots are merge-compatible. *)
type mop = Op_inc of int * int * int | Op_gauge of int * float | Op_obs of float

let mop_gen =
  QCheck.Gen.(
    oneof
      [
        map3 (fun n l by -> Op_inc (n, l, by)) (int_bound 2) (int_bound 2) (int_bound 5);
        map2 (fun n v -> Op_gauge (n, v)) (int_bound 1) (float_bound_inclusive 10.0);
        map (fun v -> Op_obs v) (float_bound_inclusive 2.0);
      ])

let apply_mops ops =
  let t = M.create () in
  List.iter
    (function
      | Op_inc (n, l, by) -> M.inc t ~labels:[ ("l", string_of_int l) ] ~by (Printf.sprintf "c%d_total" n)
      | Op_gauge (n, v) -> M.max_set t (Printf.sprintf "g%d" n) v
      | Op_obs v -> M.observe t "h_seconds" v)
    ops;
  M.snapshot t

let mops_arb = QCheck.make ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops)) QCheck.Gen.(list_size (int_bound 20) mop_gen)

let render_snap snap = J.to_string (M.snapshot_to_json snap)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:200 (QCheck.pair mops_arb mops_arb)
    (fun (xs, ys) ->
      let a = apply_mops xs and b = apply_mops ys in
      render_snap (M.merge [ a; b ]) = render_snap (M.merge [ b; a ]))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:200 (QCheck.triple mops_arb mops_arb mops_arb)
    (fun (xs, ys, zs) ->
      let a = apply_mops xs and b = apply_mops ys and c = apply_mops zs in
      let left = M.merge [ M.merge [ a; b ]; c ] and right = M.merge [ a; M.merge [ b; c ] ] in
      render_snap left = render_snap right && render_snap left = render_snap (M.merge [ a; b; c ]))

let test_merge_basics () =
  let a = M.create () and b = M.create () in
  M.inc a ~by:2 "x_total";
  M.inc b ~by:3 "x_total";
  M.set a "g" 1.0;
  M.set b "g" 5.0;
  M.observe a "h" 0.5;
  M.observe b "h" 1.5;
  let m = M.merge [ M.snapshot a; M.snapshot b ] in
  Alcotest.(check int) "counters sum" 5 (M.counter_value m "x_total");
  (match M.find m "g" with
  | Some (M.V_gauge v) -> Alcotest.(check (float 0.0)) "gauges keep the max" 5.0 v
  | _ -> Alcotest.fail "gauge missing");
  (match M.find m "h" with
  | Some (M.V_hist v) ->
      Alcotest.(check int) "hist counts add" 2 v.M.h_count;
      Alcotest.(check (float 1e-9)) "hist sums add" 2.0 v.M.h_sum
  | _ -> Alcotest.fail "hist missing");
  (* Only-in-one series survive untouched. *)
  M.inc a ~labels:[ ("k", "v") ] "solo_total";
  let m = M.merge [ M.snapshot a; M.snapshot b ] in
  Alcotest.(check int) "lone series kept" 1 (M.counter_value m ~labels:[ ("k", "v") ] "solo_total")

let test_merge_kind_clash () =
  let a = M.create () and b = M.create () in
  M.inc a "x";
  M.set b "x" 1.0;
  (match M.merge [ M.snapshot a; M.snapshot b ] with
  | _ -> Alcotest.fail "kind clash must raise"
  | exception Invalid_argument _ -> ());
  let c = M.create () and d = M.create () in
  M.observe c ~bounds:[| 1.0 |] "h" 0.5;
  M.observe d ~bounds:[| 2.0 |] "h" 0.5;
  (match M.merge [ M.snapshot c; M.snapshot d ] with
  | _ -> Alcotest.fail "bounds clash must raise"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module F = Obs.Flightrec

let test_flightrec_wraparound () =
  let r = F.create ~capacity:4 () in
  for i = 0 to 9 do
    F.record r ~ts:(float_of_int i) ~cat:"dispatch" ~name:"store" ~a:i ~b:(i * 2)
  done;
  Alcotest.(check int) "recorded counts everything" 10 (F.recorded r);
  let w = F.window r in
  Alcotest.(check int) "window capped at capacity" 4 (List.length w);
  Alcotest.(check (list int)) "oldest-first, global seq survives wrap" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.F.e_seq) w);
  Alcotest.(check (list int)) "payload follows" [ 12; 14; 16; 18 ] (List.map (fun e -> e.F.e_b) w);
  Alcotest.(check (list int)) "last-N trims from the old end" [ 8; 9 ]
    (List.map (fun e -> e.F.e_seq) (F.window ~last:2 r));
  F.clear r;
  Alcotest.(check int) "clear empties the window" 0 (List.length (F.window r));
  match F.create ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 must raise"
  | exception Invalid_argument _ -> ()

let test_flightrec_disabled () =
  Alcotest.(check bool) "shared ring is off" false (F.is_on F.disabled);
  F.record F.disabled ~ts:1.0 ~cat:"x" ~name:"y" ~a:1 ~b:2;
  Alcotest.(check int) "disabled records nothing" 0 (F.recorded F.disabled)

let test_flightrec_dump_json () =
  let r = F.create ~capacity:8 () in
  List.iteri
    (fun i (cat, name, b) -> F.record r ~ts:(0.1 *. float_of_int i) ~cat ~name ~a:7 ~b)
    [ ("session", "open", 0); ("dispatch", "store", 0); ("quarantine", "detector", 0); ("session", "detector-error", 1) ];
  let doc = F.dump_to_json ~meta:[ ("reason", J.Str "test"); ("session", J.Str "s7") ] [ ("dispatch", r) ] in
  (match F.validate_json doc with
  | Ok n -> Alcotest.(check int) "all entries dumped" 4 n
  | Error msg -> Alcotest.fail msg);
  (match J.member "schema" doc with
  | Some (J.Str s) -> Alcotest.(check string) "schema id" F.schema_id s
  | _ -> Alcotest.fail "schema missing");
  (match Option.bind (J.member "meta" doc) (J.member "session") with
  | Some (J.Str "s7") -> ()
  | _ -> Alcotest.fail "meta lost");
  (* The window cap applies per ring. *)
  match F.validate_json (F.dump_to_json ~last:2 [ ("dispatch", r) ]) with
  | Ok n -> Alcotest.(check int) "last-N window" 2 n
  | Error msg -> Alcotest.fail msg

let test_flightrec_perfetto () =
  let r = F.create ~capacity:32 () in
  (* Two session lifecycles (one terminal, one left open) + noise. *)
  List.iter
    (fun (ts, cat, name, a, b) -> F.record r ~ts ~cat ~name ~a ~b)
    [
      (0.0, "session", "open", 1, 0);
      (0.1, "backpressure", "stall", 1, 17);
      (0.2, "session", "drain", 1, 0);
      (0.3, "session", "ok", 1, 1);
      (0.4, "session", "open", 2, 0);
    ];
  let doc = Obs.Tracecat.merge [ ("dispatch", r) ] in
  match Obs.Perfetto.validate_json doc with
  | Ok n -> Alcotest.(check bool) (Printf.sprintf "%d trace events" n) true (n > 0)
  | Error msg -> Alcotest.fail msg

(* Mirror of test_disabled_overhead for the recorder: the always-on
   hook may cost one branch when off. *)
let test_flightrec_disabled_overhead () =
  let r = F.disabled in
  let t0 = Unix.gettimeofday () in
  for i = 1 to 1_000_000 do
    F.record r ~ts:0.0 ~cat:"dispatch" ~name:"store" ~a:i ~b:0
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "1M disabled records in %.3fs < 0.5s" dt) true (dt < 0.5)

(* ------------------------------------------------------------------ *)
(* Heatmap: capped per-line accounting                                 *)
(* ------------------------------------------------------------------ *)

module H = Obs.Heatmap

let test_heatmap_counting_and_dirty () =
  let h = H.create ~cap:8 () in
  H.on_store h ~seq:10 ~line:1;
  H.on_store h ~seq:12 ~line:1;
  (* Already dirty: the second store extends the same interval. *)
  H.on_clf h ~seq:15 ~line:1;
  H.on_bug h ~line:1;
  H.set_name h ~line:1 "head";
  H.set_name h ~line:1 "late";
  (* Line 2 stays dirty: charged up to the latest seq seen (20). *)
  H.on_store h ~seq:18 ~line:2;
  H.on_store h ~seq:20 ~line:1;
  let s = H.snapshot h in
  Alcotest.(check int) "two lines tracked" 2 s.H.s_tracked;
  let row line = List.find (fun r -> r.H.r_line = line) s.H.s_rows in
  let r1 = row 1 and r2 = row 2 in
  Alcotest.(check int) "stores" 3 r1.H.r_stores;
  Alcotest.(check int) "clfs" 1 r1.H.r_clfs;
  Alcotest.(check int) "bugs" 1 r1.H.r_bugs;
  Alcotest.(check (option string)) "first name wins" (Some "head") r1.H.r_name;
  Alcotest.(check bool) "closed interval charged" true (r1.H.r_dirty >= 5);
  Alcotest.(check int) "open interval charged to latest seq" 2 r2.H.r_dirty;
  (* Hottest first: line 1 carries more traffic. *)
  Alcotest.(check int) "rank by traffic" 1 (List.hd s.H.s_rows).H.r_line

let test_heatmap_cap_and_dropped () =
  let h = H.create ~cap:2 () in
  H.on_store h ~seq:1 ~line:1;
  H.on_store h ~seq:2 ~line:2;
  H.on_store h ~seq:3 ~line:3;
  H.on_clf h ~seq:4 ~line:4;
  H.on_store h ~seq:5 ~line:1;
  let s = H.snapshot h in
  Alcotest.(check int) "cap respected" 2 s.H.s_tracked;
  Alcotest.(check int) "overflow counted" 2 s.H.s_dropped;
  Alcotest.(check int) "tracked lines keep counting" 2 (List.find (fun r -> r.H.r_line = 1) s.H.s_rows).H.r_stores

let test_heatmap_merge_and_json_roundtrip () =
  let mk f = let h = H.create ~cap:8 () in f h; H.snapshot h in
  let a = mk (fun h -> H.on_store h ~seq:1 ~line:7; H.set_name h ~line:7 "log") in
  let b = mk (fun h -> H.on_store h ~seq:2 ~line:7; H.on_bug h ~line:7; H.on_clf h ~seq:3 ~line:9) in
  let m = H.merge [ a; b ] in
  Alcotest.(check int) "union of lines" 2 (List.length m.H.s_rows);
  let r7 = List.find (fun r -> r.H.r_line = 7) m.H.s_rows in
  Alcotest.(check int) "counters sum" 2 r7.H.r_stores;
  Alcotest.(check int) "bugs sum" 1 r7.H.r_bugs;
  Alcotest.(check (option string)) "name survives the merge" (Some "log") r7.H.r_name;
  match H.snapshot_of_json (H.snapshot_to_json m) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check bool) "round-trips" true (back = m);
      Alcotest.(check string) "schema id" "pmdb-heatmap/v1" H.schema_id

let test_heatmap_disabled_noop () =
  let h = H.disabled in
  H.on_store h ~seq:1 ~line:1;
  H.on_clf h ~seq:2 ~line:1;
  H.on_bug h ~line:1;
  H.set_name h ~line:1 "x";
  Alcotest.(check bool) "off" false (H.is_on h);
  Alcotest.(check int) "nothing tracked" 0 (H.snapshot h).H.s_tracked

(* ------------------------------------------------------------------ *)
(* Tracecat: the merged causal trace                                   *)
(* ------------------------------------------------------------------ *)

(* Two rings and a phase span share one origin (the earliest stamp
   across all of them): each ring's entries land on its own track at
   their offset from that origin, and the span on a final "phases"
   track. *)
let test_tracecat_shared_timebase () =
  let dispatch = F.create ~capacity:8 () in
  let worker = F.create ~capacity:8 () in
  F.record dispatch ~ts:2.0 ~cat:"dispatch" ~name:"store" ~a:1 ~b:0;
  F.record worker ~ts:1.0 ~cat:"dispatch" ~name:"fence" ~a:2 ~b:0;
  let spans = [ { Obs.Span.sp_name = "replay"; sp_attrs = [ ("k", "v") ]; sp_start_s = 1.5; sp_dur_s = 3.0 } ] in
  let doc =
    Obs.Tracecat.merge ~spans ~metadata:[ ("reason", Obs.Json.Str "test") ] [ ("dispatch", dispatch); ("worker-0", worker) ]
  in
  (match Obs.Perfetto.validate_json doc with
  | Ok n -> Alcotest.(check bool) (Printf.sprintf "%d events validate" n) true (n > 0)
  | Error e -> Alcotest.fail e);
  let evs = match Obs.Json.member "traceEvents" doc with Some (Obs.Json.List l) -> l | _ -> [] in
  let int_field k e = match Obs.Json.member k e with Some (Obs.Json.Int v) -> v | _ -> -1 in
  let placed ph name =
    List.filter_map
      (fun e ->
        if Obs.Json.member "ph" e = Some (Obs.Json.Str ph) && Obs.Json.member "name" e = Some (Obs.Json.Str name)
        then Some (int_field "tid" e, int_field "ts" e)
        else None)
      evs
  in
  Alcotest.(check (list (pair int int))) "store on track 0, 1 s after the origin" [ (0, 1_000_000) ] (placed "i" "store");
  Alcotest.(check (list (pair int int))) "fence on track 1, at the origin" [ (1, 0) ] (placed "i" "fence");
  Alcotest.(check (list (pair int int))) "span on the phases track, 0.5 s in" [ (2, 500_000) ] (placed "X" "replay");
  Alcotest.(check bool) "metadata carried" true
    (match Obs.Json.member "metadata" doc with
    | Some m -> Obs.Json.member "reason" m = Some (Obs.Json.Str "test")
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

module P = Obs.Prometheus

let test_prometheus_render () =
  let t = M.create () in
  M.inc t ~by:3 ~labels:[ ("status", "ok") ] "serve_sessions_closed_total";
  M.set t "serve_sessions_active" 2.0;
  M.observe t ~bounds:[| 0.5; 1.0 |] "ingest_seconds" 0.25;
  M.observe t ~bounds:[| 0.5; 1.0 |] "ingest_seconds" 2.0;
  let text = P.render (M.snapshot t) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (let nl = String.length needle and tl = String.length text in
         let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
         go 0))
    [
      "# TYPE serve_sessions_closed_total counter";
      "serve_sessions_closed_total{status=\"ok\"} 3";
      "# TYPE serve_sessions_active gauge";
      "# TYPE ingest_seconds histogram";
      "ingest_seconds_bucket{le=\"0.5\"} 1";
      "ingest_seconds_bucket{le=\"+Inf\"} 2";
      "ingest_seconds_sum 2.25";
      "ingest_seconds_count 2";
    ];
  (match P.validate text with
  | Ok n -> Alcotest.(check bool) (Printf.sprintf "%d samples" n) true (n >= 6)
  | Error msg -> Alcotest.fail msg);
  (* Deterministic: the same snapshot renders to identical text. *)
  Alcotest.(check string) "render is deterministic" text (P.render (M.snapshot t))

let test_prometheus_escaping () =
  let t = M.create () in
  M.inc t ~labels:[ ("path", "a\\b\"c\nd") ] "weird_total";
  let text = P.render (M.snapshot t) in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "backslash, quote and newline escaped" true
    (contains "path=\"a\\\\b\\\"c\\nd\"");
  match P.validate text with
  | Ok n -> Alcotest.(check int) "escapes parse back" 1 n
  | Error msg -> Alcotest.fail msg

let test_prometheus_validate_rejects () =
  List.iter
    (fun (what, text) ->
      match P.validate text with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error _ -> ())
    [
      ("undeclared sample", "foo_total 3\n");
      ("duplicate TYPE", "# TYPE x counter\n# TYPE x counter\nx 1\n");
      ("bad value", "# TYPE x counter\nx banana\n");
      ("unterminated labels", "# TYPE x counter\nx{a=\"1\" 3\n");
      ("bad TYPE kind", "# TYPE x thing\nx 1\n");
    ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_spans () =
  let t = Obs.Span.create () in
  let r = Obs.Span.record t ~attrs:[ ("k", "v") ] "outer" (fun () -> 41 + 1) in
  Alcotest.(check int) "value through" 42 r;
  (match Obs.Span.record t "boom" (fun () -> failwith "kaput") with
  | () -> Alcotest.fail "must re-raise"
  | exception Failure _ -> ());
  let spans = Obs.Span.finished t in
  Alcotest.(check (list string)) "both recorded, in order" [ "outer"; "boom" ]
    (List.map (fun s -> s.Obs.Span.sp_name) spans);
  let boom = List.nth spans 1 in
  Alcotest.(check bool) "error attr" true (List.mem_assoc "error" boom.Obs.Span.sp_attrs);
  List.iter (fun s -> Alcotest.(check bool) "duration >= 0" true (s.Obs.Span.sp_dur_s >= 0.0)) spans;
  (match Obs.Span.to_json t with
  | Obs.Json.List [ _; _ ] -> ()
  | other -> Alcotest.failf "span json: %s" (J.to_string ~indent:false other));
  Obs.Span.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (Obs.Span.finished t));
  let off = Obs.Span.disabled in
  Alcotest.(check int) "disabled runs the thunk" 7 (Obs.Span.record off "x" (fun () -> 7));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Obs.Span.finished off))

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)
(* ------------------------------------------------------------------ *)

let test_engine_telemetry () =
  let metrics = M.create () in
  let engine = Pmtrace.Engine.create ~metrics () in
  Pmtrace.Engine.attach engine (Pmtrace.Sink.noop "nulgrind");
  Pmtrace.Engine.register_pmem engine ~base:0 ~size:4096;
  Pmtrace.Engine.store_i64 engine ~addr:0 1L;
  Pmtrace.Engine.store_i64 engine ~addr:8 2L;
  Pmtrace.Engine.clwb engine ~addr:0;
  Pmtrace.Engine.sfence engine;
  Pmtrace.Engine.program_end engine;
  ignore (Pmtrace.Engine.finish_all engine);
  let snap = M.snapshot metrics in
  Alcotest.(check int) "store events" 2 (M.counter_value snap ~labels:[ ("class", "store") ] "engine_events_total");
  Alcotest.(check int) "clf events" 1 (M.counter_value snap ~labels:[ ("class", "clf") ] "engine_events_total");
  Alcotest.(check int) "fence events" 1 (M.counter_value snap ~labels:[ ("class", "fence") ] "engine_events_total");
  match M.find snap ~labels:[ ("class", "store") ] "engine_dispatch_seconds" with
  | Some (M.V_hist v) -> Alcotest.(check int) "dispatch latency per store" 2 v.M.h_count
  | _ -> Alcotest.fail "engine_dispatch_seconds missing"

let test_engine_quarantine_metric () =
  let metrics = M.create () in
  let engine = Pmtrace.Engine.create ~metrics () in
  Pmtrace.Engine.attach engine
    (Pmtrace.Sink.make ~name:"bad"
       ~on_event:(fun _ -> failwith "kaput")
       ~finish:(fun () -> Pmtrace.Bug.empty_report "bad"));
  Pmtrace.Engine.register_pmem engine ~base:0 ~size:4096;
  Pmtrace.Engine.store_i64 engine ~addr:0 1L;
  Pmtrace.Engine.program_end engine;
  Alcotest.(check (list string)) "sink quarantined" [ "bad" ] (List.map fst (Pmtrace.Engine.quarantined engine));
  Alcotest.(check int) "quarantine counted" 1
    (M.counter_value (M.snapshot metrics) ~labels:[ ("sink", "bad") ] "engine_sinks_quarantined_total")

let test_detector_telemetry () =
  let metrics = M.create () in
  let engine = Pmtrace.Engine.create ~metrics () in
  let d = Pmdebugger.Detector.create ~metrics () in
  Pmtrace.Engine.attach engine (Pmdebugger.Detector.sink d);
  Pmtrace.Engine.register_pmem engine ~base:0 ~size:4096;
  (* An unflushed store at program end: no-durability-guarantee fires. *)
  Pmtrace.Engine.store_i64 engine ~addr:0 1L;
  Pmtrace.Engine.program_end engine;
  ignore (Pmtrace.Engine.finish_all engine);
  let snap = M.snapshot metrics in
  Alcotest.(check bool) "no-durability-guarantee fired" true
    (M.counter_value snap ~labels:[ ("rule", "no-durability-guarantee") ] "detector_rule_fires_total" >= 1);
  (* Every rule is pre-declared so run reports always carry the full
     per-rule table, zeros included. *)
  List.iter
    (fun kind ->
      match M.find snap ~labels:[ ("rule", Pmtrace.Bug.kind_name kind) ] "detector_rule_fires_total" with
      | Some (M.V_counter _) -> ()
      | _ -> Alcotest.failf "rule %s not pre-declared" (Pmtrace.Bug.kind_name kind))
    Pmtrace.Bug.all_kinds;
  Alcotest.(check bool) "array hits counted" true (M.counter_value snap "space_array_hits_total" >= 1)

let test_suppression_metric () =
  let metrics = M.create () in
  let engine = Pmtrace.Engine.create () in
  let d = Pmdebugger.Detector.create ~max_bugs_per_kind:2 ~metrics () in
  Pmtrace.Engine.attach engine (Pmdebugger.Detector.sink d);
  Pmtrace.Engine.register_pmem engine ~base:0 ~size:4096;
  (* Five back-to-back overwrites of never-flushed lines. *)
  for i = 0 to 4 do
    Pmtrace.Engine.store_i64 engine ~addr:(i * 64) 1L;
    Pmtrace.Engine.store_i64 engine ~addr:(i * 64) 2L
  done;
  Pmtrace.Engine.program_end engine;
  let report = List.hd (Pmtrace.Engine.finish_all engine) in
  let snap = M.snapshot metrics in
  let fired = M.counter_value snap ~labels:[ ("rule", "multiple-overwrites") ] "detector_rule_fires_total" in
  let dropped = M.counter_value snap ~labels:[ ("rule", "multiple-overwrites") ] "detector_bugs_suppressed_total" in
  Alcotest.(check int) "cap respected" 2 fired;
  Alcotest.(check int) "suppressions counted" 3 dropped;
  Alcotest.(check int) "report agrees with the cap" 2
    (Pmtrace.Bug.count_kind report Pmtrace.Bug.Multiple_overwrites)

let test_space_spill_metric () =
  let metrics = M.create () in
  (* Tiny array so stores overflow into the AVL tree. *)
  let space = Pmdebugger.Space.create ~array_capacity:4 ~metrics () in
  for i = 0 to 15 do
    ignore (Pmdebugger.Space.process_store space ~check_overlap:true ~addr:(i * 128) ~size:8 ~epoch:false ~seq:i ~tid:0 ~strand:0)
  done;
  let snap = M.snapshot metrics in
  Alcotest.(check int) "array absorbed its capacity" 4 (M.counter_value snap "space_array_hits_total");
  Alcotest.(check int) "rest spilled to the tree" 12 (M.counter_value snap "space_tree_spills_total")

let test_trace_io_telemetry () =
  let metrics = M.create () in
  let trace, _ = Pmtrace.Trace_io.of_string_lenient ~metrics "store 0 128 8\nBOGUS LINE\nfence 0\n" in
  Alcotest.(check int) "trace survives" 3 (Array.length trace);
  let snap = M.snapshot metrics in
  Alcotest.(check int) "parsed lines counted" 2 (M.counter_value snap "trace_io_lines_parsed_total");
  Alcotest.(check int) "skipped lines counted" 1 (M.counter_value snap "trace_io_lines_skipped_total")

let test_crash_explore_telemetry () =
  let metrics = M.create () in
  let steps =
    Faultinject.Replay.capture (fun e ->
        Pmtrace.Engine.register_pmem e ~base:0 ~size:4096;
        Pmtrace.Engine.store_i64 e ~addr:0 1L;
        Pmtrace.Engine.persist e ~addr:0 ~size:8;
        Pmtrace.Engine.store_i64 e ~addr:8 2L;
        Pmtrace.Engine.persist e ~addr:8 ~size:8;
        Pmtrace.Engine.program_end e)
  in
  let module CE = Faultinject.Crash_explore in
  let r = (CE.run ~metrics ~recovery:(fun _ -> true) (CE.make_plan steps) CE.exhaustive).CE.result in
  let snap = M.snapshot metrics in
  Alcotest.(check int) "prefixes counted" r.Faultinject.Crash_explore.boundaries_checked
    (M.counter_value snap "crash_explore_prefixes_replayed_total");
  Alcotest.(check int) "images counted" r.Faultinject.Crash_explore.images_checked
    (M.counter_value snap "crash_explore_images_tested_total");
  Alcotest.(check bool) "something was explored" true (r.Faultinject.Crash_explore.boundaries_checked > 0)

let suite =
  [
    Alcotest.test_case "json-roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json-int-float" `Quick test_json_int_float_distinct;
    Alcotest.test_case "json-errors" `Quick test_json_errors;
    Alcotest.test_case "json-accessors" `Quick test_json_accessors;
    Alcotest.test_case "counters-gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "label-merging" `Quick test_label_merging;
    Alcotest.test_case "histogram-buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "quantiles" `Quick test_quantiles;
    Alcotest.test_case "quantile-interpolation-pinned" `Quick test_quantile_interpolation_pinned;
    Alcotest.test_case "snapshot-determinism" `Quick test_snapshot_determinism;
    Alcotest.test_case "metrics-json-valid" `Quick test_metrics_json_valid;
    Alcotest.test_case "disabled-noop" `Quick test_disabled_noop;
    Alcotest.test_case "kind-mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "disabled-overhead" `Quick test_disabled_overhead;
    Alcotest.test_case "nulgrind-overhead-guard" `Quick test_nulgrind_overhead_guard;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    Alcotest.test_case "merge-basics" `Quick test_merge_basics;
    Alcotest.test_case "merge-kind-clash" `Quick test_merge_kind_clash;
    Alcotest.test_case "flightrec-wraparound" `Quick test_flightrec_wraparound;
    Alcotest.test_case "flightrec-disabled" `Quick test_flightrec_disabled;
    Alcotest.test_case "flightrec-dump-json" `Quick test_flightrec_dump_json;
    Alcotest.test_case "flightrec-perfetto" `Quick test_flightrec_perfetto;
    Alcotest.test_case "flightrec-disabled-overhead" `Quick test_flightrec_disabled_overhead;
    Alcotest.test_case "heatmap-counting-dirty" `Quick test_heatmap_counting_and_dirty;
    Alcotest.test_case "heatmap-cap-dropped" `Quick test_heatmap_cap_and_dropped;
    Alcotest.test_case "heatmap-merge-json" `Quick test_heatmap_merge_and_json_roundtrip;
    Alcotest.test_case "heatmap-disabled" `Quick test_heatmap_disabled_noop;
    Alcotest.test_case "tracecat-shared-timebase" `Quick test_tracecat_shared_timebase;
    Alcotest.test_case "prometheus-render" `Quick test_prometheus_render;
    Alcotest.test_case "prometheus-escaping" `Quick test_prometheus_escaping;
    Alcotest.test_case "prometheus-validate-rejects" `Quick test_prometheus_validate_rejects;
    Alcotest.test_case "spans" `Quick test_spans;
    Alcotest.test_case "engine-telemetry" `Quick test_engine_telemetry;
    Alcotest.test_case "engine-quarantine-metric" `Quick test_engine_quarantine_metric;
    Alcotest.test_case "detector-telemetry" `Quick test_detector_telemetry;
    Alcotest.test_case "suppression-metric" `Quick test_suppression_metric;
    Alcotest.test_case "space-spill-metric" `Quick test_space_spill_metric;
    Alcotest.test_case "trace-io-telemetry" `Quick test_trace_io_telemetry;
    Alcotest.test_case "crash-explore-telemetry" `Quick test_crash_explore_telemetry;
    Alcotest.test_case "quantile-within-observed-max" `Quick test_quantile_within_observed_max;
  ]
