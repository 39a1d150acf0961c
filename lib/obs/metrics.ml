type labels = (string * string) list

let latency_bounds =
  [|
    1e-7; 2.5e-7; 5e-7; 1e-6; 2.5e-6; 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3;
    5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.0;
  |]

type hist = {
  bounds : float array;
  counts : int array;
  mutable sum : float;
  mutable count : int;
  mutable max_v : float;
}

let hist_create ?(bounds = latency_bounds) () =
  { bounds; counts = Array.make (Array.length bounds + 1) 0; sum = 0.0; count = 0; max_v = 0.0 }

let hist_observe h v =
  (* First bucket whose upper bound covers v; past the last bound is the
     overflow bucket. *)
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  if v > h.max_v then h.max_v <- v

type hist_view = {
  h_bounds : float array;
  h_counts : int array;
  h_sum : float;
  h_count : int;
  h_max : float;
}

let hist_view h =
  {
    h_bounds = Array.copy h.bounds;
    h_counts = Array.copy h.counts;
    h_sum = h.sum;
    h_count = h.count;
    h_max = h.max_v;
  }

let quantile v q =
  if v.h_count = 0 then 0.0
  else begin
    let target = q *. float_of_int v.h_count in
    let nbounds = Array.length v.h_bounds in
    (* Interpolation edge for the overflow bucket: the observed max when
       it is known (> last bound), else the last bound — a quantile
       landing past every bound no longer snaps to the bound verbatim. *)
    let overflow_hi =
      if nbounds = 0 then v.h_max else Float.max v.h_max v.h_bounds.(nbounds - 1)
    in
    let rec go i cum =
      if i >= Array.length v.h_counts then (if nbounds = 0 then overflow_hi else v.h_bounds.(nbounds - 1))
      else
        let cum' = cum +. float_of_int v.h_counts.(i) in
        if cum' >= target && v.h_counts.(i) > 0 then begin
          let lo = if i = 0 then 0.0 else v.h_bounds.(i - 1) in
          (* No quantile past the largest observation: a finite
             bucket's upper edge is clamped to [h_max] too. *)
          let hi = if i >= nbounds then overflow_hi else Float.max lo (Float.min v.h_bounds.(i) v.h_max) in
          let frac = (target -. cum) /. float_of_int v.h_counts.(i) in
          lo +. ((hi -. lo) *. Float.min 1.0 (Float.max 0.0 frac))
        end
        else go (i + 1) cum'
    in
    go 0 0.0
  end

type value = Counter of int ref | Gauge of float ref | Hist of hist

type t = { on : bool; series : (string * labels, value) Hashtbl.t }

let create () = { on = true; series = Hashtbl.create 64 }

let disabled = { on = false; series = Hashtbl.create 1 }

let is_on t = t.on

let clear t = Hashtbl.reset t.series

let norm_labels = function
  | [] -> []
  | [ _ ] as l -> l
  | l -> List.sort (fun (a, _) (b, _) -> compare a b) l

let kind_mismatch name =
  invalid_arg (Printf.sprintf "Obs.Metrics: series %S already exists with another type" name)

let inc t ?(labels = []) ?(by = 1) name =
  if not t.on then ()
  else begin
    let key = (name, norm_labels labels) in
    match Hashtbl.find_opt t.series key with
    | Some (Counter c) -> c := !c + by
    | Some _ -> kind_mismatch name
    | None -> Hashtbl.replace t.series key (Counter (ref by))
  end

let set t ?(labels = []) name v =
  if not t.on then ()
  else begin
    let key = (name, norm_labels labels) in
    match Hashtbl.find_opt t.series key with
    | Some (Gauge g) -> g := v
    | Some _ -> kind_mismatch name
    | None -> Hashtbl.replace t.series key (Gauge (ref v))
  end

let max_set t ?(labels = []) name v =
  if not t.on then ()
  else begin
    let key = (name, norm_labels labels) in
    match Hashtbl.find_opt t.series key with
    | Some (Gauge g) -> if v > !g then g := v
    | Some _ -> kind_mismatch name
    | None -> Hashtbl.replace t.series key (Gauge (ref v))
  end

let observe t ?(labels = []) ?bounds name v =
  if not t.on then ()
  else begin
    let key = (name, norm_labels labels) in
    match Hashtbl.find_opt t.series key with
    | Some (Hist h) -> hist_observe h v
    | Some _ -> kind_mismatch name
    | None ->
        let h = hist_create ?bounds () in
        hist_observe h v;
        Hashtbl.replace t.series key (Hist h)
  end

(* ---------------------------------------------------------------- *)
(* Snapshots                                                         *)
(* ---------------------------------------------------------------- *)

type value_view = V_counter of int | V_gauge of float | V_hist of hist_view

type sample = { name : string; labels : labels; value : value_view }

type snapshot = sample list

let snapshot t =
  Hashtbl.fold
    (fun (name, labels) value acc ->
      let value =
        match value with
        | Counter c -> V_counter !c
        | Gauge g -> V_gauge !g
        | Hist h -> V_hist (hist_view h)
      in
      { name; labels; value } :: acc)
    t.series []
  |> List.sort (fun a b ->
         match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)

(* Deterministic multi-registry merge: counters sum, gauges keep the
   max (every gauge in the tree is a peak/high-water value), histograms
   add bucket-wise. Mixing kinds under one (name, labels) key — or
   histograms with different bucket bounds — means two registries
   disagree about what the series is, which is a caller bug, not data:
   raise instead of guessing. Sum/max/bucket-add are all commutative
   and associative, so the merged snapshot is independent of snapshot
   order (the QCheck suite pins this). *)
let merge snaps =
  let acc : (string * labels, value_view) Hashtbl.t = Hashtbl.create 64 in
  let clash name what =
    invalid_arg (Printf.sprintf "Obs.Metrics.merge: series %S: %s" name what)
  in
  let combine name a b =
    match (a, b) with
    | V_counter x, V_counter y -> V_counter (x + y)
    | V_gauge x, V_gauge y -> V_gauge (Float.max x y)
    | V_hist x, V_hist y ->
        if x.h_bounds <> y.h_bounds then clash name "histogram bucket bounds differ"
        else
          V_hist
            {
              h_bounds = x.h_bounds;
              h_counts = Array.init (Array.length x.h_counts) (fun i -> x.h_counts.(i) + y.h_counts.(i));
              h_sum = x.h_sum +. y.h_sum;
              h_count = x.h_count + y.h_count;
              h_max = Float.max x.h_max y.h_max;
            }
    | _ -> clash name "kind differs between snapshots"
  in
  List.iter
    (fun snap ->
      List.iter
        (fun s ->
          let key = (s.name, s.labels) in
          match Hashtbl.find_opt acc key with
          | None -> Hashtbl.replace acc key s.value
          | Some prev -> Hashtbl.replace acc key (combine s.name prev s.value))
        snap)
    snaps;
  Hashtbl.fold (fun (name, labels) value l -> { name; labels; value } :: l) acc []
  |> List.sort (fun a b ->
         match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)

let find snap ?(labels = []) name =
  let labels = norm_labels labels in
  List.find_map (fun s -> if s.name = name && s.labels = labels then Some s.value else None) snap

let counter_value snap ?labels name =
  match find snap ?labels name with Some (V_counter n) -> n | _ -> 0

let labels_str = function
  | [] -> ""
  | l -> String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)

let rows_header = [ "metric"; "labels"; "type"; "value" ]

let to_rows snap =
  List.map
    (fun s ->
      let kind, value =
        match s.value with
        | V_counter n -> ("counter", string_of_int n)
        | V_gauge g -> ("gauge", Printf.sprintf "%g" g)
        | V_hist v ->
            ( "histogram",
              Printf.sprintf "count=%d sum=%.6g p50=%.3g p95=%.3g" v.h_count v.h_sum
                (quantile v 0.5) (quantile v 0.95) )
      in
      [ s.name; labels_str s.labels; kind; value ])
    snap

let hist_json v =
  let buckets =
    List.concat
      [
        List.mapi
          (fun i le -> Json.Obj [ ("le", Json.Float le); ("count", Json.Int v.h_counts.(i)) ])
          (Array.to_list v.h_bounds);
        [ Json.Obj [ ("le", Json.Null); ("count", Json.Int v.h_counts.(Array.length v.h_bounds)) ] ];
      ]
  in
  [
    ("count", Json.Int v.h_count);
    ("sum", Json.Float v.h_sum);
    ("max", Json.Float v.h_max);
    ("p50", Json.Float (quantile v 0.5));
    ("p95", Json.Float (quantile v 0.95));
    ("buckets", Json.List buckets);
  ]

let sample_json s =
  let base =
    [
      ("name", Json.Str s.name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels));
    ]
  in
  match s.value with
  | V_counter n -> Json.Obj (base @ [ ("type", Json.Str "counter"); ("value", Json.Int n) ])
  | V_gauge g -> Json.Obj (base @ [ ("type", Json.Str "gauge"); ("value", Json.Float g) ])
  | V_hist v -> Json.Obj (base @ (("type", Json.Str "histogram") :: hist_json v))

let schema_id = "pmdb-metrics/v1"

let snapshot_to_json snap =
  Json.Obj [ ("schema", Json.Str schema_id); ("metrics", Json.List (List.map sample_json snap)) ]

let to_json t = snapshot_to_json (snapshot t)

(* Labels of a JSON series entry, normalized like norm_labels so that
   duplicate detection and parsing agree with the in-memory registry. *)
let labels_of_entry entry =
  match Json.member "labels" entry with
  | Some (Json.Obj kvs) ->
      Some
        (norm_labels
           (List.filter_map (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None) kvs))
  | None -> Some []
  | Some _ -> None

let validate_json json =
  let ( let* ) = Result.bind in
  let require what = function Some v -> Ok v | None -> Error ("metrics JSON: missing " ^ what) in
  let* schema = require "schema" (Json.member "schema" json) in
  let* () =
    match Json.to_str schema with
    | Some s when s = schema_id -> Ok ()
    | Some s -> Error (Printf.sprintf "metrics JSON: unknown schema %S" s)
    | None -> Error "metrics JSON: schema is not a string"
  in
  let* metrics = require "metrics" (Json.member "metrics" json) in
  let* entries =
    match metrics with Json.List l -> Ok l | _ -> Error "metrics JSON: metrics is not a list"
  in
  let seen : (string * labels, unit) Hashtbl.t = Hashtbl.create 64 in
  let check_entry i entry =
    let ctx what = Error (Printf.sprintf "metrics JSON: series %d: %s" i what) in
    match (Json.member "name" entry, Json.member "type" entry) with
    | Some (Json.Str name), Some (Json.Str kind) -> (
        let* () =
          (* A snapshot holds one series per (name, labels): duplicates
             mean a corrupt or hand-edited file, and a diff over them
             would silently pick one of the two values. *)
          match labels_of_entry entry with
          | None -> ctx (name ^ ": labels is not an object of strings")
          | Some labels ->
              let key = (name, labels) in
              if Hashtbl.mem seen key then
                ctx
                  (Printf.sprintf "duplicate series %S%s" name
                     (match labels with [] -> "" | l -> "{" ^ labels_str l ^ "}"))
              else begin
                Hashtbl.replace seen key ();
                Ok ()
              end
        in
        match kind with
        | "counter" -> (
            match Option.bind (Json.member "value" entry) Json.to_int with
            | Some _ -> Ok ()
            | None -> ctx (name ^ ": counter without integer value"))
        | "gauge" -> (
            match Option.bind (Json.member "value" entry) Json.to_float with
            | Some _ -> Ok ()
            | None -> ctx (name ^ ": gauge without numeric value"))
        | "histogram" -> (
            match (Json.member "count" entry, Json.member "buckets" entry) with
            | Some (Json.Int _), Some (Json.List _) -> Ok ()
            | _ -> ctx (name ^ ": histogram without count/buckets"))
        | other -> ctx (Printf.sprintf "unknown type %S" other))
    | _ -> ctx "missing name/type"
  in
  let rec check i = function
    | [] -> Ok (List.length entries)
    | e :: rest -> ( match check_entry i e with Ok () -> check (i + 1) rest | Error _ as err -> err)
  in
  check 0 entries

(* ---------------------------------------------------------------- *)
(* Snapshot parsing (the inverse of snapshot_to_json, for diffing)   *)
(* ---------------------------------------------------------------- *)

let hist_view_of_json entry =
  let buckets = match Json.member "buckets" entry with Some (Json.List l) -> l | _ -> [] in
  let bounds = ref [] in
  let counts = ref [] in
  let ok =
    List.for_all
      (fun b ->
        match (Json.member "le" b, Option.bind (Json.member "count" b) Json.to_int) with
        | Some Json.Null, Some c ->
            counts := c :: !counts;
            true
        | Some le, Some c -> (
            match Json.to_float le with
            | Some f ->
                bounds := f :: !bounds;
                counts := c :: !counts;
                true
            | None -> false)
        | _ -> false)
      buckets
  in
  let count = match Option.bind (Json.member "count" entry) Json.to_int with Some c -> c | None -> 0 in
  let sum = match Option.bind (Json.member "sum" entry) Json.to_float with Some s -> s | None -> 0.0 in
  let h_bounds = Array.of_list (List.rev !bounds) in
  (* Files written before "max" existed fall back to the last bound —
     exactly the old overflow-quantile edge, so old reports diff
     cleanly against themselves. *)
  let max_v =
    match Option.bind (Json.member "max" entry) Json.to_float with
    | Some m -> m
    | None -> if Array.length h_bounds = 0 then 0.0 else h_bounds.(Array.length h_bounds - 1)
  in
  if not ok then None
  else
    Some
      {
        h_bounds;
        h_counts = Array.of_list (List.rev !counts);
        h_sum = sum;
        h_count = count;
        h_max = max_v;
      }

let snapshot_of_json json =
  let ( let* ) = Result.bind in
  let* _n = validate_json json in
  let entries = match Json.member "metrics" json with Some (Json.List l) -> l | _ -> [] in
  let parse_entry i entry =
    let err what = Error (Printf.sprintf "metrics JSON: series %d: %s" i what) in
    let name = match Json.member "name" entry with Some (Json.Str s) -> s | _ -> "" in
    let labels = match labels_of_entry entry with Some l -> l | None -> [] in
    match Json.member "type" entry with
    | Some (Json.Str "counter") -> (
        match Option.bind (Json.member "value" entry) Json.to_int with
        | Some v -> Ok { name; labels; value = V_counter v }
        | None -> err "bad counter")
    | Some (Json.Str "gauge") -> (
        match Option.bind (Json.member "value" entry) Json.to_float with
        | Some v -> Ok { name; labels; value = V_gauge v }
        | None -> err "bad gauge")
    | Some (Json.Str "histogram") -> (
        match hist_view_of_json entry with
        | Some v -> Ok { name; labels; value = V_hist v }
        | None -> err "bad histogram buckets")
    | _ -> err "unknown type"
  in
  let rec go i acc = function
    | [] ->
        Ok
          (List.sort
             (fun a b -> match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)
             (List.rev acc))
    | e :: rest -> (
        match parse_entry i e with Ok s -> go (i + 1) (s :: acc) rest | Error _ as err -> err)
  in
  go 0 [] entries
