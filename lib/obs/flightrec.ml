(* Always-on flight recorder: a fixed-capacity ring of recent
   structured events. The recording path allocates nothing — parallel
   arrays instead of an entry record (a record mixing float and int
   fields would box the float on every write), caller-supplied
   timestamps (no clock call behind the caller's back), and required
   labelled int arguments (optional ints would box in Some). A disabled
   ring costs exactly one branch per record call, mirroring
   Obs.Metrics, so the engine hot path carries the hook
   unconditionally. Like a Metrics registry, a ring is single-domain:
   multi-domain components give each domain its own ring and dump them
   side by side. *)

type t = {
  on : bool;
  cap : int;
  mutable next : int; (* total records ever; the live slot is [next mod cap] *)
  cats : string array;
  names : string array;
  az : int array;
  bz : int array;
  ts : float array; (* separate unboxed array: no float boxing on write *)
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Obs.Flightrec.create: capacity must be >= 1";
  {
    on = true;
    cap = capacity;
    next = 0;
    cats = Array.make capacity "";
    names = Array.make capacity "";
    az = Array.make capacity 0;
    bz = Array.make capacity 0;
    ts = Array.make capacity 0.0;
  }

let disabled =
  {
    on = false;
    cap = 1;
    next = 0;
    cats = [| "" |];
    names = [| "" |];
    az = [| 0 |];
    bz = [| 0 |];
    ts = [| 0.0 |];
  }

let is_on t = t.on

let capacity t = t.cap

let recorded t = t.next

let clear t = t.next <- 0

let record t ~ts ~cat ~name ~a ~b =
  if not t.on then ()
  else begin
    let i = t.next mod t.cap in
    t.cats.(i) <- cat;
    t.names.(i) <- name;
    t.az.(i) <- a;
    t.bz.(i) <- b;
    t.ts.(i) <- ts;
    t.next <- t.next + 1
  end

(* ---------------------------------------------------------------- *)
(* Reading the window                                                *)
(* ---------------------------------------------------------------- *)

type entry = {
  e_seq : int; (* global record index, 0-based, survives wrap-around *)
  e_ts : float;
  e_cat : string;
  e_name : string;
  e_a : int;
  e_b : int;
}

let window ?last t =
  let live = min t.next t.cap in
  let n = match last with Some k -> min (max 0 k) live | None -> live in
  let first = t.next - n in
  List.init n (fun i ->
      let seq = first + i in
      let slot = seq mod t.cap in
      {
        e_seq = seq;
        e_ts = t.ts.(slot);
        e_cat = t.cats.(slot);
        e_name = t.names.(slot);
        e_a = t.az.(slot);
        e_b = t.bz.(slot);
      })

(* ---------------------------------------------------------------- *)
(* Dumps                                                             *)
(* ---------------------------------------------------------------- *)

let schema_id = "pmdb-flightrec/v1"

let entry_json e =
  Json.Obj
    [
      ("seq", Json.Int e.e_seq);
      ("ts", Json.Float e.e_ts);
      ("cat", Json.Str e.e_cat);
      ("name", Json.Str e.e_name);
      ("a", Json.Int e.e_a);
      ("b", Json.Int e.e_b);
    ]

let dump_to_json ?last ?(meta = []) rings =
  let ring_json (label, t) =
    Json.Obj
      [
        ("ring", Json.Str label);
        ("capacity", Json.Int t.cap);
        ("recorded", Json.Int t.next);
        ("entries", Json.List (List.map entry_json (window ?last t)));
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("meta", Json.Obj meta);
      ("rings", Json.List (List.map ring_json rings));
    ]

let validate_json json =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" json with
    | Some (Json.Str s) when s = schema_id -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "flightrec JSON: unknown schema %S" s)
    | _ -> Error "flightrec JSON: missing schema"
  in
  let* rings =
    match Json.member "rings" json with
    | Some (Json.List l) -> Ok l
    | _ -> Error "flightrec JSON: missing rings list"
  in
  let check_entry ring i e =
    let ctx what = Error (Printf.sprintf "flightrec JSON: ring %S entry %d: %s" ring i what) in
    let int_member k = Option.bind (Json.member k e) Json.to_int in
    match (Json.member "cat" e, Json.member "name" e) with
    | Some (Json.Str _), Some (Json.Str _) -> (
        match (int_member "seq", Option.bind (Json.member "ts" e) Json.to_float) with
        | Some seq, Some _ when seq >= 0 -> (
            match (int_member "a", int_member "b") with
            | Some _, Some _ -> Ok ()
            | _ -> ctx "missing integer a/b")
        | Some _, Some _ -> ctx "negative seq"
        | _ -> ctx "missing seq/ts")
    | _ -> ctx "missing cat/name"
  in
  let check_ring r =
    match (Json.member "ring" r, Json.member "entries" r) with
    | Some (Json.Str label), Some (Json.List entries) ->
        let* () =
          match
            (Option.bind (Json.member "capacity" r) Json.to_int,
             Option.bind (Json.member "recorded" r) Json.to_int)
          with
          | Some c, Some n when c >= 1 && n >= 0 -> Ok ()
          | _ -> Error (Printf.sprintf "flightrec JSON: ring %S: bad capacity/recorded" label)
        in
        let rec go i = function
          | [] -> Ok (List.length entries)
          | e :: rest -> (
              match check_entry label i e with Ok () -> go (i + 1) rest | Error _ as err -> err)
        in
        go 0 entries
    | _ -> Error "flightrec JSON: ring without ring/entries"
  in
  let rec go total = function
    | [] -> Ok total
    | r :: rest -> (
        match check_ring r with Ok n -> go (total + n) rest | Error _ as err -> err)
  in
  go 0 rings
