open Pmtrace

let protocol = "pmdb-serve/1"

let schema = "pmdb-serve/v1"

type hello =
  | Session of { name : string; lenient : bool }
  | Stats
  | Heatmap
  | Stop

let name_ok name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '-' || c = '.')
       name

let hello_line = function
  | Session { name; lenient } -> Printf.sprintf "%s session %s %s" protocol name (if lenient then "lenient" else "strict")
  | Stats -> protocol ^ " stats"
  | Heatmap -> protocol ^ " heatmap"
  | Stop -> protocol ^ " stop"

let parse_hello line =
  match String.split_on_char ' ' (String.trim line) with
  | proto :: _ when proto <> protocol -> Error (Printf.sprintf "expected hello %S, got %S" protocol line)
  | [ _; "stats" ] -> Ok Stats
  | [ _; "heatmap" ] -> Ok Heatmap
  | [ _; "stop" ] -> Ok Stop
  | [ _; "session"; name ] | [ _; "session"; name; "strict" ] ->
      if name_ok name then Ok (Session { name; lenient = false })
      else Error (Printf.sprintf "bad session name %S" name)
  | [ _; "session"; name; "lenient" ] ->
      if name_ok name then Ok (Session { name; lenient = true })
      else Error (Printf.sprintf "bad session name %S" name)
  | _ -> Error (Printf.sprintf "bad hello %S" line)

(* {2 Bug/report JSON round-trip}

   The encoding is total: every field of {!Bug.t} — including the
   causal chain — survives, so a daemon client can render the returned
   report byte-identically to an offline replay of the same trace. *)

let kind_of_name s = List.find_opt (fun k -> Bug.kind_name k = s) Bug.all_kinds

let cause_to_json (c : Bug.cause) =
  Obs.Json.Obj
    [
      ("seq", Obs.Json.Int c.Bug.c_seq);
      ("class", Obs.Json.Str c.Bug.c_class);
      ("addr", Obs.Json.Int c.Bug.c_addr);
      ("size", Obs.Json.Int c.Bug.c_size);
      ("note", Obs.Json.Str c.Bug.c_note);
    ]

let get_int key json = match Obs.Json.member key json with Some v -> Obs.Json.to_int v | None -> None

let get_str key json = match Obs.Json.member key json with Some v -> Obs.Json.to_str v | None -> None

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let require what = function Some v -> Ok v | None -> Error (Printf.sprintf "result JSON: missing %s" what)

let cause_of_json json =
  let* seq = require "cause seq" (get_int "seq" json) in
  let* cls = require "cause class" (get_str "class" json) in
  let* addr = require "cause addr" (get_int "addr" json) in
  let* size = require "cause size" (get_int "size" json) in
  let* note = require "cause note" (get_str "note" json) in
  Ok (Bug.cause ~addr ~size ~note ~cls seq)

let bug_to_json (b : Bug.t) =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str (Bug.kind_name b.Bug.kind));
      ("addr", Obs.Json.Int b.Bug.addr);
      ("size", Obs.Json.Int b.Bug.size);
      ("seq", Obs.Json.Int b.Bug.seq);
      ("detail", Obs.Json.Str b.Bug.detail);
      ("chain", Obs.Json.List (List.map cause_to_json b.Bug.chain));
    ]

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let bug_of_json json =
  let* kind_name = require "bug kind" (get_str "kind" json) in
  let* kind = require (Printf.sprintf "known bug kind (got %S)" kind_name) (kind_of_name kind_name) in
  let* addr = require "bug addr" (get_int "addr" json) in
  let* size = require "bug size" (get_int "size" json) in
  let* seq = require "bug seq" (get_int "seq" json) in
  let* detail = require "bug detail" (get_str "detail" json) in
  let* chain_json =
    match Obs.Json.member "chain" json with
    | Some (Obs.Json.List l) -> Ok l
    | _ -> Error "result JSON: missing bug chain"
  in
  let* chain = map_result cause_of_json chain_json in
  Ok (Bug.make ~addr ~size ~seq ~detail ~chain kind)

let report_to_json (r : Bug.report) =
  Obs.Json.Obj
    [
      ("detector", Obs.Json.Str r.Bug.detector);
      ("events_processed", Obs.Json.Int r.Bug.events_processed);
      ("failure", match r.Bug.failure with None -> Obs.Json.Null | Some msg -> Obs.Json.Str msg);
      ("bugs", Obs.Json.List (List.map bug_to_json r.Bug.bugs));
      ("stats", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) r.Bug.stats));
    ]

let report_of_json json =
  let* detector = require "report detector" (get_str "detector" json) in
  let* events_processed = require "report events_processed" (get_int "events_processed" json) in
  let failure = match Obs.Json.member "failure" json with Some (Obs.Json.Str msg) -> Some msg | _ -> None in
  let* bugs_json =
    match Obs.Json.member "bugs" json with Some (Obs.Json.List l) -> Ok l | _ -> Error "result JSON: missing bugs"
  in
  let* bugs = map_result bug_of_json bugs_json in
  let stats =
    match Obs.Json.member "stats" json with
    | Some (Obs.Json.Obj fields) ->
        List.filter_map (fun (k, v) -> match Obs.Json.to_float v with Some f -> Some (k, f) | None -> None) fields
    | _ -> []
  in
  Ok { Bug.detector; events_processed; failure; bugs; stats }

(* {2 Result frames} *)

type result_frame = {
  status : Status.t;
  events : int;
  skipped : int;
  skipped_lines : (int * string) list;
  synthesized_end : bool;
  error : string option;
  report : Bug.report option;
}

(* The error text a frame lists at most. A session that skipped more
   (its messages may fill its whole budget) lists the first lines only,
   so the reply stays small enough to write in one go. *)
let max_skipped_bytes = 65_536

let result_frame ?(events = 0) ?(skipped_lines = []) ?(synthesized_end = false) ?error ?report status =
  let rec listed acc bytes = function
    | ((_, msg) as l) :: rest when bytes + String.length msg <= max_skipped_bytes ->
        listed (l :: acc) (bytes + String.length msg) rest
    | _ -> List.rev acc
  in
  let skipped = List.length skipped_lines in
  { status; events; skipped; skipped_lines = listed [] 0 skipped_lines; synthesized_end; error; report }

let skipped_line_to_json (line, error) = Obs.Json.Obj [ ("line", Obs.Json.Int line); ("error", Obs.Json.Str error) ]

let skipped_line_of_json json =
  let* line = require "skipped line number" (get_int "line" json) in
  let* error = require "skipped line error" (get_str "error" json) in
  Ok (line, error)

let result_to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema);
      ("status", Obs.Json.Str (Status.name r.status));
      ("exit_code", Obs.Json.Int (Status.exit_code r.status));
      ("events", Obs.Json.Int r.events);
      ("skipped", Obs.Json.Int r.skipped);
      ("skipped_lines", Obs.Json.List (List.map skipped_line_to_json r.skipped_lines));
      ("synthesized_end", Obs.Json.Bool r.synthesized_end);
      ("error", match r.error with None -> Obs.Json.Null | Some msg -> Obs.Json.Str msg);
      ("report", match r.report with None -> Obs.Json.Null | Some rep -> report_to_json rep);
    ]

let result_of_json json =
  let* () =
    match Obs.Json.member "schema" json with
    | Some (Obs.Json.Str s) when s = schema -> Ok ()
    | Some (Obs.Json.Str s) -> Error (Printf.sprintf "result JSON: unexpected schema %S" s)
    | _ -> Error "result JSON: missing schema"
  in
  let* status_name = require "status" (get_str "status" json) in
  let* status = require (Printf.sprintf "known status (got %S)" status_name) (Status.of_name status_name) in
  let* events = require "events" (get_int "events" json) in
  let* skipped_lines =
    match Obs.Json.member "skipped_lines" json with
    | Some (Obs.Json.List l) -> map_result skipped_line_of_json l
    | _ -> Ok []
  in
  let skipped = match get_int "skipped" json with Some n -> n | None -> List.length skipped_lines in
  let synthesized_end =
    match Obs.Json.member "synthesized_end" json with Some (Obs.Json.Bool b) -> b | _ -> false
  in
  let error = match Obs.Json.member "error" json with Some (Obs.Json.Str msg) -> Some msg | _ -> None in
  let* report =
    match Obs.Json.member "report" json with
    | Some Obs.Json.Null | None -> Ok None
    | Some rep ->
        let* r = report_of_json rep in
        Ok (Some r)
  in
  Ok { status; events; skipped; skipped_lines; synthesized_end; error; report }

let result_to_line r = Obs.Json.to_string ~indent:false (result_to_json r)

let result_of_line line =
  let* json = Obs.Json.of_string line in
  result_of_json json
