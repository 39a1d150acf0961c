(* Chrome trace-event JSON builder (the "JSON Array Format" subset that
   ui.perfetto.dev and chrome://tracing load). Events are kept in emit
   order and every event object renders its fields in a fixed order, so
   the same build sequence always produces byte-identical JSON — the
   golden-file test depends on this. *)

type t = { mutable rev_events : Json.t list; mutable count : int }

let create () = { rev_events = []; count = 0 }

let length t = t.count

let push t ev =
  t.rev_events <- ev :: t.rev_events;
  t.count <- t.count + 1

let base ~name ?cat ~ph rest =
  ("name", Json.Str name)
  :: (match cat with Some c -> [ ("cat", Json.Str c) ] | None -> [])
  @ (("ph", Json.Str ph) :: rest)

let ids ?(pid = 0) ?(tid = 0) () = [ ("pid", Json.Int pid); ("tid", Json.Int tid) ]

let args_field = function [] -> [] | args -> [ ("args", Json.Obj args) ]

let complete ?cat ?pid ?tid ?(args = []) t ~name ~ts ~dur =
  push t
    (Json.Obj
       (base ~name ?cat ~ph:"X"
          ([ ("ts", Json.Int ts); ("dur", Json.Int (max 0 dur)) ]
          @ ids ?pid ?tid () @ args_field args)))

let begin_slice ?cat ?pid ?tid ?(args = []) t ~name ~ts =
  push t
    (Json.Obj
       (base ~name ?cat ~ph:"B" (("ts", Json.Int ts) :: (ids ?pid ?tid () @ args_field args))))

let end_slice ?cat ?pid ?tid ?(args = []) t ~name ~ts =
  push t
    (Json.Obj
       (base ~name ?cat ~ph:"E" (("ts", Json.Int ts) :: (ids ?pid ?tid () @ args_field args))))

let instant ?cat ?pid ?tid ?(args = []) t ~name ~ts =
  push t
    (Json.Obj
       (base ~name ?cat ~ph:"i"
          (("ts", Json.Int ts) :: ("s", Json.Str "t") :: (ids ?pid ?tid () @ args_field args))))

let counter ?pid ?tid t ~name ~ts ~series =
  push t
    (Json.Obj
       (base ~name ~ph:"C"
          (("ts", Json.Int ts)
          :: (ids ?pid ?tid ()
             @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) series)) ]))))

let name_meta t ~meta ?pid ?tid label =
  push t
    (Json.Obj
       (base ~name:meta ~ph:"M"
          (("ts", Json.Int 0)
          :: (ids ?pid ?tid () @ [ ("args", Json.Obj [ ("name", Json.Str label) ]) ]))))

let process_name ?pid t label = name_meta t ~meta:"process_name" ?pid label

let thread_name ?pid ?tid t label = name_meta t ~meta:"thread_name" ?pid ?tid label

let to_json ?(metadata = []) t =
  ("traceEvents", Json.List (List.rev t.rev_events))
  :: (match metadata with [] -> [] | m -> [ ("metadata", Json.Obj m) ])
  |> fun fields -> Json.Obj fields

(* ---------------------------------------------------------------- *)
(* Structural validation                                             *)
(* ---------------------------------------------------------------- *)

let phases = [ "X"; "i"; "C"; "M"; "B"; "E"; "s"; "f" ]

let validate_json json =
  let ( let* ) = Result.bind in
  let* events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> Ok l
    | Some _ -> Error "trace JSON: traceEvents is not a list"
    | None -> Error "trace JSON: missing traceEvents"
  in
  let check_event i ev =
    let ctx what = Error (Printf.sprintf "trace JSON: event %d: %s" i what) in
    let int_member k = Option.bind (Json.member k ev) Json.to_int in
    match (Json.member "name" ev, Json.member "ph" ev) with
    | Some (Json.Str _), Some (Json.Str ph) ->
        if not (List.mem ph phases) then ctx (Printf.sprintf "unknown phase %S" ph)
        else
          let* () =
            match int_member "ts" with
            | Some ts when ts >= 0 -> Ok ()
            | Some _ -> ctx "negative ts"
            | None -> ctx "missing integer ts"
          in
          let* () =
            if ph <> "X" then Ok ()
            else
              match int_member "dur" with
              | Some d when d >= 0 -> Ok ()
              | Some _ -> ctx "negative dur"
              | None -> ctx "complete event without integer dur"
          in
          let* () =
            match (int_member "pid", int_member "tid") with
            | Some _, Some _ -> Ok ()
            | _ -> ctx "missing integer pid/tid"
          in
          let* () =
            if ph <> "s" && ph <> "f" then Ok ()
            else
              match int_member "id" with
              | Some _ -> Ok ()
              | None -> ctx "flow event without integer id"
          in
          let* () =
            match (ph, Json.member "args" ev) with
            | ("C" | "M"), Some (Json.Obj (_ :: _)) -> Ok ()
            | ("C" | "M"), _ -> ctx "counter/metadata event without args"
            | _, (None | Some (Json.Obj _)) -> Ok ()
            | _, Some _ -> ctx "args is not an object"
          in
          Ok ()
    | _ -> ctx "missing name/ph"
  in
  let rec check i = function
    | [] -> Ok (List.length events)
    | e :: rest -> ( match check_event i e with Ok () -> check (i + 1) rest | Error _ as err -> err)
  in
  check 0 events
