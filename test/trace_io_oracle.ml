(* The reference line parser: the straightforward trim / split / match
   implementation the trace format was first defined by. Trace_io's
   decoder, which parses each line in place in one function, must agree
   with [lenient_of_string] on every text: the same events, and the
   same skipped line numbers and error texts. The differential tests in
   test_trace_io.ml compare whole texts, fed whole and at every chunk
   split. *)

open Pmtrace

let kind_of_string = function
  | "clwb" -> Some Event.Clwb
  | "clflush" -> Some Event.Clflush
  | "clflushopt" -> Some Event.Clflushopt
  | _ -> None

let event_of_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else begin
    let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
    let int s = int_of_string_opt s in
    (* Addresses and sizes: a negative one is malformed. *)
    let nat s = match int s with Some v when v >= 0 -> Some v | _ -> None in
    let bad () = Error (Printf.sprintf "cannot parse event %S" line) in
    match words with
    | [ "store"; tid; addr; size ] -> (
        match (int tid, nat addr, nat size) with
        | Some tid, Some addr, Some size -> Ok (Some (Event.Store { addr; size; tid }))
        | _ -> bad ())
    | [ "clf"; kind; tid; addr; size ] -> (
        match (kind_of_string kind, int tid, nat addr, nat size) with
        | Some kind, Some tid, Some addr, Some size -> Ok (Some (Event.Clf { addr; size; kind; tid }))
        | _ -> bad ())
    | [ "fence"; tid ] -> ( match int tid with Some tid -> Ok (Some (Event.Fence { tid })) | None -> bad ())
    | [ "register_pmem"; base; size ] -> (
        match (nat base, nat size) with
        | Some base, Some size -> Ok (Some (Event.Register_pmem { base; size }))
        | _ -> bad ())
    | [ "epoch_begin"; tid ] -> (
        match int tid with Some tid -> Ok (Some (Event.Epoch_begin { tid })) | None -> bad ())
    | [ "epoch_end"; tid ] -> ( match int tid with Some tid -> Ok (Some (Event.Epoch_end { tid })) | None -> bad ())
    | [ "strand_begin"; tid; strand ] -> (
        match (int tid, int strand) with
        | Some tid, Some strand -> Ok (Some (Event.Strand_begin { tid; strand }))
        | _ -> bad ())
    | [ "strand_end"; tid; strand ] -> (
        match (int tid, int strand) with
        | Some tid, Some strand -> Ok (Some (Event.Strand_end { tid; strand }))
        | _ -> bad ())
    | [ "join_strand"; tid ] -> (
        match int tid with Some tid -> Ok (Some (Event.Join_strand { tid })) | None -> bad ())
    | [ "tx_log"; tid; obj_addr; size ] -> (
        match (int tid, nat obj_addr, nat size) with
        | Some tid, Some obj_addr, Some size -> Ok (Some (Event.Tx_log { obj_addr; size; tid }))
        | _ -> bad ())
    | "register_var" :: addr :: size :: name_parts when name_parts <> [] -> (
        match (nat addr, nat size) with
        | Some addr, Some size ->
            Ok (Some (Event.Register_var { name = String.concat " " name_parts; addr; size }))
        | _ -> bad ())
    | "call" :: tid :: func_parts when func_parts <> [] -> (
        match int tid with
        | Some tid -> Ok (Some (Event.Call { func = String.concat " " func_parts; tid }))
        | None -> bad ())
    | [ "assert_durable"; addr; size ] -> (
        match (nat addr, nat size) with
        | Some addr, Some size -> Ok (Some (Event.Annotation (Event.Assert_durable { addr; size })))
        | _ -> bad ())
    | [ "assert_ordered"; a; asz; b; bsz ] -> (
        match (nat a, nat asz, nat b, nat bsz) with
        | Some first_addr, Some first_size, Some then_addr, Some then_size ->
            Ok (Some (Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size })))
        | _ -> bad ())
    | [ "assert_fresh"; addr; size ] -> (
        match (nat addr, nat size) with
        | Some addr, Some size -> Ok (Some (Event.Annotation (Event.Assert_fresh { addr; size })))
        | _ -> bad ())
    | [ "program_end" ] -> Ok (Some Event.Program_end)
    | _ -> bad ()
  end

(* Lenient parse of a whole text, line by line: (events, skipped). *)
let lenient_of_string text =
  let events = ref [] and skipped = ref [] in
  List.iteri
    (fun i line ->
      match event_of_line line with
      | Ok None -> ()
      | Ok (Some ev) -> events := ev :: !events
      | Error msg -> skipped := (i + 1, msg) :: !skipped)
    (String.split_on_char '\n' text);
  (List.rev !events, List.rev !skipped)

(* The reference printer. *)
let event_to_line = function
  | Event.Store { addr; size; tid } -> Printf.sprintf "store %d %d %d" tid addr size
  | Event.Clf { addr; size; kind; tid } -> Printf.sprintf "clf %s %d %d %d" (Event.clf_kind_name kind) tid addr size
  | Event.Fence { tid } -> Printf.sprintf "fence %d" tid
  | Event.Register_pmem { base; size } -> Printf.sprintf "register_pmem %d %d" base size
  | Event.Epoch_begin { tid } -> Printf.sprintf "epoch_begin %d" tid
  | Event.Epoch_end { tid } -> Printf.sprintf "epoch_end %d" tid
  | Event.Strand_begin { tid; strand } -> Printf.sprintf "strand_begin %d %d" tid strand
  | Event.Strand_end { tid; strand } -> Printf.sprintf "strand_end %d %d" tid strand
  | Event.Join_strand { tid } -> Printf.sprintf "join_strand %d" tid
  | Event.Tx_log { obj_addr; size; tid } -> Printf.sprintf "tx_log %d %d %d" tid obj_addr size
  | Event.Register_var { name; addr; size } -> Printf.sprintf "register_var %d %d %s" addr size name
  | Event.Call { func; tid } -> Printf.sprintf "call %d %s" tid func
  | Event.Annotation (Event.Assert_durable { addr; size }) -> Printf.sprintf "assert_durable %d %d" addr size
  | Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size }) ->
      Printf.sprintf "assert_ordered %d %d %d %d" first_addr first_size then_addr then_size
  | Event.Annotation (Event.Assert_fresh { addr; size }) -> Printf.sprintf "assert_fresh %d %d" addr size
  | Event.Program_end -> "program_end"
