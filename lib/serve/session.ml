open Pmtrace

type t = {
  decoder : Trace_io.Decoder.t;
  budget : int;
  skipped : (int * string) list ref; (* newest first *)
  skipped_bytes : int ref;
  mutable ended : bool;
  mutable status : Status.t;
  mutable error : string option;
}

let create ~lenient ~budget emit =
  let skipped = ref [] and skipped_bytes = ref 0 in
  let on_skip lineno msg =
    skipped := (lineno, msg) :: !skipped;
    skipped_bytes := !skipped_bytes + String.length msg
  in
  {
    decoder = Trace_io.Decoder.create ~on_skip ~lenient emit;
    budget;
    skipped;
    skipped_bytes;
    ended = false;
    status = Status.Ok;
    error = None;
  }

let status t = t.status

let error t = t.error

let ended t = t.ended

let held_bytes t = Trace_io.Decoder.carried t.decoder + !(t.skipped_bytes)

let events t = Trace_io.Decoder.events t.decoder

let skipped_lines t = List.rev !(t.skipped)

let synthesized_end t = Trace_io.Decoder.synthesized t.decoder

let terminate t status msg =
  if t.status = Status.Ok then begin
    t.status <- status;
    t.error <- msg
  end

let cut_short t status msg =
  if not t.ended then begin
    terminate t status msg;
    t.ended <- true;
    Trace_io.Decoder.truncate t.decoder
  end

let feed t b ~off ~len =
  if not t.ended then
    match Trace_io.Decoder.feed t.decoder b ~off ~len with
    | Error msg -> cut_short t Status.Trace_error (Some msg)
    | Ok () ->
        let held = held_bytes t in
        if held > t.budget then
          cut_short t Status.Evicted
            (Some (Printf.sprintf "session budget exceeded (%d bytes held > %d budget)" held t.budget))

let finish t =
  if not t.ended then
    match Trace_io.Decoder.finish t.decoder with
    | Ok () -> t.ended <- true
    | Error msg -> cut_short t Status.Trace_error (Some msg)
