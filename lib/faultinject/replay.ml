open Pmtrace

type step =
  | Ev of Event.t
  | Store_data of { addr : int; data : bytes; tid : int }
  | Evict of { line : int }

let event_of_step = function
  | Ev ev -> Some ev
  | Store_data { addr; data; tid } -> Some (Event.Store { addr; size = Bytes.length data; tid })
  | Evict _ -> None

let events_of_steps steps =
  Array.of_list (List.filter_map event_of_step (Array.to_list steps))

(* Crash-point exploration is the one trace consumer that passes over a
   trace several times (invariant inference, risk scoring, and two
   forward walks for a risk-ordered schedule), so a trace file is
   materialized here — explicitly — instead of streamed. Everything
   detector-facing should prefer Trace_io.iter_file. *)
let materialize_file path =
  Result.map
    (fun (acc, stats) -> (Array.of_list (List.rev acc), stats))
    (Trace_io.fold_file path ~init:[] ~f:(fun acc ev -> Ev ev :: acc))

let capture run =
  let engine = Engine.create () in
  let vol = Pmem.State.volatile (Engine.pm engine) in
  let buf = ref [] and n = ref 0 in
  let sink =
    Sink.make ~name:"capture"
      ~on_event:(fun ev ->
        let step =
          match ev with
          | Event.Store { addr; size; tid } ->
              (* The engine applies the store to the volatile image
                 before dispatching, so the payload is readable here —
                 this is how a trace replay reconstructs contents the
                 plain event stream does not carry. *)
              Store_data { addr; data = Pmem.Image.read vol ~addr ~len:size; tid }
          | ev -> Ev ev
        in
        buf := step :: !buf;
        incr n)
      ~finish:(fun () -> Bug.empty_report "capture")
  in
  Engine.attach engine sink;
  run engine;
  Engine.detach_all engine;
  (* The end rule of a lenient trace read: a program that did not end
     its trace gets a [Program_end]. *)
  (match !buf with
  | Ev ev :: _ when Trace_io.ends_trace ev -> ()
  | _ ->
      buf := Ev Event.Program_end :: !buf;
      incr n);
  let arr = Array.make !n (Ev Event.Program_end) in
  let rec fill i = function
    | [] -> ()
    | s :: rest ->
        arr.(i) <- s;
        fill (i - 1) rest
  in
  fill (!n - 1) !buf;
  arr

(* Stores replayed from a payloadless event stream still need bytes:
   fill with a deterministic nonzero pattern so recovery predicates of
   the "field is nonzero" family behave sensibly. *)
let synthetic_payload ~addr ~size =
  Bytes.init size (fun i -> Char.chr ((((addr + i) lxor 0x5a) land 0xff) lor 1))

let apply st = function
  | Store_data { addr; data; _ } -> Pmem.State.store st ~addr data
  | Ev (Event.Store { addr; size; _ }) -> Pmem.State.store st ~addr (synthetic_payload ~addr ~size)
  | Ev (Event.Clf { addr; size; _ }) -> Pmem.State.clf_range st ~lo:addr ~hi:(addr + size)
  | Ev (Event.Fence _) -> Pmem.State.fence st
  | Evict { line } -> Pmem.State.evict st ~line
  | Ev _ -> ()

let is_store = function Ev (Event.Store _) | Store_data _ -> true | _ -> false

let is_clf = function Ev (Event.Clf _) -> true | _ -> false

let is_fence = function Ev (Event.Fence _) -> true | _ -> false

let pp ppf = function
  | Ev ev -> Event.pp ppf ev
  | Store_data { addr; data; tid } -> Format.fprintf ppf "store[t%d] %d+%d (captured)" tid addr (Bytes.length data)
  | Evict { line } -> Format.fprintf ppf "evict line %d" line
