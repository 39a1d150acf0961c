(* Spans the benchmark records around its own calls into each layer.
   They stay in memory and are written once, when the run ends. Unlike
   Obs.Span they link each span to its parent, which self times need,
   and read the nanosecond clock. *)

type span = { id : int; parent : int; name : string; start_ns : int64; end_ns : int64 }

type t = { on : bool; mutable spans : span list; mutable stack : int list }

(* Ids are unique across collectors, so their spans can be merged. *)
let next_id = ref 1

let create ~on = { on; spans = []; stack = [] }

let record t name f =
  if not t.on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let start_ns = Bclock.now () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = Bclock.now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; name; start_ns; end_ns } :: t.spans)
      f
  end

let dur s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

(* Self time per span name: each span's duration minus the part of it
   its children cover, summed over every span of that name. *)
let self_ns t =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    t.spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id) in
      Hashtbl.replace self s.name (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    t.spans;
  self

let to_json t =
  let open Obs.Json in
  Obj
    [
      ("schema", Str "perfbench-spans/v1");
      ( "spans",
        List
          (List.rev_map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("parent", Int s.parent);
                   ("name", Str s.name);
                   ("start_ns", Str (Int64.to_string s.start_ns));
                   ("dur_ns", Float (dur s));
                 ])
             t.spans) );
    ]

let write t path = Obs.Json.to_file path (to_json t)
