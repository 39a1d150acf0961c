type trace = Event.t array

let record run =
  let engine = Engine.create () in
  let buf = ref [] and n = ref 0 in
  Engine.attach engine
    (Sink.make ~name:"recorder"
       ~on_event:(fun ev ->
         buf := ev :: !buf;
         incr n)
       ~finish:(fun () -> { (Bug.empty_report "recorder") with events_processed = !n }));
  run engine;
  Engine.detach_all engine;
  let arr = Array.make !n Event.Program_end in
  let rec fill i = function
    | [] -> ()
    | ev :: rest ->
        arr.(i) <- ev;
        fill (i - 1) rest
  in
  fill (!n - 1) !buf;
  arr

let replay trace sink =
  Array.iter sink.Sink.on_event trace;
  sink.Sink.finish ()

let replay_stream produce sink =
  produce sink.Sink.on_event;
  sink.Sink.finish ()

let interleave_round_robin traces =
  let arrs = Array.of_list traces in
  let idx = Array.map (fun _ -> 0) arrs in
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 arrs in
  let out = Array.make total Event.Program_end in
  let k = ref 0 in
  let remaining () = Array.exists (fun i -> i >= 0) (Array.mapi (fun j i -> if i < Array.length arrs.(j) then i else -1) idx) in
  while remaining () do
    Array.iteri
      (fun j i ->
        if i < Array.length arrs.(j) then begin
          out.(!k) <- arrs.(j).(i);
          incr k;
          idx.(j) <- i + 1
        end)
      idx
  done;
  out

let stats trace =
  let stores = ref 0 and clfs = ref 0 and fences = ref 0 and other = ref 0 in
  Array.iter
    (fun ev ->
      match ev with
      | Event.Store _ -> incr stores
      | Event.Clf _ -> incr clfs
      | Event.Fence _ -> incr fences
      | _ -> incr other)
    trace;
  [ ("stores", !stores); ("clfs", !clfs); ("fences", !fences); ("other", !other); ("total", Array.length trace) ]
