open Pmtrace

(* Clean reference programs for the mutation matrix. Each is bug-free
   under the strict model and is shaped so that every fault class has a
   candidate site: multi-line stores (tearable), one CLF per line
   (droppable / duplicable) and a load-bearing closing fence. *)

let kv_pair e =
  Engine.register_pmem e ~base:0 ~size:(1 lsl 16);
  Engine.store_bytes e ~addr:1024 (Bytes.make 160 'v');
  Engine.flush_range e ~addr:1024 ~size:160;
  Engine.sfence e;
  Engine.store_i64 e ~addr:4096 160L;
  Engine.clwb e ~addr:4096;
  Engine.sfence e;
  Engine.program_end e

let log_append e =
  Engine.register_pmem e ~base:0 ~size:(1 lsl 16);
  for i = 0 to 1 do
    Engine.store_bytes e ~addr:(2048 + (i * 256)) (Bytes.make 100 (Char.chr (Char.code 'a' + i)));
    Engine.flush_range e ~addr:(2048 + (i * 256)) ~size:100;
    Engine.sfence e
  done;
  Engine.store_i64 e ~addr:0 2L;
  Engine.clwb e ~addr:0;
  Engine.sfence e;
  Engine.program_end e

let double_buffer e =
  Engine.register_pmem e ~base:0 ~size:(1 lsl 16);
  Engine.store_bytes e ~addr:512 (Bytes.make 128 'b');
  Engine.flush_range e ~addr:512 ~size:128;
  Engine.sfence e;
  Engine.store_i64 e ~addr:8192 1L;
  Engine.clwb e ~addr:8192;
  Engine.sfence e;
  Engine.program_end e

let ring_buffer e =
  Engine.register_pmem e ~base:0 ~size:(1 lsl 16);
  for i = 0 to 2 do
    Engine.store_bytes e ~addr:(1024 + (i * 128)) (Bytes.make 72 (Char.chr (Char.code 'p' + i)));
    Engine.flush_range e ~addr:(1024 + (i * 128)) ~size:72;
    Engine.sfence e
  done;
  Engine.program_end e

let clean_workloads =
  [
    ("kv_pair", kv_pair);
    ("log_append", log_append);
    ("double_buffer", double_buffer);
    ("ring_buffer", ring_buffer);
  ]

(* The detector-visible fault classes. Evict_line is environmental: it
   must NOT be flagged (the program did nothing wrong), which the matrix
   checks separately. *)
let core_faults = [ Injector.Drop_clf; Injector.Drop_fence; Injector.Torn_store; Injector.Duplicate_flush ]

let default_plan = function
  | Injector.Drop_fence ->
      (* A dropped fence in the middle is healed by the next one; the
         closing fence is the one whose loss must be caught. *)
      Injector.plan ~target:Injector.Last Injector.Drop_fence
  | Injector.Evict_line -> Injector.plan ~target:Injector.Last Injector.Evict_line
  | fault -> Injector.plan fault

let detect events =
  Bug.kinds_found
    (Baselines.Tool.detect ~model:Pmdebugger.Detector.Strict ~config:Pmdebugger.Order_config.empty
       Baselines.Tool.PMDebugger (fun e -> Array.iter (Engine.emit e) events))

type cell = {
  fault : Injector.fault;
  injections : int;
  detected_by : Bug.kind list;
}

type row = {
  workload : string;
  baseline_kinds : Bug.kind list;  (** detector findings on the unmutated trace; must be [] *)
  cells : cell list;
}

let run_row ?(faults = core_faults) (name, program) =
  let steps = Replay.capture program in
  let baseline_kinds = detect (Replay.events_of_steps steps) in
  let cells =
    List.map
      (fun fault ->
        let mutated, injections = Injector.apply (default_plan fault) steps in
        { fault; injections = List.length injections; detected_by = detect (Replay.events_of_steps mutated) })
      faults
  in
  { workload = name; baseline_kinds; cells }

let run_matrix ?faults ?(workloads = clean_workloads) () = List.map (run_row ?faults) workloads

let row_ok r =
  r.baseline_kinds = []
  && List.for_all (fun c -> c.injections > 0 && c.detected_by <> []) r.cells

let matrix_ok rows = rows <> [] && List.for_all row_ok rows
