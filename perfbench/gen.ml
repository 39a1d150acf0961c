(* Workload inputs. Every trace is generated in set-up from the run's
   seed, so the program under test only ever sees generated inputs and
   the same seed always gives the same inputs. *)

open Pmtrace
module W = Workloads.Workload
module D = Pmdebugger.Detector
module R = Faultinject.Replay

type trace = { model : D.model; path : string; events : int }

let sub_seed seed i = (Hashtbl.hash (seed, i) land 0x3FFF_FFFF) + 1

(* The recording pass: run the seeded program live and stream every
   event to a trace file. *)
let record_file (spec : W.spec) ~n ~seed path =
  Trace_io.save_stream path (fun emit ->
      let e = Engine.create () in
      Engine.attach e (Sink.make ~name:"record" ~on_event:emit ~finish:(fun () -> Bug.empty_report "record"));
      spec.W.run (W.params ~seed ~n ()) e)

let record_traces ~dir ~seed sources =
  List.mapi
    (fun i ((spec : W.spec), n) ->
      let path = Filename.concat dir (Printf.sprintf "%02d-%s.pmt" i spec.W.name) in
      let events = record_file spec ~n ~seed:(sub_seed seed i) path in
      { model = spec.W.model; path; events })
    sources

let load (t : trace) = match Trace_io.load t.path with Ok a -> a | Error msg -> failwith (t.path ^ ": " ^ msg)

(* {1 Crash exploration inputs} *)

(* b_tree's pool size; the planted trace registers the same size so
   both derive images over pools of equal extent. *)
let pool_size = 64 lsl 20

(* Exploration settings shared by the explore workload and the explore
   layer of every traced run. *)
let btree_n = 1
let exhaustive_max_images = 2
let planted_max_images = 4
let planted_rounds = 40
let planted_count = 2
let guided_budget = 100

let btree_steps ~seed ~n = R.capture (fun e -> Workloads.Btree.spec.W.run (W.params ~seed ~n ()) e)

(* The b_tree recovery predicate: a pool header that carries the magic
   also carries its heap frontier, and a published root object lies
   below the durable frontier. *)
let btree_recovery img =
  let get = Pmem.Image.get_int img in
  let module P = Minipmdk.Pool in
  (Pmem.Image.get_i64 img P.off_magic = 0L || get P.off_heap_top <> 0)
  && (get P.off_root_off = 0 || get P.off_root_off < get P.off_heap_top)

(* Hand-derived from Minipmdk.Pool: [create] stores the magic (step 1,
   right after register_pmem) before the heap frontier in the same
   cache line, so only the image persisting that line between the two
   stores breaks the header clause; [root] persists the frontier
   before it stores the root offset, so the root clause never fails. *)
let btree_expected_failures = [ 1 ]

type planted = { steps : R.step array; planted_rounds : int list; expected : int list }

(* Backup/counter commit rounds on two lines: correct rounds persist
   the backup before the counter that must never exceed it; planted
   rounds persist the counter first. *)
let planted ~seed ~rounds ~count =
  let rng = Workloads.Prng.create seed in
  let rec pick acc =
    if List.length acc = count then List.sort compare acc
    else
      let r = 2 + Workloads.Prng.below rng (rounds - 2) in
      pick (if List.mem r acc then acc else r :: acc)
  in
  let planted_rounds = pick [] in
  let backup = 0 and counter = 64 in
  let run e =
    Engine.register_pmem e ~base:0 ~size:pool_size;
    for r = 1 to rounds do
      let commit ~addr =
        Engine.store_i64 e ~addr (Int64.of_int r);
        Engine.persist e ~addr ~size:8
      in
      if List.mem r planted_rounds then (commit ~addr:counter; commit ~addr:backup)
      else (commit ~addr:backup; commit ~addr:counter)
    done
  in
  (* Step 0 registers the pool; round r's six steps (store, clwb, fence
     per commit) start at 1 + 6(r-1). A planted round leaves the
     counter possibly ahead from its counter store until its backup's
     fence, so its first five boundaries fail. *)
  let expected = List.concat_map (fun r -> List.init 5 (fun j -> 1 + (6 * (r - 1)) + j)) planted_rounds in
  { steps = R.capture run; planted_rounds; expected }

(* The k-th b_tree and planted input of a run. *)
let btree_input ~seed k = btree_steps ~seed:(sub_seed seed k) ~n:btree_n

let planted_input ~seed k = planted ~seed:(sub_seed seed (50 + k)) ~rounds:planted_rounds ~count:planted_count

let planted_recovery img = Int64.compare (Pmem.Image.get_i64 img 64) (Pmem.Image.get_i64 img 0) <= 0
