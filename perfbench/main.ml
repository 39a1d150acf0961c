(* perfbench: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Prints a few summary lines, then as its last line one JSON object
   with [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Spans
   of the run are written to DIR (default .bench_build/perfbench). *)

open Perfbench

let usage () =
  Printf.eprintf "usage: main.exe --workload %s --seed N --seconds S --trace 0|1 [--out DIR]\n"
    (String.concat "|" Wl.names);
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let out = ref (Filename.concat ".bench_build" "perfbench") in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload Wl.names)) || !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let dir = Filename.concat !out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let spans = Spans.create ~on:trace in
  let cfg = { Wl.workload = !workload; seed = !seed; seconds = !seconds; dir; spans } in
  let r = Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> Wl.run ~trace cfg) in
  if trace then
    Spans.write spans (Filename.concat !out (Printf.sprintf "spans-%s-seed%d.json" !workload !seed));
  List.iter print_endline r.Wl.summary;
  List.iter (Printf.printf "FAILED check: %s\n") (List.rev r.Wl.tally.Layers.notes);
  List.iter (fun (name, v, unit) -> Printf.printf "%-40s %14.6g %s\n" name v unit) r.Wl.metrics;
  if List.exists (fun (_, v, _) -> not (Float.is_finite v)) r.Wl.metrics then begin
    prerr_endline "perfbench: a metric is not a finite number";
    exit 1
  end;
  print_endline (Wl.result_line r)
