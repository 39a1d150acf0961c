open Pmtrace

type tool = Baselines.Tool.t = PMDebugger | Pmemcheck | PMTest | XFDetector | Nulgrind

let all_tools = [ PMDebugger; Pmemcheck; PMTest; XFDetector ]

let run_case tool (c : Cases.t) =
  let engine =
    Engine.open_one (fun engine ->
        Baselines.Tool.sink ~pm:(Engine.pm engine) ?recovery:c.Cases.recovery ~model:c.Cases.model
          ~config:c.Cases.config tool)
  in
  c.Cases.run engine;
  Engine.program_end engine;
  Engine.finish_one engine

let detected (c : Cases.t) report =
  match c.Cases.expected with None -> false | Some kind -> Bug.has_kind report kind

type result = {
  tool : tool;
  per_kind : (Bug.kind * int * int) list;
  detected_total : int;
  case_total : int;
  false_negative_rate : float;
  false_positives : string list;
  kinds_covered : int;
}

let evaluate tool =
  let per_kind =
    List.map
      (fun kind ->
        let cases = List.filter (fun (c : Cases.t) -> c.Cases.expected = Some kind) Cases.buggy in
        let hits = List.length (List.filter (fun c -> detected c (run_case tool c)) cases) in
        (kind, hits, List.length cases))
      Bug.all_kinds
  in
  let detected_total = List.fold_left (fun acc (_, d, _) -> acc + d) 0 per_kind in
  let case_total = List.fold_left (fun acc (_, _, t) -> acc + t) 0 per_kind in
  let false_positives =
    List.filter_map
      (fun (c : Cases.t) ->
        let report = run_case tool c in
        if report.Bug.bugs <> [] then Some c.Cases.id else None)
      Cases.clean
  in
  {
    tool;
    per_kind;
    detected_total;
    case_total;
    false_negative_rate =
      (if case_total = 0 then 0.0 else float_of_int (case_total - detected_total) /. float_of_int case_total);
    false_positives;
    kinds_covered = List.length (List.filter (fun (_, d, _) -> d > 0) per_kind);
  }

let evaluate_all () = List.map evaluate all_tools
