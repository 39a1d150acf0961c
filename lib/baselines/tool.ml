open Pmtrace

type t = PMDebugger | Pmemcheck | PMTest | XFDetector | Nulgrind

let all = [ PMDebugger; Pmemcheck; PMTest; XFDetector; Nulgrind ]

let name = function
  | PMDebugger -> "pmdebugger"
  | Pmemcheck -> "pmemcheck"
  | PMTest -> "pmtest"
  | XFDetector -> "xfdetector"
  | Nulgrind -> "nulgrind"

let label = function
  | PMDebugger -> "PMDebugger"
  | Pmemcheck -> "Pmemcheck"
  | PMTest -> "PMTest"
  | XFDetector -> "XFDetector"
  | Nulgrind -> "Nulgrind"

let of_name s =
  match List.find_opt (fun t -> name t = s) all with
  | Some t -> Ok t
  | None ->
      Error
        (Printf.sprintf "unknown detector %S (expected one of: %s)" s (String.concat ", " (List.map name all)))

let sink ?metrics ?heatmap ?pm ?recovery ~model ~config = function
  | PMDebugger ->
      Pmdebugger.Detector.sink
        (Pmdebugger.Detector.create ~model ~config ?pm ?recovery ~crash_check_every_fence:(recovery <> None)
           ?metrics ?heatmap ())
  | Pmemcheck -> Pmemcheck.sink (Pmemcheck.create ())
  | PMTest -> Pmtest.sink (Pmtest.create ())
  | XFDetector -> Xfdetector.sink (Xfdetector.create ~config ?pm ?recovery ())
  | Nulgrind -> Nulgrind.sink ()

let detect ?metrics ?(spans = Obs.Span.disabled) ?heatmap ~model ~config tool feed =
  let engine = Engine.open_one ?metrics (fun _ -> sink ?metrics ?heatmap ~model ~config tool) in
  feed engine;
  Obs.Span.record spans "finish" (fun () -> Engine.finish_one engine)
