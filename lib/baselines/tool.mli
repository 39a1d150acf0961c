(** The five [-d] detectors: one table, one sink constructor and one
    detection path shared by the CLI, the daemon, bugbench and the
    paper tables. (Persistence Inspector and Yat are domain-restricted
    tools only Table 1 runs.) *)

type t = PMDebugger | Pmemcheck | PMTest | XFDetector | Nulgrind

val all : t list
(** In [-d] listing order. *)

val name : t -> string
(** The [-d] spelling, e.g. ["pmdebugger"]. *)

val label : t -> string
(** The paper-table label, e.g. ["PMDebugger"]. *)

val of_name : string -> (t, string) result
(** Inverse of {!name}; the error is the CLI's message. *)

val sink :
  ?metrics:Obs.Metrics.t ->
  ?heatmap:Obs.Heatmap.t ->
  ?pm:Pmem.State.t ->
  ?recovery:(Pmem.Image.t -> bool) ->
  model:Pmdebugger.Detector.model ->
  config:Pmdebugger.Order_config.t ->
  t ->
  Pmtrace.Sink.t
(** A fresh sink. [metrics], [heatmap] and [model] reach PMDebugger
    only; [config], [pm] and [recovery] reach PMDebugger and
    XFDetector. With [recovery], PMDebugger checks crash images at
    every fence. *)

val detect :
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  ?heatmap:Obs.Heatmap.t ->
  model:Pmdebugger.Detector.model ->
  config:Pmdebugger.Order_config.t ->
  t ->
  (Pmtrace.Engine.t -> unit) ->
  Pmtrace.Bug.report
(** [detect tool feed]: {!Pmtrace.Engine.open_one} around the tool's
    {!sink} (the engine records into [metrics] too), [feed], then
    {!Pmtrace.Engine.finish_one} as the ["finish"] span. A detector
    that raises is quarantined into the report's [failure]. *)
