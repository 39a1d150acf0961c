type change_kind = Added | Removed | Changed

type change = {
  d_name : string;
  d_labels : Metrics.labels;
  d_kind : change_kind;
  d_before : Metrics.value_view option;
  d_after : Metrics.value_view option;
}

type t = change list

let key (s : Metrics.sample) = (s.Metrics.name, s.Metrics.labels)

let same_value (a : Metrics.value_view) (b : Metrics.value_view) =
  match (a, b) with
  | Metrics.V_counter x, Metrics.V_counter y -> x = y
  | Metrics.V_gauge x, Metrics.V_gauge y -> x = y
  | Metrics.V_hist x, Metrics.V_hist y ->
      x.Metrics.h_count = y.Metrics.h_count
      && x.Metrics.h_sum = y.Metrics.h_sum
      && x.Metrics.h_bounds = y.Metrics.h_bounds
      && x.Metrics.h_counts = y.Metrics.h_counts
  | _ -> false

let compute ~before ~after =
  (* Both snapshots are sorted by (name, labels); a merge walk yields
     the changes already in canonical order. *)
  let rec go acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | sa :: ra, [] ->
        go
          ({ d_name = sa.Metrics.name; d_labels = sa.Metrics.labels; d_kind = Removed;
             d_before = Some sa.Metrics.value; d_after = None }
          :: acc)
          ra []
    | [], sb :: rb ->
        go
          ({ d_name = sb.Metrics.name; d_labels = sb.Metrics.labels; d_kind = Added;
             d_before = None; d_after = Some sb.Metrics.value }
          :: acc)
          [] rb
    | sa :: ra, sb :: rb ->
        let c = compare (key sa) (key sb) in
        if c < 0 then
          go
            ({ d_name = sa.Metrics.name; d_labels = sa.Metrics.labels; d_kind = Removed;
               d_before = Some sa.Metrics.value; d_after = None }
            :: acc)
            ra b
        else if c > 0 then
          go
            ({ d_name = sb.Metrics.name; d_labels = sb.Metrics.labels; d_kind = Added;
               d_before = None; d_after = Some sb.Metrics.value }
            :: acc)
            a rb
        else if same_value sa.Metrics.value sb.Metrics.value then go acc ra rb
        else
          go
            ({ d_name = sa.Metrics.name; d_labels = sa.Metrics.labels; d_kind = Changed;
               d_before = Some sa.Metrics.value; d_after = Some sb.Metrics.value }
            :: acc)
            ra rb
  in
  go [] before after

let is_empty d = d = []

(* Regression gating looks at counters by default: for a seeded
   deterministic workload they are reproducible run-to-run, while
   gauges and latency histograms vary with machine load and would make
   the gate flaky. Some gauges, however, are deterministic capacity
   peaks (space_array_live_peak, space_tree_size_peak) rather than
   timings; [gauge_threshold] opts those into the gate with their own,
   typically looser, threshold. *)
let regressions ?(threshold = 0.0) ?gauge_threshold d =
  List.filter
    (fun c ->
      match (c.d_kind, c.d_before, c.d_after) with
      | Changed, Some (Metrics.V_counter b), Some (Metrics.V_counter a) when a > b ->
          let rel = float_of_int (a - b) /. float_of_int (max 1 b) in
          rel > threshold
      | Added, None, Some (Metrics.V_counter a) -> a > 0
      | Changed, Some (Metrics.V_gauge b), Some (Metrics.V_gauge a) -> (
          match gauge_threshold with
          | Some gt when a > b -> (a -. b) /. Float.max 1.0 b > gt
          | _ -> false)
      | Added, None, Some (Metrics.V_gauge a) -> (
          match gauge_threshold with Some _ -> a > 0.0 | None -> false)
      | _ -> false)
    d

let value_str = function
  | None -> "-"
  | Some (Metrics.V_counter n) -> string_of_int n
  | Some (Metrics.V_gauge g) -> Printf.sprintf "%g" g
  | Some (Metrics.V_hist v) ->
      Printf.sprintf "count=%d sum=%.6g" v.Metrics.h_count v.Metrics.h_sum

let delta_str c =
  match (c.d_before, c.d_after) with
  | Some (Metrics.V_counter b), Some (Metrics.V_counter a) ->
      let d = a - b in
      Printf.sprintf "%+d (%+.1f%%)" d (100.0 *. float_of_int d /. float_of_int (max 1 b))
  | Some (Metrics.V_gauge b), Some (Metrics.V_gauge a) -> Printf.sprintf "%+g" (a -. b)
  | Some (Metrics.V_hist b), Some (Metrics.V_hist a) ->
      Printf.sprintf "count%+d" (a.Metrics.h_count - b.Metrics.h_count)
  | _ -> ""

let kind_str = function Added -> "added" | Removed -> "removed" | Changed -> "changed"

let rows_header = [ "metric"; "labels"; "change"; "before"; "after"; "delta" ]

let to_rows d =
  List.map
    (fun c ->
      [
        c.d_name;
        Metrics.labels_str c.d_labels;
        kind_str c.d_kind;
        value_str c.d_before;
        value_str c.d_after;
        delta_str c;
      ])
    d

let pp_change fmt c =
  let labels =
    match c.d_labels with [] -> "" | l -> "{" ^ Metrics.labels_str l ^ "}"
  in
  Format.fprintf fmt "%s %s%s: %s -> %s%s" (kind_str c.d_kind) c.d_name labels
    (value_str c.d_before) (value_str c.d_after)
    (match delta_str c with "" -> "" | d -> " (" ^ d ^ ")")
