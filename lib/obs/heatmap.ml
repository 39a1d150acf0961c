(* Hot-line heatmap: a capped per-cache-line accounting table. The
   detector feeds it (stores, CLFs, admitted findings, dirty intervals
   in virtual seq time); `pmdb heatmap` renders the top-K lines —
   "where does the PM traffic go, how long do lines stay dirty, where
   do the findings cluster".

   Same observability contract as Metrics/Flightrec: a disabled table
   costs one branch per hook, a shared [disabled] singleton is
   the default everywhere, and the table is single-domain (per-worker
   tables merge via snapshots). The cap bounds memory on adversarial
   traces: once [cap] distinct lines are tracked, traffic on new lines
   is counted in [dropped] instead of growing the table — the heatmap
   is a top-K diagnostic, not exact accounting, and says so. *)

type entry = {
  mutable e_stores : int;
  mutable e_clfs : int;
  mutable e_bugs : int;
  mutable e_name : string option; (* registered var covering the line *)
  mutable e_dirty_since : int; (* seq of the store that dirtied it; -1 = clean *)
  mutable e_dirty : int; (* closed dirty intervals, in virtual seqs *)
}

type t = {
  on : bool;
  cap : int;
  table : (int, entry) Hashtbl.t;
  mutable dropped : int; (* events on lines beyond the cap *)
  mutable last_seq : int;
}

let create ?(cap = 1024) () =
  if cap < 1 then invalid_arg "Obs.Heatmap.create: cap must be >= 1";
  { on = true; cap; table = Hashtbl.create 64; dropped = 0; last_seq = 0 }

let disabled = { on = false; cap = 1; table = Hashtbl.create 1; dropped = 0; last_seq = 0 }

let is_on t = t.on

let cap t = t.cap

let tracked t = Hashtbl.length t.table

let dropped t = t.dropped

let clear t =
  Hashtbl.reset t.table;
  t.dropped <- 0;
  t.last_seq <- 0

let find t line =
  match Hashtbl.find_opt t.table line with
  | Some e -> Some e
  | None ->
      if Hashtbl.length t.table >= t.cap then None
      else begin
        let e =
          { e_stores = 0; e_clfs = 0; e_bugs = 0; e_name = None; e_dirty_since = -1; e_dirty = 0 }
        in
        Hashtbl.replace t.table line e;
        Some e
      end

let on_store t ~seq ~line =
  if t.on then begin
    t.last_seq <- max t.last_seq seq;
    match find t line with
    | None -> t.dropped <- t.dropped + 1
    | Some e ->
        e.e_stores <- e.e_stores + 1;
        if e.e_dirty_since < 0 then e.e_dirty_since <- seq
  end

let on_clf t ~seq ~line =
  if t.on then begin
    t.last_seq <- max t.last_seq seq;
    match find t line with
    | None -> t.dropped <- t.dropped + 1
    | Some e ->
        e.e_clfs <- e.e_clfs + 1;
        if e.e_dirty_since >= 0 then begin
          e.e_dirty <- e.e_dirty + (seq - e.e_dirty_since);
          e.e_dirty_since <- -1
        end
  end

let on_bug t ~line =
  if t.on then
    match find t line with None -> t.dropped <- t.dropped + 1 | Some e -> e.e_bugs <- e.e_bugs + 1

let set_name t ~line name =
  if t.on then
    match find t line with None -> () | Some e -> if e.e_name = None then e.e_name <- Some name

(* ---------------------------------------------------------------- *)
(* Snapshots                                                         *)
(* ---------------------------------------------------------------- *)

type row = {
  r_line : int;
  r_name : string option;
  r_stores : int;
  r_clfs : int;
  r_bugs : int;
  r_dirty : int;
}

type snapshot = { s_rows : row list; s_dropped : int; s_tracked : int }

let traffic r = r.r_stores + r.r_clfs

(* Hottest first; line index breaks ties so equal-traffic rows render
   deterministically. *)
let compare_rows a b =
  match compare (traffic b) (traffic a) with 0 -> compare a.r_line b.r_line | c -> c

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let snapshot ?top t =
  let rows =
    Hashtbl.fold
      (fun line e acc ->
        (* A line still dirty at snapshot time has been dirty up to the
           latest event seen — charge the open interval without closing
           it (snapshots must not mutate). *)
        let dirty =
          e.e_dirty + (if e.e_dirty_since >= 0 then t.last_seq - e.e_dirty_since else 0)
        in
        {
          r_line = line;
          r_name = e.e_name;
          r_stores = e.e_stores;
          r_clfs = e.e_clfs;
          r_bugs = e.e_bugs;
          r_dirty = dirty;
        }
        :: acc)
      t.table []
    |> List.sort compare_rows
  in
  let rows = match top with None -> rows | Some k -> take (max 0 k) rows in
  { s_rows = rows; s_dropped = t.dropped; s_tracked = Hashtbl.length t.table }

(* Multi-table fold (per-worker heatmaps): counters sum per line, names
   keep the first, and the merged rows re-rank by combined traffic.
   Commutative up to the first-name rule; deterministic for the usual
   case where every table agrees on a line's name. *)
let merge snaps =
  let table = Hashtbl.create 64 in
  let dropped = ref 0 in
  List.iter
    (fun s ->
      dropped := !dropped + s.s_dropped;
      List.iter
        (fun r ->
          match Hashtbl.find_opt table r.r_line with
          | None -> Hashtbl.replace table r.r_line r
          | Some prev ->
              Hashtbl.replace table r.r_line
                {
                  r_line = r.r_line;
                  r_name = (match prev.r_name with Some _ -> prev.r_name | None -> r.r_name);
                  r_stores = prev.r_stores + r.r_stores;
                  r_clfs = prev.r_clfs + r.r_clfs;
                  r_bugs = prev.r_bugs + r.r_bugs;
                  r_dirty = prev.r_dirty + r.r_dirty;
                })
        s.s_rows)
    snaps;
  let rows = Hashtbl.fold (fun _ r acc -> r :: acc) table [] |> List.sort compare_rows in
  { s_rows = rows; s_dropped = !dropped; s_tracked = List.length rows }

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)
(* ---------------------------------------------------------------- *)

let schema_id = "pmdb-heatmap/v1"

let row_json r =
  Json.Obj
    (("line", Json.Int r.r_line)
    :: (match r.r_name with Some n -> [ ("name", Json.Str n) ] | None -> [])
    @ [
        ("stores", Json.Int r.r_stores);
        ("clfs", Json.Int r.r_clfs);
        ("bugs", Json.Int r.r_bugs);
        ("dirty", Json.Int r.r_dirty);
      ])

let snapshot_to_json s =
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("dropped", Json.Int s.s_dropped);
      ("tracked", Json.Int s.s_tracked);
      ("lines", Json.List (List.map row_json s.s_rows));
    ]

let to_json ?top t = snapshot_to_json (snapshot ?top t)

let snapshot_of_json json =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" json with
    | Some (Json.Str s) when s = schema_id -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "heatmap JSON: unknown schema %S" s)
    | _ -> Error "heatmap JSON: missing schema"
  in
  let* lines =
    match Json.member "lines" json with
    | Some (Json.List l) -> Ok l
    | _ -> Error "heatmap JSON: missing lines list"
  in
  let int_member k j = Option.bind (Json.member k j) Json.to_int in
  let row i j =
    match
      (int_member "line" j, int_member "stores" j, int_member "clfs" j, int_member "bugs" j,
       int_member "dirty" j)
    with
    | Some line, Some stores, Some clfs, Some bugs, Some dirty when line >= 0 ->
        Ok
          {
            r_line = line;
            r_name = (match Json.member "name" j with Some (Json.Str n) -> Some n | _ -> None);
            r_stores = stores;
            r_clfs = clfs;
            r_bugs = bugs;
            r_dirty = dirty;
          }
    | _ -> Error (Printf.sprintf "heatmap JSON: line %d: missing or negative fields" i)
  in
  let rec rows i acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest -> ( match row i j with Ok r -> rows (i + 1) (r :: acc) rest | Error _ as e -> e)
  in
  let* rows = rows 0 [] lines in
  Ok
    {
      s_rows = List.sort compare_rows rows;
      s_dropped = (match int_member "dropped" json with Some d when d >= 0 -> d | _ -> 0);
      s_tracked = (match int_member "tracked" json with Some n when n >= 0 -> n | _ -> List.length rows);
    }
