open Pmem

type payload = { mutable flushed : bool; seq : int }

type t = { tree : payload Rangetree.t; mutable registered : Addr.range list; mutable track_all : bool }

let create () = { tree = Rangetree.create (); registered = []; track_all = true }

let tree t = t.tree

let register t range =
  t.track_all <- false;
  t.registered <- range :: t.registered

let tracks t ~lo ~hi = t.track_all || List.exists (fun r -> Addr.overlaps_span r ~lo ~hi) t.registered

let store t ~lo ~hi ~seq =
  let store_range = Addr.range ~lo ~hi in
  let visited =
    Rangetree.map_overlapping t.tree ~lo ~hi ~f:(fun r p ->
        if Addr.covers store_range r then []
        else if not p.flushed then [ (r, p) ]
        else List.map (fun piece -> (piece, { flushed = true; seq = p.seq })) (Addr.diff r store_range))
  in
  Rangetree.insert t.tree ~lo ~hi { flushed = false; seq };
  visited > 0

type clf = Flushed_nothing | Redundant of { addr : int; size : int } | Persisted

let clf t ~lo ~hi =
  let flush = Addr.range ~lo ~hi in
  let newly = ref 0 in
  let redundant = ref None in
  let visited =
    Rangetree.map_overlapping t.tree ~lo ~hi ~f:(fun r p ->
        if p.flushed then begin
          if !redundant = None then redundant := Some (r.Addr.lo, Addr.size r);
          [ (r, p) ]
        end
        else if Addr.covers flush r then begin
          p.flushed <- true;
          incr newly;
          [ (r, p) ]
        end
        else begin
          match Addr.inter r flush with
          | None -> [ (r, p) ]
          | Some covered ->
              incr newly;
              (covered, { flushed = true; seq = p.seq })
              :: List.map (fun part -> (part, { flushed = false; seq = p.seq })) (Addr.diff r covered)
        end)
  in
  if visited = 0 then Flushed_nothing
  else if !newly > 0 then Persisted
  else
    match !redundant with
    | Some (addr, size) -> Redundant { addr; size }
    | None -> Redundant { addr = lo; size = hi - lo }

let drop_flushed t = ignore (Rangetree.filter_in_place t.tree (fun _ p -> not p.flushed))

let iter_unpersisted t f =
  Rangetree.iter t.tree (fun ~lo ~hi p ->
      f ~addr:lo ~size:(hi - lo)
        ~detail:(if p.flushed then "flushed but never fenced (missing fence)" else "never flushed (missing CLF)"))
