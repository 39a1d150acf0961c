open Pmem
open Pmtrace

type t = {
  shadow : Shadow_tree.t;
  ledger : Bug.Ledger.t;
  mutable events : int;
  mutable seq : int;
  mutable fence_samples : int;
  mutable tree_size_sum : int;
}

let create () =
  {
    shadow = Shadow_tree.create ();
    ledger = Bug.Ledger.create ();
    events = 0;
    seq = 0;
    fence_samples = 0;
    tree_size_sum = 0;
  }

let report_bug t kind ~addr ?size ~detail () = Bug.Ledger.add t.ledger kind ~addr ?size ~seq:t.seq ~detail ()

let tree t = Shadow_tree.tree t.shadow

let reorganize t =
  Rangetree.reorganize (tree t)
    ~eq:(fun a b -> a.Shadow_tree.flushed = b.Shadow_tree.flushed)
    ~merge:(fun a b -> if a.Shadow_tree.seq >= b.Shadow_tree.seq then a else b)

(* The per-store maintenance real pmemcheck performs: merge the freshly
   inserted (unflushed) region with any adjacent unflushed neighbours.
   Counted as a reorganization (the paper counts ~3.6 per operation on
   hashmap_atomic). *)
let local_merge t ~lo ~hi ~seq =
  let tree = tree t in
  (Rangetree.stats tree).Rangetree.reorganizations <- (Rangetree.stats tree).Rangetree.reorganizations + 1;
  let neighbours =
    List.filter (fun (_, q) -> not q.Shadow_tree.flushed) (Rangetree.overlapping tree ~lo:(lo - 1) ~hi:(hi + 1))
  in
  if List.length neighbours > 1 then begin
    let lo', hi', seq' =
      List.fold_left
        (fun (a, b, sq) ((r : Addr.range), q) -> (min a r.Addr.lo, max b r.Addr.hi, max sq q.Shadow_tree.seq))
        (lo, hi, seq) neighbours
    in
    List.iter
      (fun ((r : Addr.range), q) ->
        ignore (Rangetree.remove_first tree ~lo:r.Addr.lo ~hi:r.Addr.hi (fun x -> x == q)))
      neighbours;
    (Rangetree.stats tree).Rangetree.merges <- (Rangetree.stats tree).Rangetree.merges + List.length neighbours - 1;
    Rangetree.insert tree ~lo:lo' ~hi:hi' { Shadow_tree.flushed = false; seq = seq' }
  end

let on_store t ~addr ~size =
  let lo = addr and hi = addr + size in
  if Shadow_tree.tracks t.shadow ~lo ~hi then begin
    (* Any overlap of a tracked, not yet durable store is a multiple
       overwrite. *)
    if Shadow_tree.store t.shadow ~lo ~hi ~seq:t.seq then
      report_bug t Bug.Multiple_overwrites ~addr ~size ~detail:"overwrite before durability guaranteed" ();
    local_merge t ~lo ~hi ~seq:t.seq
  end

let on_clf t ~addr ~size =
  let lo = addr and hi = addr + size in
  if Shadow_tree.tracks t.shadow ~lo ~hi then begin
    match Shadow_tree.clf t.shadow ~lo ~hi with
    | Shadow_tree.Flushed_nothing -> report_bug t Bug.Flush_nothing ~addr ~size ~detail:"CLF persists no prior store" ()
    | Shadow_tree.Redundant { addr; size } ->
        report_bug t Bug.Redundant_flush ~addr ~size ~detail:"store flushed again before the fence" ()
    | Shadow_tree.Persisted -> ()
  end

let on_fence t =
  t.fence_samples <- t.fence_samples + 1;
  t.tree_size_sum <- t.tree_size_sum + Rangetree.size (tree t);
  Shadow_tree.drop_flushed t.shadow;
  reorganize t

let on_event t ev =
  t.events <- t.events + 1;
  t.seq <- t.seq + 1;
  match ev with
  | Event.Store { addr; size; tid = _ } -> on_store t ~addr ~size
  | Event.Clf { addr; size; tid = _; kind = _ } -> on_clf t ~addr ~size
  | Event.Fence _ -> on_fence t
  | Event.Register_pmem { base; size } -> Shadow_tree.register t.shadow (Addr.of_base_size base size)
  (* Pmemcheck treats transactions as plain instruction streams and has
     no epoch/strand/ordering/logging rules. *)
  | Event.Epoch_begin _ | Event.Epoch_end _ | Event.Strand_begin _ | Event.Strand_end _ | Event.Join_strand _
  | Event.Tx_log _ | Event.Register_var _ | Event.Call _ | Event.Annotation _ ->
      ()
  | Event.Program_end ->
      Shadow_tree.iter_unpersisted t.shadow (fun ~addr ~size ~detail ->
          report_bug t Bug.No_durability ~addr ~size ~detail ())

let avg_tree_nodes_per_fence t =
  if t.fence_samples = 0 then 0.0 else float_of_int t.tree_size_sum /. float_of_int t.fence_samples

let reorganizations t = (Rangetree.stats (tree t)).Rangetree.reorganizations

let sink t =
  Sink.make ~name:"pmemcheck"
    ~on_event:(fun ev -> on_event t ev)
    ~finish:(fun () ->
      {
        Bug.detector = "pmemcheck";
        bugs = Bug.Ledger.findings t.ledger;
        events_processed = t.events;
        stats =
          [
            ("avg_tree_nodes_per_fence", avg_tree_nodes_per_fence t);
            ("reorganizations", float_of_int (reorganizations t));
            ("tree_max_size", float_of_int (Rangetree.stats (tree t)).Rangetree.max_size);
          ];
        failure = None;
      })
