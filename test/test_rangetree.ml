open Pmem

let test_insert_find () =
  let t = Rangetree.create () in
  Rangetree.insert t ~lo:10 ~hi:20 "a";
  Rangetree.insert t ~lo:30 ~hi:40 "b";
  Rangetree.insert t ~lo:5 ~hi:8 "c";
  Alcotest.(check int) "size" 3 (Rangetree.size t);
  (match Rangetree.overlapping t ~lo:15 ~hi:16 with
  | [ (_, v) ] -> Alcotest.(check string) "find a" "a" v
  | _ -> Alcotest.fail "expected one overlap");
  Alcotest.(check bool) "no overlap in gap" false (Rangetree.exists_overlap t ~lo:20 ~hi:30);
  Rangetree.check_invariants t

let test_empty_range_ignored () =
  let t = Rangetree.create () in
  Rangetree.insert t ~lo:5 ~hi:5 "x";
  Alcotest.(check int) "empty insert ignored" 0 (Rangetree.size t)

let test_overlapping_query () =
  let t = Rangetree.create () in
  for i = 0 to 9 do
    Rangetree.insert t ~lo:(i * 10) ~hi:((i * 10) + 5) i
  done;
  let hits = Rangetree.overlapping t ~lo:12 ~hi:33 in
  Alcotest.(check (list int)) "hits in order" [ 1; 2; 3 ] (List.map snd hits);
  Rangetree.check_invariants t

let test_remove_exact_and_first () =
  let t = Rangetree.create () in
  let p1 = ref 1 and p2 = ref 2 in
  Rangetree.insert t ~lo:0 ~hi:10 p1;
  Rangetree.insert t ~lo:0 ~hi:10 p2;
  Alcotest.(check bool) "remove_first by identity" true (Rangetree.remove_first t ~lo:0 ~hi:10 (fun x -> x == p2));
  Alcotest.(check int) "one left" 1 (Rangetree.size t);
  (match Rangetree.overlapping t ~lo:0 ~hi:10 with
  | [ (_, v) ] -> Alcotest.(check int) "survivor is p1" 1 !v
  | _ -> Alcotest.fail "expected one survivor");
  Alcotest.(check bool) "remove_first, any payload" true (Rangetree.remove_first t ~lo:0 ~hi:10 (fun _ -> true));
  Alcotest.(check bool) "now empty" true (Rangetree.is_empty t);
  Rangetree.check_invariants t

let test_filter_in_place () =
  let t = Rangetree.create () in
  for i = 0 to 99 do
    Rangetree.insert t ~lo:(i * 4) ~hi:((i * 4) + 2) i
  done;
  let removed = Rangetree.filter_in_place t (fun _ v -> v land 1 = 0) in
  Alcotest.(check int) "removed odds" 50 removed;
  Rangetree.iter t (fun ~lo:_ ~hi:_ v -> Alcotest.(check bool) "only evens" true (v land 1 = 0));
  Rangetree.check_invariants t

let test_reorganize_merges () =
  let t = Rangetree.create () in
  Rangetree.insert t ~lo:0 ~hi:8 true;
  Rangetree.insert t ~lo:8 ~hi:16 true;
  Rangetree.insert t ~lo:16 ~hi:24 false;
  Rangetree.reorganize t ~eq:( = ) ~merge:(fun a _ -> a);
  Alcotest.(check int) "adjacent equal merged" 2 (Rangetree.size t);
  Alcotest.(check int) "merge counted" 1 (Rangetree.stats t).Rangetree.merges;
  Rangetree.check_invariants t

let test_height_logarithmic () =
  let t = Rangetree.create () in
  for i = 0 to 1023 do
    Rangetree.insert t ~lo:i ~hi:(i + 1) ()
  done;
  Rangetree.check_invariants t;
  Alcotest.(check bool) "height <= 1.44 log2 n" true (Rangetree.height t <= 15)

(* Differential property against a list model: inserts, splits via
   map_overlapping, filtering and merging all preserve the same
   multiset of ranges. *)
let ops_gen =
  QCheck.Gen.(list_size (int_range 10 60) (pair (int_range 0 4) (pair (int_range 0 150) (int_range 1 50))))

let arbitrary_ops = QCheck.make ops_gen

let prop_differential =
  QCheck.Test.make ~name:"differential vs list model" ~count:300 arbitrary_ops (fun ops ->
      let t = Rangetree.create () in
      let model = ref [] in
      let next = ref 0 in
      List.iter
        (fun (op, (lo, len)) ->
          let hi = lo + len in
          match op with
          | 0 | 1 ->
              incr next;
              let p = ref !next in
              Rangetree.insert t ~lo ~hi p;
              model := (lo, hi, p) :: !model
          | 2 ->
              let flush = Addr.range ~lo ~hi in
              ignore
                (Rangetree.map_overlapping t ~lo ~hi ~f:(fun r p ->
                     match Addr.inter r flush with
                     | None -> [ (r, p) ]
                     | Some c -> List.map (fun piece -> (piece, p)) (c :: Addr.diff r c)));
              model :=
                List.concat_map
                  (fun (l, h, p) ->
                    let r = Addr.range ~lo:l ~hi:h in
                    match Addr.inter r flush with
                    | None -> [ (l, h, p) ]
                    | Some c ->
                        List.map
                          (fun (piece : Addr.range) -> (piece.Addr.lo, piece.Addr.hi, p))
                          (c :: Addr.diff r c))
                  !model
          | 3 ->
              ignore (Rangetree.filter_in_place t (fun _ p -> !p land 1 = 1));
              model := List.filter (fun (_, _, p) -> !p land 1 = 1) !model
          | _ ->
              (match !model with
              | (l, h, p) :: _ -> ignore (Rangetree.remove_first t ~lo:l ~hi:h (fun x -> x == p))
              | [] -> ());
              model := (match !model with _ :: rest -> rest | [] -> []))
        ops;
      Rangetree.check_invariants t;
      let norm l = List.sort compare l in
      let tree_list =
        List.map (fun ((r : Addr.range), p) -> (r.Addr.lo, r.Addr.hi, !p)) (Rangetree.to_list t)
      in
      norm tree_list = norm (List.map (fun (l, h, p) -> (l, h, !p)) !model))

let prop_invariants_random =
  QCheck.Test.make ~name:"AVL invariants after random inserts/deletes" ~count:200
    QCheck.(small_list (pair (int_range 0 100) (int_range 1 20)))
    (fun pairs ->
      let t = Rangetree.create () in
      List.iter (fun (lo, len) -> Rangetree.insert t ~lo ~hi:(lo + len) (lo * len)) pairs;
      List.iteri
        (fun i (lo, len) -> if i land 1 = 0 then ignore (Rangetree.remove_first t ~lo ~hi:(lo + len) (fun _ -> true)))
        pairs;
      Rangetree.check_invariants t;
      true)

(* The bounding box as [min_lo]/[max_hi] report it, [None] when empty. *)
let bounds t =
  if Rangetree.is_empty t then begin
    Alcotest.(check (pair int int)) "empty box" (max_int, min_int) (Rangetree.min_lo t, Rangetree.max_hi t);
    None
  end
  else Some (Rangetree.min_lo t, Rangetree.max_hi t)

let remove_any t ~lo ~hi = Rangetree.remove_first t ~lo ~hi (fun _ -> true)

let test_bounds () =
  let t = Rangetree.create () in
  Alcotest.(check (option (pair int int))) "empty tree has no bounds" None (bounds t);
  Rangetree.insert t ~lo:100 ~hi:120 0;
  Alcotest.(check (option (pair int int))) "single interval" (Some (100, 120)) (bounds t);
  Rangetree.insert t ~lo:40 ~hi:48 1;
  Rangetree.insert t ~lo:300 ~hi:364 2;
  Alcotest.(check (option (pair int int))) "spans all intervals" (Some (40, 364)) (bounds t);
  ignore (remove_any t ~lo:300 ~hi:364);
  (match bounds t with
  | Some (lo, hi) ->
      (* The hi bound comes from the root's max_hi augmentation, so it is
         conservative: it may overshoot after a removal but must still
         cover every live interval. *)
      Alcotest.(check int) "lo exact after removal" 40 lo;
      Alcotest.(check bool) "hi covers live intervals" true (hi >= 120)
  | None -> Alcotest.fail "bounds must exist while intervals remain");
  ignore (remove_any t ~lo:40 ~hi:48);
  ignore (remove_any t ~lo:100 ~hi:120);
  Alcotest.(check (option (pair int int))) "empty again" None (bounds t)

let prop_bounds_cover =
  QCheck.Test.make ~name:"bounds cover every live interval" ~count:300
    QCheck.(small_list (pair (int_range 0 500) (int_range 1 40)))
    (fun pairs ->
      let t = Rangetree.create () in
      List.iter (fun (lo, len) -> Rangetree.insert t ~lo ~hi:(lo + len) 0) pairs;
      List.iteri (fun i (lo, len) -> if i land 1 = 0 then ignore (remove_any t ~lo ~hi:(lo + len))) pairs;
      match bounds t with
      | None -> Rangetree.to_list t = []
      | Some (lo, hi) ->
          List.for_all (fun ((r : Addr.range), _) -> r.Addr.lo >= lo && r.Addr.hi <= hi) (Rangetree.to_list t))

(* The allocation-free probes agree with the list-building ones: the
   snapshot with [overlapping], [exists_overlap] with a non-empty
   [overlapping], and the snapshot survives the removals and
   inserts a caller makes while walking it. *)
let prop_snapshot_matches_overlapping =
  QCheck.Test.make ~name:"collect_overlapping = overlapping; exists_overlap = (overlapping <> [])" ~count:300
    QCheck.(pair (small_list (pair (int_range 0 300) (int_range 1 40))) (small_list (pair (int_range 0 340) (int_range 0 40))))
    (fun (nodes, probes) ->
      let t = Rangetree.create () in
      List.iteri (fun i (lo, len) -> Rangetree.insert t ~lo ~hi:(lo + len) (ref i)) nodes;
      List.for_all
        (fun (lo, len) ->
          let hi = lo + len in
          let expected = List.map (fun ((r : Addr.range), d) -> (r.Addr.lo, r.Addr.hi, d)) (Rangetree.overlapping t ~lo ~hi) in
          let k = Rangetree.collect_overlapping t ~lo ~hi in
          let hits = List.init k (fun i -> (Rangetree.hit_lo t i, Rangetree.hit_hi t i, Rangetree.hit_data t i)) in
          (* Restructure while walking: drop each hit, re-insert a copy. *)
          let walked =
            List.init k (fun i ->
                let lo = Rangetree.hit_lo t i and hi = Rangetree.hit_hi t i and d = Rangetree.hit_data t i in
                let removed = Rangetree.remove t ~lo ~hi d in
                Rangetree.insert t ~lo ~hi d;
                removed && (lo, hi, d) = List.nth hits i)
          in
          Rangetree.check_invariants t;
          List.length hits = List.length expected
          && List.for_all2 (fun (l, h, d) (l', h', d') -> l = l' && h = h' && d == d') hits expected
          && List.for_all Fun.id walked
          && Rangetree.exists_overlap t ~lo ~hi = (Rangetree.overlapping t ~lo ~hi <> []))
        probes)

let suite =
  [
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "empty range ignored" `Quick test_empty_range_ignored;
    Alcotest.test_case "overlapping query" `Quick test_overlapping_query;
    Alcotest.test_case "remove exact/first" `Quick test_remove_exact_and_first;
    Alcotest.test_case "filter in place" `Quick test_filter_in_place;
    Alcotest.test_case "reorganize merges adjacents" `Quick test_reorganize_merges;
    Alcotest.test_case "height stays logarithmic" `Quick test_height_logarithmic;
    Alcotest.test_case "bounds" `Quick test_bounds;
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_invariants_random;
    QCheck_alcotest.to_alcotest prop_bounds_cover;
    QCheck_alcotest.to_alcotest prop_snapshot_matches_overlapping;
  ]
