open Pmdebugger

(* These tests leave CLFs and fences unstamped unless they pass [~seq]. *)
module Space = struct
  include Space

  let process_clf ?(seq = -1) t ~lo ~hi = process_clf t ~seq ~lo ~hi

  let process_fence ?(seq = -1) t = process_fence t ~seq
end

let mk ?mode ?interval_metadata ?array_capacity ?merge_threshold () =
  Space.create ?mode ?interval_metadata ?array_capacity ?merge_threshold ()

let store ?(epoch = false) ?(seq = 0) sp ~addr ~size =
  Flat_oracle.space_store sp ~addr ~size ~epoch ~seq ~tid:0 ~strand:(-1)

let pending sp =
  let acc = ref [] in
  Space.iter_pending sp (fun ~addr ~size ~flushed ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ ->
      acc := (addr, size, flushed) :: !acc);
  List.sort compare !acc

let test_store_then_flush_then_fence () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  Alcotest.(check (list (triple int int bool))) "tracked unflushed" [ (100, 8, false) ] (pending sp);
  let r = Space.process_clf sp ~lo:64 ~hi:128 in
  Alcotest.(check int) "matched" 1 r.Space.matched;
  Alcotest.(check int) "newly flushed" 1 r.Space.newly_flushed;
  Alcotest.(check (list (triple int int bool))) "tracked flushed" [ (100, 8, true) ] (pending sp);
  Space.process_fence sp;
  Alcotest.(check int) "drained" 0 (Space.pending_count sp)

let test_fence_migrates_unflushed_to_tree () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  ignore (store sp ~addr:500 ~size:8);
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  Space.process_fence sp;
  Alcotest.(check int) "one survivor" 1 (Space.pending_count sp);
  Alcotest.(check int) "survivor lives in the tree" 1 (Space.tree_size sp);
  Alcotest.(check (list (triple int int bool))) "survivor state" [ (500, 8, false) ] (pending sp)

let test_collective_interval_metadata () =
  let sp = mk () in
  (* Several stores to one line form one CLF interval persisted by one
     writeback (Pattern 2). *)
  for i = 0 to 5 do
    ignore (store sp ~addr:(256 + (i * 8)) ~size:8)
  done;
  let r = Space.process_clf sp ~lo:256 ~hi:320 in
  Alcotest.(check int) "collectively flushed" 6 r.Space.newly_flushed;
  Space.process_fence sp;
  Alcotest.(check int) "all dropped collectively" 0 (Space.pending_count sp);
  Alcotest.(check int) "tree untouched" 0 (Space.tree_size sp)

let test_partial_flush_splits () =
  let sp = mk () in
  (* A 100-byte store flushed one line at a time: the uncovered tail
     moves to the tree as an unflushed remainder. *)
  ignore (store sp ~addr:64 ~size:100);
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  let tracked = pending sp in
  Alcotest.(check (list (triple int int bool))) "split into covered+rest" [ (64, 64, true); (128, 36, false) ] tracked;
  ignore (Space.process_clf sp ~lo:128 ~hi:192);
  Space.process_fence sp;
  Alcotest.(check int) "both halves drained" 0 (Space.pending_count sp)

let test_overwrite_detection_and_unflush () =
  let sp = mk () in
  Alcotest.(check bool) "fresh store has no overlap" false (store sp ~addr:100 ~size:8).Flat_oracle.overlapped;
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  let r = store sp ~addr:100 ~size:8 in
  Alcotest.(check bool) "overwrite detected" true r.Flat_oracle.overlapped;
  Alcotest.(check bool) "prior store seq carried" true (List.mem 0 r.Flat_oracle.prior_seqs);
  (* The flushed state must have been voided by the new store. *)
  Space.process_fence sp;
  Alcotest.(check bool) "still pending after fence" true (Space.pending_count sp > 0)

let test_redundant_flush_reported () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  let r = Space.process_clf sp ~lo:64 ~hi:128 in
  Alcotest.(check int) "nothing newly flushed" 0 r.Space.newly_flushed;
  Alcotest.(check bool) "redundant recorded" true (r.Space.redundant <> []);
  Alcotest.(check bool) "still matched" true (r.Space.matched > 0)

let test_flush_nothing_result () =
  let sp = mk () in
  let r = Space.process_clf sp ~lo:0 ~hi:64 in
  Alcotest.(check int) "no match on empty space" 0 r.Space.matched

let test_epoch_flag_tracking () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8 ~epoch:true);
  ignore (store sp ~addr:500 ~size:8 ~epoch:false);
  Alcotest.(check bool) "epoch pending seen" true (Space.exists_epoch_pending sp);
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  Space.process_fence sp;
  Alcotest.(check bool) "epoch store drained, plain survives" false (Space.exists_epoch_pending sp);
  Alcotest.(check int) "one plain survivor" 1 (Space.pending_count sp)

let test_array_overflow_spills_to_tree () =
  let sp = mk ~array_capacity:4 () in
  for i = 0 to 9 do
    ignore (store sp ~addr:(i * 64) ~size:8)
  done;
  Alcotest.(check int) "all tracked" 10 (Space.pending_count sp);
  Alcotest.(check bool) "overflow went to the tree" true (Space.tree_size sp >= 6)

let test_has_pending_overlap () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  Alcotest.(check bool) "overlap yes" true (Space.has_pending_overlap sp ~lo:104 ~hi:112);
  Alcotest.(check bool) "overlap no" false (Space.has_pending_overlap sp ~lo:200 ~hi:208)

(* Property: after any op sequence, the pending set matches a simple
   byte-level reference model. Stores use a fixed 16-byte granularity so
   that location-granular flush-state changes coincide with the byte
   model (partial-overlap splitting has its own unit tests). *)
let prop_matches_byte_model =
  QCheck.Test.make ~name:"space pending set matches byte-level model" ~count:300
    QCheck.(small_list (pair (int_range 0 2) (pair (int_range 0 40) (int_range 1 24))))
    (fun ops ->
      let sp = mk () in
      let model : (int, bool) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (op, (slot, _len)) ->
          let addr = slot * 16 in
          let len = 16 in
          match op with
          | 0 ->
              ignore (store sp ~addr ~size:len);
              for b = addr to addr + len - 1 do
                Hashtbl.replace model b false
              done
          | 1 ->
              let lo = Pmem.Addr.line_base addr in
              ignore (Space.process_clf sp ~lo ~hi:(lo + 64));
              for b = lo to lo + 63 do
                if Hashtbl.mem model b then Hashtbl.replace model b true
              done
          | _ ->
              Space.process_fence sp;
              let drained = Hashtbl.fold (fun b f acc -> if f then b :: acc else acc) model [] in
              List.iter (Hashtbl.remove model) drained)
        ops;
      (* Compare byte coverage of the pending sets. *)
      let space_bytes = Hashtbl.create 64 in
      Space.iter_pending sp (fun ~addr ~size ~flushed ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ ->
          for b = addr to addr + size - 1 do
            (* Later stores shadow earlier ones; flushed state of the
               latest tracker wins, so take OR of unflushed. *)
            let prev = try Hashtbl.find space_bytes b with Not_found -> true in
            Hashtbl.replace space_bytes b (prev && flushed)
          done);
      Hashtbl.fold (fun b f acc -> acc && Hashtbl.mem space_bytes b && Hashtbl.find space_bytes b = f) model true
      && Hashtbl.fold (fun b _ acc -> acc && Hashtbl.mem model b) space_bytes true)

let test_modes_agree_on_pending () =
  let run mode =
    let sp = mk ~mode () in
    ignore (store sp ~addr:100 ~size:8);
    ignore (store sp ~addr:500 ~size:16);
    ignore (Space.process_clf sp ~lo:64 ~hi:128);
    Space.process_fence sp;
    pending sp
  in
  let hybrid = run Space.Hybrid in
  Alcotest.(check (list (triple int int bool))) "tree-only agrees" hybrid (run Space.Tree_only)

let test_no_interval_metadata_agrees () =
  let run interval_metadata =
    let sp = mk ~interval_metadata () in
    for i = 0 to 5 do
      ignore (store sp ~addr:(256 + (i * 8)) ~size:8)
    done;
    ignore (Space.process_clf sp ~lo:256 ~hi:320);
    ignore (store sp ~addr:1000 ~size:8);
    Space.process_fence sp;
    pending sp
  in
  Alcotest.(check (list (triple int int bool))) "metadata off agrees" (run true) (run false)

(* Differential property: the two bookkeeping modes and the
   metadata-off variant produce identical pending sets on random op
   sequences — the ablation knobs change cost, never verdicts. *)
let prop_modes_equivalent =
  QCheck.Test.make ~name:"bookkeeping modes are observationally equal" ~count:200
    QCheck.(small_list (pair (int_range 0 2) (int_range 0 30)))
    (fun ops ->
      let run_mode mode interval_metadata =
        let sp = mk ~mode ~interval_metadata () in
        List.iter
          (fun (op, slot) ->
            let addr = slot * 24 in
            match op with
            | 0 -> ignore (store sp ~addr ~size:16)
            | 1 ->
                let lo = Pmem.Addr.line_base addr in
                ignore (Space.process_clf sp ~lo ~hi:(lo + 64))
            | _ -> Space.process_fence sp)
          ops;
        pending sp
      in
      let reference = run_mode Space.Hybrid true in
      run_mode Space.Tree_only true = reference
      && run_mode Space.Hybrid false = reference)

(* Per-op differential: not just the final pending sets — every
   intermediate observation (store-overlap verdict, CLF matched /
   newly-flushed / redundant counts) must agree across modes, because
   the detection rules fire on these. Stores are fixed-size and aligned
   so every CLF and every supersede is a full cover; partial covers of
   flushed data are intentionally asymmetric between array and tree
   (the array unflushes the whole slot, the tree keeps uncovered
   pieces flushed) and have their own unit tests. *)
let prop_modes_observations_equivalent =
  QCheck.Test.make ~name:"per-op observations agree across modes" ~count:300
    QCheck.(small_list (pair (int_range 0 2) (int_range 0 30)))
    (fun ops ->
      let sps = List.map (fun mode -> mk ~mode ()) [ Space.Hybrid; Space.Tree_only ] in
      let agree obs = List.for_all (fun o -> o = List.hd obs) obs in
      List.for_all
        (fun (op, slot) ->
          let addr = slot * 16 in
          match op with
          (* Overlap verdicts agree across modes; prior-seq lists are
             deliberately excluded — tree merges coarsen them (a merged
             node keeps only its newest store's seq). *)
          | 0 -> agree (List.map (fun sp -> (store sp ~addr ~size:16).Flat_oracle.overlapped) sps)
          | 1 ->
              let lo = Pmem.Addr.line_base addr in
              agree
                (List.map
                   (fun sp ->
                     let r = Space.process_clf sp ~lo ~hi:(lo + 64) in
                     (r.Space.matched, r.Space.newly_flushed, List.sort compare r.Space.redundant))
                   sps)
          | _ ->
              List.iter Space.process_fence sps;
              true)
        ops
      && agree (List.map pending sps))

(* ------------------------------------------------------------------ *)
(* Bookkeeping state-reset and accounting regressions.                 *)
(* ------------------------------------------------------------------ *)

let stat sp key = List.assoc key (Space.stats sp)

(* [clear] must forget the fence interval's flush registrations: stale
   entries replay pre-clear bookkeeping into the next fence and keep
   dead payloads alive. *)
let test_clear_resets_flush_registrations () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  Space.process_fence sp (* unflushed survivor migrates to the tree *);
  ignore (Space.process_clf sp ~lo:64 ~hi:128) (* tree node flushed: registered for the next fence *);
  Alcotest.(check (float 0.0)) "registration recorded" 1.0 (stat sp "tree_flushed_nodes");
  Space.clear sp;
  Alcotest.(check (float 0.0)) "clear drops flush registrations" 0.0 (stat sp "tree_flushed_nodes")

(* [clear] must also reset the reorganization threshold baseline: a
   stale last-reorg size suppresses merging until the (now empty) tree
   regrows past the pre-clear high-water mark. *)
let test_clear_resets_reorg_threshold () =
  let sp = mk ~mode:Space.Tree_only ~merge_threshold:10 () in
  for i = 0 to 99 do
    ignore (store sp ~addr:(i * 64) ~size:8)
  done;
  Space.process_fence sp;
  let before = Space.reorganizations sp in
  Alcotest.(check bool) "baseline reorg ran" true (before > 0);
  Space.clear sp;
  for i = 0 to 11 do
    ignore (store sp ~addr:(i * 64) ~size:8)
  done;
  Space.process_fence sp;
  Alcotest.(check bool) "fresh growth past the threshold reorganizes again" true (Space.reorganizations sp > before)

(* The collective-CLF branch must not count slots a superseding store
   already invalidated. *)
let test_collective_clf_counts_valid_slots_only () =
  let sp = mk () in
  ignore (store sp ~addr:128 ~size:8);
  ignore (store sp ~addr:128 ~size:8) (* fully covers: first slot is invalidated *);
  let r = Space.process_clf sp ~lo:64 ~hi:192 in
  Alcotest.(check int) "matched counts live slots only" 1 r.Space.matched;
  Alcotest.(check int) "newly flushed counts live slots only" 1 r.Space.newly_flushed

(* A store that fully covers a flushed tree node removes the node; its
   flush registration must go with it, or the registration list grows
   with every store/flush pair on a hot address within one fence
   interval. *)
let test_superseded_tree_registrations_purged () =
  let sp = mk ~mode:Space.Tree_only () in
  for _ = 1 to 50 do
    ignore (store sp ~addr:256 ~size:8);
    ignore (Space.process_clf sp ~lo:256 ~hi:320)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "registrations bounded (got %.0f)" (stat sp "tree_flushed_nodes"))
    true
    (stat sp "tree_flushed_nodes" <= 1.0)

(* A partial overwrite dirties a collectively flushed slot again; the
   pending walk must then report it unflushed with no CLF seq, not the
   interval's stale collective one. *)
let test_unflushed_slot_reports_no_clf_seq () =
  let sp = mk () in
  ignore (store sp ~seq:1 ~addr:0 ~size:16);
  ignore (Space.process_clf ~seq:2 sp ~lo:0 ~hi:64);
  ignore (store sp ~seq:3 ~addr:0 ~size:8);
  let acc = ref [] in
  Space.iter_pending sp (fun ~addr ~size ~flushed ~epoch:_ ~seq ~clf_seq ~fence_seq:_ ->
      acc := (addr, size, flushed, seq, clf_seq) :: !acc);
  Alcotest.(check (list (pair (triple int int bool) (pair int int))))
    "both entries unflushed, clf_seq -1"
    [ ((0, 8, false), (3, -1)); ((0, 16, false), (1, -1)) ]
    (List.sort compare (List.map (fun (a, s, f, q, c) -> ((a, s, f), (q, c))) !acc))

(* ------------------------------------------------------------------ *)
(* On-demand slot storage.                                             *)
(* ------------------------------------------------------------------ *)

(* Per-op differential across the growth steps of the slot array:
   fence intervals of 1–300 stores (CLFs mixed in) drive the array
   through every doubling and the spill point, for capacities on both
   sides of the initial 64 slots, a non-power-of-two cap and the
   default (plus a metadata-off space). Every observation
   must equal the tree-only space's and the flat oracle's. Aligned
   16-byte stores make every supersede and CLF a full cover, and 256
   distinct addresses keep the tree below the merge threshold, so
   prior-seq lists stay exact. [fence_seq] is left out of the final
   comparison: spilled stores never get a fence stamp, so it depends on
   the capacity by design. *)
let prop_growth_boundary_parity =
  let interval = QCheck.(list_of_size Gen.(int_range 1 300) (pair (int_range 0 255) (int_range 0 1023))) in
  QCheck.Test.make ~name:"slot-array growth keeps hybrid = tree-only = flat" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 4) interval)
    (fun intervals ->
      let module F = Flat_oracle in
      let capacities = [ Some 1; Some 63; Some 64; Some 65; Some 100; Some 1000; None ] in
      let hybrids =
        mk ~interval_metadata:false ~array_capacity:65 ()
        :: List.map (fun array_capacity -> mk ?array_capacity ()) capacities
      in
      let tree = mk ~mode:Space.Tree_only () in
      let flat = Flat_oracle.create () in
      let seq = ref 0 in
      let next () =
        incr seq;
        !seq
      in
      let agree reference others = List.for_all (fun o -> o = reference) others in
      let canon_clf (r : Space.clf_result) =
        (r.Space.matched, r.Space.newly_flushed, List.sort compare r.Space.redundant, List.sort compare r.Space.redundant_prov)
      in
      let store_all addr =
        let seq = next () in
        let st sp = F.space_store sp ~addr ~size:16 ~epoch:false ~seq ~tid:0 ~strand:(-1) in
        let reference = st tree in
        agree reference (F.process_store flat ~addr ~size:16 ~epoch:false ~seq ~tid:0 ~strand:(-1) () :: List.map st hybrids)
      in
      let clf_all lo =
        let seq = next () in
        let reference = canon_clf (Space.process_clf ~seq tree ~lo ~hi:(lo + 64)) in
        agree reference
          (canon_clf (F.process_clf ~seq flat ~lo ~hi:(lo + 64))
          :: List.map (fun sp -> canon_clf (Space.process_clf ~seq sp ~lo ~hi:(lo + 64))) hybrids)
      in
      let run_interval ops =
        List.for_all
          (fun (slot, clf) ->
            let stored = store_all (slot * 16) in
            (* A quarter of the stores are followed by a CLF of some line. *)
            stored && (clf >= 256 || clf_all (Pmem.Addr.line_base (clf * 16))))
          ops
      in
      let rec go = function
        | [] -> true
        | [ last ] -> run_interval last
        | ops :: rest ->
            run_interval ops
            && begin
                 let seq = next () in
                 Space.process_fence ~seq tree;
                 F.process_fence ~seq flat;
                 List.iter (Space.process_fence ~seq) hybrids;
                 go rest
               end
      in
      let observe iter =
        let acc = ref [] in
        iter (fun ~addr ~size ~flushed ~epoch ~seq ~clf_seq ~fence_seq:_ ->
            acc := (addr, size, flushed, epoch, seq, clf_seq) :: !acc);
        List.sort compare !acc
      in
      go intervals
      &&
      let reference = observe (Space.iter_pending tree) in
      agree reference (observe (F.iter_pending flat) :: List.map (fun sp -> observe (Space.iter_pending sp)) hybrids))

(* A cap that is not a power of two: the array doubles 64 -> 100 (not
   128), holds exactly 100 live slots, and store 101 spills. *)
let test_growth_caps_at_capacity () =
  let sp = mk ~array_capacity:100 () in
  Alcotest.(check (float 0.0)) "starts at 64 slots" 64.0 (stat sp "array_slots");
  for i = 0 to 63 do
    ignore (store sp ~addr:(i * 64) ~size:8)
  done;
  Alcotest.(check (float 0.0)) "64 stores fit without growth" 64.0 (stat sp "array_slots");
  ignore (store sp ~addr:(64 * 64) ~size:8);
  Alcotest.(check (float 0.0)) "store 65 grows to the cap" 100.0 (stat sp "array_slots");
  for i = 65 to 99 do
    ignore (store sp ~addr:(i * 64) ~size:8)
  done;
  Alcotest.(check int) "100 live slots" 100 (Space.array_live sp);
  Alcotest.(check int) "nothing spilled yet" 0 (Space.tree_size sp);
  ignore (store sp ~addr:(100 * 64) ~size:8);
  Alcotest.(check int) "store 101 spills to the tree" 1 (Space.tree_size sp);
  Alcotest.(check int) "array stays full" 100 (Space.array_live sp);
  Alcotest.(check (float 0.0)) "no growth past the cap" 100.0 (stat sp "array_slots");
  Space.process_fence sp;
  Alcotest.(check (float 0.0)) "slots are kept across fences" 100.0 (stat sp "array_slots")

(* Bytes allocated so far: exact minor words plus direct major
   allocations ([Gc.allocated_bytes] lags the minor heap on OCaml 5). *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)

(* A strand-model detector opens one space per strand section, and a
   full 100,000-slot array is ~9 MB, so each space must allocate only
   what its stores need. Allocation is counted in bytes, not timed, so
   the bound is deterministic. *)
let test_strand_spaces_allocate_little () =
  let open Pmtrace in
  let events =
    List.concat_map
      (fun strand ->
        [
          Event.Strand_begin { tid = 0; strand };
          Event.Store { addr = strand * 64; size = 8; tid = 0 };
          Event.Strand_end { tid = 0; strand };
        ])
      (List.init 16 Fun.id)
  in
  let before = allocated_bytes () in
  let d = Detector.create ~model:Detector.Strand () in
  List.iter (Detector.sink d).Sink.on_event events;
  let allocated = allocated_bytes () -. before in
  Alcotest.(check (float 0.0)) "one space per strand section plus the default" 17.0
    (List.assoc "spaces" (Detector.report d).Bug.stats);
  Alcotest.(check bool) (Printf.sprintf "allocated %.0f bytes < 256 KiB" allocated) true (allocated < 256.0 *. 1024.0)

(* The count of epoch tree nodes behind [exists_epoch_pending] stays
   equal to a walk through every way the tree changes: spills (array
   capacity 2), partial overwrites and CLFs that split nodes, fences,
   merges past a threshold of 4, and [clear]; and the answer equals
   the pending set's. *)
let prop_epoch_count_is_a_walk =
  QCheck.Test.make ~name:"epoch tree-node count equals a walk" ~count:300
    QCheck.(small_list (triple (int_range 0 4) (int_range 0 40) bool))
    (fun ops ->
      let sp = mk ~array_capacity:2 ~merge_threshold:4 () in
      List.for_all
        (fun (op, slot, epoch) ->
          let addr = slot * 8 in
          (match op with
          | 0 | 1 -> ignore (store sp ~epoch ~addr ~size:(if op = 0 then 8 else 20))
          | 2 -> ignore (Space.process_clf sp ~lo:(addr + 4) ~hi:(addr + 36))
          | 3 -> Space.process_fence sp
          | _ ->
              let lo = Pmem.Addr.line_base addr in
              if slot = 0 then Space.clear sp else ignore (Space.process_clf sp ~lo ~hi:(lo + 64)));
          Space.check_invariants sp;
          let walked = ref false in
          Space.iter_pending sp (fun ~addr:_ ~size:_ ~flushed:_ ~epoch ~seq:_ ~clf_seq:_ ~fence_seq:_ ->
              if epoch then walked := true);
          Space.exists_epoch_pending sp = !walked)
        ops)

let suite =
  [
    Alcotest.test_case "store/flush/fence lifecycle" `Quick test_store_then_flush_then_fence;
    Alcotest.test_case "fence migrates unflushed to tree" `Quick test_fence_migrates_unflushed_to_tree;
    Alcotest.test_case "collective interval metadata" `Quick test_collective_interval_metadata;
    Alcotest.test_case "partial flush splits" `Quick test_partial_flush_splits;
    Alcotest.test_case "overwrite detection + unflush" `Quick test_overwrite_detection_and_unflush;
    Alcotest.test_case "redundant flush observation" `Quick test_redundant_flush_reported;
    Alcotest.test_case "flush nothing observation" `Quick test_flush_nothing_result;
    Alcotest.test_case "epoch flag tracking" `Quick test_epoch_flag_tracking;
    Alcotest.test_case "array overflow spills" `Quick test_array_overflow_spills_to_tree;
    Alcotest.test_case "has_pending_overlap" `Quick test_has_pending_overlap;
    Alcotest.test_case "modes agree" `Quick test_modes_agree_on_pending;
    Alcotest.test_case "interval metadata off agrees" `Quick test_no_interval_metadata_agrees;
    Alcotest.test_case "clear resets flush registrations" `Quick test_clear_resets_flush_registrations;
    Alcotest.test_case "clear resets reorg threshold baseline" `Quick test_clear_resets_reorg_threshold;
    Alcotest.test_case "collective CLF skips invalidated slots" `Quick test_collective_clf_counts_valid_slots_only;
    Alcotest.test_case "superseded tree registrations purged" `Quick test_superseded_tree_registrations_purged;
    Alcotest.test_case "unflushed slot reports no CLF seq" `Quick test_unflushed_slot_reports_no_clf_seq;
    QCheck_alcotest.to_alcotest prop_matches_byte_model;
    QCheck_alcotest.to_alcotest prop_modes_equivalent;
    QCheck_alcotest.to_alcotest prop_modes_observations_equivalent;
    Alcotest.test_case "slot array grows to a non-power-of-two cap" `Quick test_growth_caps_at_capacity;
    Alcotest.test_case "strand spaces allocate little" `Quick test_strand_spaces_allocate_little;
    QCheck_alcotest.to_alcotest prop_growth_boundary_parity;
    QCheck_alcotest.to_alcotest prop_epoch_count_is_a_walk;
  ]
