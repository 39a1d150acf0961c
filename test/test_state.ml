open Pmem

let store8 st addr v = State.store_i64 st ~addr v

let test_store_dirty () =
  let st = State.create () in
  store8 st 100 1L;
  Alcotest.(check bool) "line dirty after store" true (State.line_state st 1 = State.Dirty);
  Alcotest.(check bool) "durable image unchanged" true (Image.get_i64 (State.durable st) 100 = 0L);
  Alcotest.(check bool) "volatile image updated" true (Image.get_i64 (State.volatile st) 100 = 1L)

let test_clf_pending_then_fence () =
  let st = State.create () in
  store8 st 100 1L;
  State.clf st ~addr:100;
  Alcotest.(check bool) "pending after clf" true (State.line_state st 1 = State.Writeback_pending);
  Alcotest.(check bool) "not yet durable" true (Image.get_i64 (State.durable st) 100 = 0L);
  State.fence st;
  Alcotest.(check bool) "clean after fence" true (State.line_state st 1 = State.Clean);
  Alcotest.(check int64) "durable after fence" 1L (Image.get_i64 (State.durable st) 100)

let test_store_voids_pending () =
  let st = State.create () in
  store8 st 100 1L;
  State.clf st ~addr:100;
  store8 st 104 2L;
  Alcotest.(check bool) "re-store re-dirties the line" true (State.line_state st 1 = State.Dirty);
  State.fence st;
  (* The fence drains nothing: the writeback was voided. *)
  Alcotest.(check int64) "not durable without second clf" 0L (Image.get_i64 (State.durable st) 100)

let test_fence_without_clf () =
  let st = State.create () in
  store8 st 100 1L;
  State.fence st;
  Alcotest.(check bool) "dirty survives fence" true (State.line_state st 1 = State.Dirty);
  Alcotest.(check int64) "nothing durable" 0L (Image.get_i64 (State.durable st) 100)

let test_is_durable_range () =
  let st = State.create () in
  State.store st ~addr:60 (Bytes.make 10 'x');
  State.clf st ~addr:60;
  State.fence st;
  Alcotest.(check bool) "first line durable only" false (State.is_durable_range st ~lo:60 ~hi:70);
  State.clf st ~addr:64;
  State.fence st;
  Alcotest.(check bool) "both lines durable" true (State.is_durable_range st ~lo:60 ~hi:70)

let test_crash_images_exhaustive () =
  let st = State.create () in
  store8 st 0 1L;
  store8 st 64 2L;
  State.clf st ~addr:64;
  (* 2 undrained lines: 4 possible crash images. *)
  let images = State.crash_images st () in
  Alcotest.(check int) "four images" 4 (List.length images);
  let outcomes = List.map (fun img -> (Image.get_i64 img 0, Image.get_i64 img 64)) images in
  List.iter
    (fun o -> Alcotest.(check bool) "outcome possible" true (List.mem o outcomes))
    [ (0L, 0L); (1L, 0L); (0L, 2L); (1L, 2L) ]

let test_crash_images_after_drain () =
  let st = State.create () in
  store8 st 0 1L;
  State.clf st ~addr:0;
  State.fence st;
  let images = State.crash_images st () in
  Alcotest.(check int) "one deterministic image" 1 (List.length images);
  Alcotest.(check int64) "durable value present" 1L (Image.get_i64 (List.hd images) 0)

(* Property: every crash image agrees with the durable image on clean
   lines and with either durable or volatile contents elsewhere. *)
let prop_crash_image_bounds =
  QCheck.Test.make ~name:"crash images bounded by durable and volatile" ~count:100
    QCheck.(small_list (pair (int_range 0 63) (int_range 0 2)))
    (fun ops ->
      let st = State.create () in
      List.iter
        (fun (slot, op) ->
          let addr = slot * 16 in
          match op with
          | 0 -> State.store_i64 st ~addr (Int64.of_int (addr + 1))
          | 1 -> State.clf st ~addr
          | _ -> State.fence st)
        ops;
      let vol = State.volatile st and dur = State.durable st in
      List.for_all
        (fun img ->
          let ok = ref true in
          for line = 0 to 16 do
            let lo = line * 64 and hi = (line + 1) * 64 in
            let matches_dur = Image.equal_range img dur ~lo ~hi in
            let matches_vol = Image.equal_range img vol ~lo ~hi in
            if not (matches_dur || matches_vol) then ok := false
          done;
          !ok)
        (State.crash_images st ~max_images:32 ()))

(* The one image check sees exactly the images [crash_images] lists, in
   the same order and under the same hard cap, even when the predicate
   writes to each image it is handed — across a page edge and far past
   the durable extent — or raises part-way. Every image is derived in
   place on the durable image, so after each check, raising or not,
   the durable image must read as it did before. *)
let prop_check_matches_images =
  QCheck.Test.make ~name:"image check sees the listed images" ~count:100
    QCheck.(
      triple (small_list (pair (int_range 0 63) (int_range 0 2))) (int_range 1 40) (option (int_range 0 40)))
    (fun (ops, max_images, raise_at) ->
      let st = State.create () in
      List.iter
        (fun (slot, op) ->
          let addr = slot * 16 in
          match op with
          | 0 -> State.store_i64 st ~addr (Int64.of_int (addr + 1))
          | 1 -> State.clf st ~addr
          | _ -> State.fence st)
        ops;
      let far = 1 lsl 24 in
      let unchanged =
        let before = Image.copy (State.durable st) in
        fun () ->
          Image.equal_range before (State.durable st) ~lo:0 ~hi:8192
          && Image.equal_range before (State.durable st) ~lo:far ~hi:(far + 16)
      in
      let key img = String.concat "," (List.init 64 (fun slot -> Int64.to_string (Image.get_i64 img (slot * 16)))) in
      let listed = State.crash_images st ~max_images () in
      let seen = ref [] in
      let recovery img =
        if raise_at = Some (List.length !seen) then raise Exit;
        seen := key img :: !seen;
        Image.set_i64 img 0 (-1L);
        Image.set_i64 img 4092 (-1L);
        Image.set_i64 img (far + 3) (-1L);
        Image.get_i64 img 16 = 0L
      in
      let n = List.length listed in
      let outcome = try Ok (State.check_crash_images st ~max_images ~recovery) with Exit -> Error () in
      let prefix k l = List.filteri (fun i _ -> i < k) l in
      unchanged ()
      && n <= max_images
      &&
      match (outcome, raise_at) with
      | Error (), Some k -> k < n && List.rev !seen = prefix k (List.map key listed)
      | Error (), None -> false
      | Ok (failing, checked), _ ->
          (match raise_at with Some k -> k >= n | None -> true)
          && checked = n
          && failing = List.length (List.filter (fun img -> Image.get_i64 img 16 <> 0L) listed)
          && List.rev !seen = List.map key listed)

let test_nested_check_raises () =
  let st = State.create () in
  State.store_i64 st ~addr:0 1L;
  let inner () = ignore (State.check_crash_images st ~max_images:4 ~recovery:(fun _ -> true)) in
  Alcotest.check_raises "nested derivation on one state"
    (Invalid_argument "Pmem.Image.open_journal: a journal is already open") (fun () ->
      ignore (State.check_crash_images st ~max_images:4 ~recovery:(fun _ -> inner (); true)));
  Alcotest.(check (pair int int)) "the state is usable afterwards" (1, 2)
    (State.check_crash_images st ~max_images:4 ~recovery:(fun img -> Image.get_i64 img 0 = 0L));
  Alcotest.(check int64) "durable image untouched" 0L (Image.get_i64 (State.durable st) 0)

let test_image_cap_is_hard () =
  (* Sampling starts at the nothing-persisted extreme; a cap of one
     stops there instead of flooring at both extremes. *)
  let st = State.create () in
  for line = 0 to 69 do
    store8 st (line * 64) 1L
  done;
  let failing, checked = State.check_crash_images st ~max_images:1 ~recovery:(fun img -> Image.get_i64 img 0 = 0L) in
  Alcotest.(check (pair int int)) "one image, the durable one" (0, 1) (failing, checked);
  Alcotest.check_raises "cap below one" (Invalid_argument "Pmem.State: max_images must be >= 1") (fun () ->
      ignore (State.check_crash_images st ~max_images:0 ~recovery:(fun _ -> true)))

let test_crash_images_dedupe_and_bound () =
  (* Way more undrained lines than the sampling budget: the result must
     respect the budget, contain no duplicates, and not overflow [lsl]
     (70 lines > 62 bits). *)
  let st = State.create () in
  for line = 0 to 69 do
    store8 st (line * 64) (Int64.of_int (line + 1))
  done;
  let images = State.crash_images st ~max_images:16 () in
  let n = List.length images in
  Alcotest.(check bool) "within budget" true (n <= 16 && n >= 2);
  let key img = String.init 70 (fun l -> if Image.get_i64 img (l * 64) = 0L then '0' else '1') in
  let keys = List.map key images in
  Alcotest.(check int) "no duplicate images" n (List.length (List.sort_uniq compare keys));
  (* The deterministic extremes are always sampled. *)
  Alcotest.(check bool) "nothing-persisted image present" true (List.mem (String.make 70 '0') keys);
  Alcotest.(check bool) "everything-persisted image present" true (List.mem (String.make 70 '1') keys)

let test_evict () =
  let st = State.create () in
  store8 st 100 7L;
  State.evict st ~line:1;
  Alcotest.(check bool) "line clean after evict" true (State.line_state st 1 = State.Clean);
  Alcotest.(check int64) "contents durable without clf/fence" 7L (Image.get_i64 (State.durable st) 100);
  (* Evicting a clean line is a no-op. *)
  State.evict st ~line:1;
  Alcotest.(check int64) "still durable" 7L (Image.get_i64 (State.durable st) 100);
  (* A pending writeback is also made durable by eviction. *)
  store8 st 200 9L;
  State.clf st ~addr:200;
  State.evict st ~line:3;
  Alcotest.(check int64) "pending line durable after evict" 9L (Image.get_i64 (State.durable st) 200)

let test_copy_independent () =
  let st = State.create () in
  store8 st 100 1L;
  State.clf st ~addr:100;
  let snap = State.copy st in
  State.fence st;
  store8 snap 200 5L;
  (* Draining the original does not touch the copy... *)
  Alcotest.(check bool) "copy keeps pending state" true (State.line_state snap 1 = State.Writeback_pending);
  Alcotest.(check int64) "copy durable unchanged" 0L (Image.get_i64 (State.durable snap) 100);
  (* ...and mutating the copy does not touch the original. *)
  Alcotest.(check int64) "original volatile unchanged" 0L (Image.get_i64 (State.volatile st) 200);
  State.fence snap;
  Alcotest.(check int64) "copy drains on its own" 1L (Image.get_i64 (State.durable snap) 100)

let suite =
  [
    Alcotest.test_case "store dirties" `Quick test_store_dirty;
    Alcotest.test_case "clf pending, fence drains" `Quick test_clf_pending_then_fence;
    Alcotest.test_case "store voids pending writeback" `Quick test_store_voids_pending;
    Alcotest.test_case "fence without clf persists nothing" `Quick test_fence_without_clf;
    Alcotest.test_case "is_durable_range per line" `Quick test_is_durable_range;
    Alcotest.test_case "crash images exhaustive" `Quick test_crash_images_exhaustive;
    Alcotest.test_case "crash image after drain" `Quick test_crash_images_after_drain;
    Alcotest.test_case "crash images dedupe under sampling" `Quick test_crash_images_dedupe_and_bound;
    Alcotest.test_case "nested image check raises" `Quick test_nested_check_raises;
    Alcotest.test_case "evict makes a line durable" `Quick test_evict;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    QCheck_alcotest.to_alcotest prop_crash_image_bounds;
    QCheck_alcotest.to_alcotest prop_check_matches_images;
    Alcotest.test_case "image cap is hard" `Quick test_image_cap_is_hard;
  ]
