open Pmem

let test_roundtrip () =
  let img = Image.create () in
  Image.set_i64 img 100 0x1122334455667788L;
  Alcotest.(check int64) "i64 roundtrip" 0x1122334455667788L (Image.get_i64 img 100);
  Image.set_int img 200 424242;
  Alcotest.(check int) "int roundtrip" 424242 (Image.get_int img 200);
  Image.set_string img ~addr:300 "hello";
  Alcotest.(check string) "string roundtrip" "hello" (Image.get_string img ~addr:300 ~len:5);
  Image.set_u8 img 400 0x7F;
  Alcotest.(check int) "u8 roundtrip" 0x7F (Image.get_u8 img 400)

(* A far write allocates the page it lands on and a longer page table,
   not a buffer reaching out to it. *)
let test_growth () =
  let img = Image.create () in
  let before = Test_space.allocated_bytes () in
  Image.set_i64 img 100_000 7L;
  let allocated = Test_space.allocated_bytes () -. before in
  Alcotest.(check int64) "write far beyond the first pages" 7L (Image.get_i64 img 100_000);
  Alcotest.(check bool) (Printf.sprintf "allocated %.0f bytes < 16 KiB" allocated) true (allocated < 16384.0)

let test_unwritten_reads_zero () =
  let img = Image.create () in
  Alcotest.(check int64) "unwritten is zero" 0L (Image.get_i64 img 5000);
  Alcotest.(check int) "read beyond capacity is zero" 0 (Image.get_u8 img 10_000_000)

let test_copy_independent () =
  let img = Image.create () in
  Image.set_int img 0 1;
  let snap = Image.copy img in
  Image.set_int img 0 2;
  Alcotest.(check int) "copy unaffected" 1 (Image.get_int snap 0);
  Alcotest.(check int) "original changed" 2 (Image.get_int img 0)

let test_blit_line () =
  let src = Image.create () and dst = Image.create () in
  Image.set_i64 src 128 9L;
  Image.set_i64 src 192 10L;
  Image.blit_line ~src ~dst ~line:2;
  Alcotest.(check int64) "line 2 copied" 9L (Image.get_i64 dst 128);
  Alcotest.(check int64) "line 3 untouched" 0L (Image.get_i64 dst 192);
  Alcotest.(check bool) "equal_range on copied line" true (Image.equal_range src dst ~lo:128 ~hi:192)

let prop_write_read =
  QCheck.Test.make ~name:"write then read returns the bytes" ~count:200
    QCheck.(pair (int_range 0 5000) (string_of_size (QCheck.Gen.int_range 1 100)))
    (fun (addr, s) ->
      let img = Image.create () in
      Image.set_string img ~addr s;
      Image.get_string img ~addr ~len:(String.length s) = s)

(* Differential property against the flat reference image: random op
   sequences on two images (blits go between them) must read the same
   bytes from both designs. Addresses cluster at page edges so i64
   accesses and writes straddle 4 KiB pages; a case's span reaches up
   to 64 MiB. [Copy] snapshots an image (checked again at the end, so
   later writes must not leak into it); [Journal] opens a journal or
   rolls it back, which the reference mirrors by restoring a copy. *)
module O = Image_oracle

type op =
  | Write of int * int * string
  | Read of int * int * int
  | Set_i64 of int * int * int64
  | Get_i64 of int * int
  | Get_u8 of int * int
  | Copy of int
  | Blit_line of int * int
  | Journal of int

let show_op = function
  | Write (i, a, s) -> Printf.sprintf "write %d @%d %S" i a s
  | Read (i, a, n) -> Printf.sprintf "read %d @%d+%d" i a n
  | Set_i64 (i, a, v) -> Printf.sprintf "set_i64 %d @%d %Ld" i a v
  | Get_i64 (i, a) -> Printf.sprintf "get_i64 %d @%d" i a
  | Get_u8 (i, a) -> Printf.sprintf "get_u8 %d @%d" i a
  | Copy i -> Printf.sprintf "copy %d" i
  | Blit_line (i, l) -> Printf.sprintf "blit_line -> %d line %d" i l
  | Journal i -> Printf.sprintf "journal %d" i

let gen_ops =
  let open QCheck.Gen in
  let* span = frequency [ (20, return 16_384); (8, return (1 lsl 20)); (1, return (64 lsl 20)) ] in
  let addr =
    map2 (fun page off -> (page * 4096) + off) (int_bound ((span / 4096) - 2))
      (oneof [ int_bound 15; int_range 4080 4095; int_bound 4095 ])
  in
  let img = int_bound 1 in
  let op =
    frequency
      [
        (3, map3 (fun i a s -> Write (i, a, s)) img addr (string_size ~gen:char (int_range 1 300)));
        (2, map3 (fun i a n -> Read (i, a, n)) img addr (int_range 0 300));
        (3, map3 (fun i a v -> Set_i64 (i, a, v)) img addr (map Int64.of_int int));
        (2, map2 (fun i a -> Get_i64 (i, a)) img addr);
        (1, map2 (fun i a -> Get_u8 (i, a)) img addr);
        (1, map (fun i -> Copy i) img);
        (2, map2 (fun i a -> Blit_line (i, a / 64)) img addr);
        (1, map (fun i -> Journal i) img);
      ]
  in
  list_size (int_range 1 40) op

let prop_matches_flat_reference =
  QCheck.Test.make ~name:"sparse image agrees with the flat reference" ~count:60
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen_ops)
    (fun ops ->
      let imgs = [| Image.create (); Image.create () |] and refs = [| O.create (); O.create () |] in
      let journals = [| None; None |] and snaps = ref [] and touched = ref [] in
      let same_read img r (a, n) = Image.read img ~addr:a ~len:n = O.read r ~addr:a ~len:n in
      let step = function
        | Write (i, a, s) ->
            touched := (a, String.length s) :: !touched;
            Image.set_string imgs.(i) ~addr:a s;
            O.set_string refs.(i) ~addr:a s;
            true
        | Read (i, a, n) -> same_read imgs.(i) refs.(i) (a, n)
        | Set_i64 (i, a, v) ->
            touched := (a, 8) :: !touched;
            Image.set_i64 imgs.(i) a v;
            O.set_i64 refs.(i) a v;
            true
        | Get_i64 (i, a) -> Image.get_i64 imgs.(i) a = O.get_i64 refs.(i) a
        | Get_u8 (i, a) -> Image.get_u8 imgs.(i) a = O.get_u8 refs.(i) a
        | Copy i ->
            snaps := (Image.copy imgs.(i), O.copy refs.(i)) :: !snaps;
            true
        | Blit_line (i, line) ->
            touched := (line * 64, 64) :: !touched;
            Image.blit_line ~src:imgs.(1 - i) ~dst:imgs.(i) ~line;
            O.blit_line ~src:refs.(1 - i) ~dst:refs.(i) ~line;
            true
        | Journal i -> (
            match journals.(i) with
            | None ->
                Image.open_journal imgs.(i);
                journals.(i) <- Some (O.copy refs.(i));
                true
            | Some saved ->
                Image.rollback imgs.(i);
                refs.(i) <- saved;
                journals.(i) <- None;
                true)
      in
      List.for_all step ops
      && List.for_all
           (fun (img, r) -> List.for_all (same_read img r) !touched)
           ((imgs.(0), refs.(0)) :: (imgs.(1), refs.(1)) :: !snaps))

let test_journal_rollback () =
  let img = Image.create () in
  Image.set_i64 img 4092 0x0102030405060708L;
  Image.open_journal img;
  Alcotest.check_raises "nested journal" (Invalid_argument "Pmem.Image.open_journal: a journal is already open")
    (fun () -> Image.open_journal img);
  Image.set_i64 img 4092 (-1L);
  Image.set_string img ~addr:4090 "overlapping";
  Image.set_u8 img (64 lsl 20) 9;
  Image.rollback img;
  Alcotest.(check int64) "straddling i64 restored" 0x0102030405060708L (Image.get_i64 img 4092);
  Alcotest.(check int) "far byte back to zero" 0 (Image.get_u8 img (64 lsl 20));
  Image.set_i64 img 0 5L;
  Image.rollback img;
  Alcotest.(check int64) "writes outside a journal stay" 5L (Image.get_i64 img 0)

let suite =
  [
    Alcotest.test_case "typed roundtrips" `Quick test_roundtrip;
    Alcotest.test_case "growth on demand" `Quick test_growth;
    Alcotest.test_case "unwritten reads zero" `Quick test_unwritten_reads_zero;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "blit_line" `Quick test_blit_line;
    QCheck_alcotest.to_alcotest prop_write_read;
    QCheck_alcotest.to_alcotest prop_matches_flat_reference;
    Alcotest.test_case "journal rollback" `Quick test_journal_rollback;
  ]
