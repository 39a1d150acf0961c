type line_state = Clean | Dirty | Writeback_pending

type t = {
  vol : Image.t;
  dur : Image.t;
  lines : (int, line_state) Hashtbl.t;
  mutable n_stores : int;
  mutable n_clfs : int;
  mutable n_fences : int;
  mutable n_drained : int;
}

let create () =
  {
    vol = Image.create ();
    dur = Image.create ();
    lines = Hashtbl.create 1024;
    n_stores = 0;
    n_clfs = 0;
    n_fences = 0;
    n_drained = 0;
  }

let volatile t = t.vol

let durable t = t.dur

let line_state t line = match Hashtbl.find_opt t.lines line with None -> Clean | Some s -> s

let set_line t line s =
  match s with
  | Clean -> Hashtbl.remove t.lines line
  | Dirty | Writeback_pending -> Hashtbl.replace t.lines line s

let store t ~addr b =
  t.n_stores <- t.n_stores + 1;
  Image.write t.vol ~addr b;
  let hi = addr + Bytes.length b in
  List.iter (fun line -> set_line t line Dirty) (Addr.lines_of_range ~lo:addr ~hi)

let store_i64 t ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  store t ~addr b

let clf t ~addr =
  t.n_clfs <- t.n_clfs + 1;
  let line = Addr.line_of addr in
  match line_state t line with
  | Dirty -> set_line t line Writeback_pending
  | Clean | Writeback_pending -> ()

let clf_range t ~lo ~hi =
  List.iter (fun line -> clf t ~addr:(line * Addr.cache_line_size)) (Addr.lines_of_range ~lo ~hi)

let copy t =
  {
    vol = Image.copy t.vol;
    dur = Image.copy t.dur;
    lines = Hashtbl.copy t.lines;
    n_stores = t.n_stores;
    n_clfs = t.n_clfs;
    n_fences = t.n_fences;
    n_drained = t.n_drained;
  }

(* Spontaneous cache eviction: the line reaches the persistence domain
   without any CLF or fence having been issued. Unlike a CLF, the write
   is durable immediately (there is no writeback-pending window). *)
let evict t ~line =
  match line_state t line with
  | Clean -> ()
  | Dirty | Writeback_pending ->
      Image.blit_line ~src:t.vol ~dst:t.dur ~line;
      set_line t line Clean

let fence t =
  t.n_fences <- t.n_fences + 1;
  let pending = Hashtbl.fold (fun line s acc -> if s = Writeback_pending then line :: acc else acc) t.lines [] in
  List.iter
    (fun line ->
      Image.blit_line ~src:t.vol ~dst:t.dur ~line;
      t.n_drained <- t.n_drained + 1;
      set_line t line Clean)
    pending

let pending_lines t =
  Hashtbl.fold (fun line s acc -> if s = Writeback_pending then line :: acc else acc) t.lines []
  |> List.sort compare

let is_durable_range t ~lo ~hi =
  List.for_all (fun line -> line_state t line = Clean) (Addr.lines_of_range ~lo ~hi)

(* Deterministic xorshift for crash-image sampling: reproducible runs. *)
let xorshift seed =
  let s = ref (if seed = 0 then 0x9E3779B9 else seed) in
  fun () ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x land max_int;
    !s

let undrained_lines t = Hashtbl.length t.lines

(* The subsets of [n] undrained lines that make up the crash images, in
   a fixed order: [f keep] for each, at most [max_images] of them, where
   [keep.(i)] says whether the i-th line (ascending) persisted. [keep]
   is one array refilled between calls. Subsets are bool arrays, not
   int masks: [1 lsl i] is undefined once i reaches the word size, and
   sampling produced duplicate masks that inflated violation counts. *)
let iter_subsets n ~max_images f =
  if max_images < 1 then invalid_arg "Pmem.State: max_images must be >= 1";
  let keep = Array.make n false in
  if n <= 20 && 1 lsl n <= max_images then
    for mask = 0 to (1 lsl n) - 1 do
      for i = 0 to n - 1 do
        keep.(i) <- mask land (1 lsl i) <> 0
      done;
      f keep
    done
  else begin
    let rand = xorshift (n * 2654435761) in
    let seen = Hashtbl.create (2 * max_images) in
    let add () =
      let k = String.init n (fun i -> if keep.(i) then '1' else '0') in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        f keep
      end
    in
    (* The two extremes first: nothing extra persisted / everything
       persisted. *)
    add ();
    if max_images >= 2 then begin
      Array.fill keep 0 n true;
      add ()
    end;
    for _ = 1 to max_images - 2 do
      for i = 0 to n - 1 do
        keep.(i) <- rand () land 1 = 1
      done;
      add ()
    done
  end

let crash_image_count ~undrained ~max_images =
  let count = ref 0 in
  iter_subsets undrained ~max_images (fun _ -> incr count);
  !count

(* Derives each possible crash image in place on the durable image,
   one at a time: it blits the kept lines from the volatile image under
   an undo journal, hands the durable image to [f], and rolls the
   journal back, also when [f] raises. A nested derivation on the same
   state finds the journal open and raises. *)
let iter_crash_images t ~max_images f =
  let undrained =
    Hashtbl.fold (fun line _ acc -> line :: acc) t.lines [] |> List.sort compare |> Array.of_list
  in
  iter_subsets (Array.length undrained) ~max_images (fun keep ->
      Image.open_journal t.dur;
      match
        Array.iteri (fun i line -> if keep.(i) then Image.blit_line ~src:t.vol ~dst:t.dur ~line) undrained;
        f t.dur
      with
      | () -> Image.rollback t.dur
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Image.rollback t.dur;
          Printexc.raise_with_backtrace e bt)

let crash_images t ?(max_images = 64) () =
  let images = ref [] in
  iter_crash_images t ~max_images (fun img -> images := Image.copy img :: !images);
  List.rev !images

let check_crash_images t ~max_images ~recovery =
  let failing = ref 0 and checked = ref 0 in
  iter_crash_images t ~max_images (fun img ->
      incr checked;
      if not (recovery img) then incr failing);
  (!failing, !checked)

let stats t =
  [
    ("stores", t.n_stores);
    ("clfs", t.n_clfs);
    ("fences", t.n_fences);
    ("drained_lines", t.n_drained);
  ]
