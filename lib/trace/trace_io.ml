(* ------------------------------------------------------------------ *)
(* Printer: keywords and decimal digits go straight into a Buffer,     *)
(* with no intermediate string per event or per field.                 *)
(* ------------------------------------------------------------------ *)

(* [n <= 0]; digits most-significant first. Working on the negative side
   covers [min_int], whose absolute value is not an [int]. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* Same text as [string_of_int n]. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let add3 buf kw a b c =
  Buffer.add_string buf kw;
  Buffer.add_char buf ' ';
  add_int buf a;
  Buffer.add_char buf ' ';
  add_int buf b;
  Buffer.add_char buf ' ';
  add_int buf c

let add2 buf kw a b =
  Buffer.add_string buf kw;
  Buffer.add_char buf ' ';
  add_int buf a;
  Buffer.add_char buf ' ';
  add_int buf b

let add1 buf kw a =
  Buffer.add_string buf kw;
  Buffer.add_char buf ' ';
  add_int buf a

let add_event buf = function
  | Event.Store { addr; size; tid } -> add3 buf "store" tid addr size
  | Event.Clf { addr; size; kind; tid } ->
      Buffer.add_string buf "clf ";
      add3 buf (Event.clf_kind_name kind) tid addr size
  | Event.Fence { tid } -> add1 buf "fence" tid
  | Event.Register_pmem { base; size } -> add2 buf "register_pmem" base size
  | Event.Epoch_begin { tid } -> add1 buf "epoch_begin" tid
  | Event.Epoch_end { tid } -> add1 buf "epoch_end" tid
  | Event.Strand_begin { tid; strand } -> add2 buf "strand_begin" tid strand
  | Event.Strand_end { tid; strand } -> add2 buf "strand_end" tid strand
  | Event.Join_strand { tid } -> add1 buf "join_strand" tid
  | Event.Tx_log { obj_addr; size; tid } -> add3 buf "tx_log" tid obj_addr size
  | Event.Register_var { name; addr; size } ->
      add2 buf "register_var" addr size;
      Buffer.add_char buf ' ';
      Buffer.add_string buf name
  | Event.Call { func; tid } ->
      add1 buf "call" tid;
      Buffer.add_char buf ' ';
      Buffer.add_string buf func
  | Event.Annotation (Event.Assert_durable { addr; size }) -> add2 buf "assert_durable" addr size
  | Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size }) ->
      add3 buf "assert_ordered" first_addr first_size then_addr;
      Buffer.add_char buf ' ';
      add_int buf then_size
  | Event.Annotation (Event.Assert_fresh { addr; size }) -> add2 buf "assert_fresh" addr size
  | Event.Program_end -> Buffer.add_string buf "program_end"

let event_to_line ev =
  let buf = Buffer.create 32 in
  add_event buf ev;
  Buffer.contents buf

let to_string trace =
  let buf = Buffer.create (Array.length trace * 16) in
  Array.iter
    (fun ev ->
      add_event buf ev;
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Scanner: one line is a byte range [lo, hi) of a buffer. The grammar  *)
(* is [String.trim], then tokens separated by runs of spaces (a tab     *)
(* inside a line belongs to its token), then [int_of_string_opt] per    *)
(* numeric field. The scanner implements exactly that in place: it      *)
(* allocates the [Event.t] and nothing else on a well-formed line.      *)
(* ------------------------------------------------------------------ *)

exception Bad

(* The two non-event outcomes of [scan_line], compared with [==]. They
   never leave this module. *)
let blank = Event.Call { func = ""; tid = -1 }

let malformed = Event.Call { func = ""; tid = -2 }

(* The characters [String.trim] strips. *)
let is_trim_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Token cursor over the trimmed line: [p] is the scan position and [e]
   the end of the line. One cursor is reused for every line of a fold. *)
type cursor = { mutable p : int; mutable e : int }

let skip_spaces c b =
  let p = ref c.p in
  while !p < c.e && Bytes.unsafe_get b !p = ' ' do
    incr p
  done;
  c.p <- !p

(* Start of the next token; [c.p] is left at its end. *)
let token c b =
  skip_spaces c b;
  let start = c.p in
  if start >= c.e then raise_notrace Bad;
  let p = ref start in
  while !p < c.e && Bytes.unsafe_get b !p <> ' ' do
    incr p
  done;
  c.p <- !p;
  start

let token_is b start stop s =
  let n = String.length s in
  stop - start = n
  &&
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b (start + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = n

(* Plain decimal of up to 18 digits cannot overflow and is converted
   digit by digit; any other token (sign, 0x/0o/0b/0u prefix, '_'
   separators, 19+ digits, garbage) goes through [int_of_string_opt],
   so the accepted set is exactly its by construction. *)
let int_field c b =
  let start = token c b in
  let stop = c.p in
  let n = ref 0 and plain = ref (stop - start <= 18) in
  let p = ref start in
  while !plain && !p < stop do
    let d = Char.code (Bytes.unsafe_get b !p) - 48 in
    if d >= 0 && d <= 9 then n := (!n * 10) + d else plain := false;
    incr p
  done;
  if !plain then !n
  else match int_of_string_opt (Bytes.sub_string b start (stop - start)) with Some v -> v | None -> raise_notrace Bad

let kind_field c b =
  let start = token c b in
  let stop = c.p in
  if token_is b start stop "clwb" then Event.Clwb
  else if token_is b start stop "clflush" then Event.Clflush
  else if token_is b start stop "clflushopt" then Event.Clflushopt
  else raise_notrace Bad

(* No token may follow the last field. *)
let finish c b =
  skip_spaces c b;
  if c.p < c.e then raise_notrace Bad

(* The remaining tokens (at least one) joined by single spaces. *)
let name_field c b =
  skip_spaces c b;
  let start = c.p and stop = c.e in
  if start >= stop then raise_notrace Bad;
  let out = Bytes.create (stop - start) in
  let n = ref 0 in
  for i = start to stop - 1 do
    let ch = Bytes.unsafe_get b i in
    if ch <> ' ' || Bytes.unsafe_get b (i - 1) <> ' ' then begin
      Bytes.unsafe_set out !n ch;
      incr n
    end
  done;
  Bytes.sub_string out 0 !n

let parse_event c b =
  let start = token c b in
  let stop = c.p in
  if token_is b start stop "store" then begin
    let tid = int_field c b in
    let addr = int_field c b in
    let size = int_field c b in
    finish c b;
    Event.Store { addr; size; tid }
  end
  else if token_is b start stop "clf" then begin
    let kind = kind_field c b in
    let tid = int_field c b in
    let addr = int_field c b in
    let size = int_field c b in
    finish c b;
    Event.Clf { addr; size; kind; tid }
  end
  else if token_is b start stop "fence" then begin
    let tid = int_field c b in
    finish c b;
    Event.Fence { tid }
  end
  else if token_is b start stop "register_pmem" then begin
    let base = int_field c b in
    let size = int_field c b in
    finish c b;
    Event.Register_pmem { base; size }
  end
  else if token_is b start stop "epoch_begin" then begin
    let tid = int_field c b in
    finish c b;
    Event.Epoch_begin { tid }
  end
  else if token_is b start stop "epoch_end" then begin
    let tid = int_field c b in
    finish c b;
    Event.Epoch_end { tid }
  end
  else if token_is b start stop "strand_begin" then begin
    let tid = int_field c b in
    let strand = int_field c b in
    finish c b;
    Event.Strand_begin { tid; strand }
  end
  else if token_is b start stop "strand_end" then begin
    let tid = int_field c b in
    let strand = int_field c b in
    finish c b;
    Event.Strand_end { tid; strand }
  end
  else if token_is b start stop "join_strand" then begin
    let tid = int_field c b in
    finish c b;
    Event.Join_strand { tid }
  end
  else if token_is b start stop "tx_log" then begin
    let tid = int_field c b in
    let obj_addr = int_field c b in
    let size = int_field c b in
    finish c b;
    Event.Tx_log { obj_addr; size; tid }
  end
  else if token_is b start stop "register_var" then begin
    let addr = int_field c b in
    let size = int_field c b in
    let name = name_field c b in
    Event.Register_var { name; addr; size }
  end
  else if token_is b start stop "call" then begin
    let tid = int_field c b in
    let func = name_field c b in
    Event.Call { func; tid }
  end
  else if token_is b start stop "assert_durable" then begin
    let addr = int_field c b in
    let size = int_field c b in
    finish c b;
    Event.Annotation (Event.Assert_durable { addr; size })
  end
  else if token_is b start stop "assert_ordered" then begin
    let first_addr = int_field c b in
    let first_size = int_field c b in
    let then_addr = int_field c b in
    let then_size = int_field c b in
    finish c b;
    Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size })
  end
  else if token_is b start stop "assert_fresh" then begin
    let addr = int_field c b in
    let size = int_field c b in
    finish c b;
    Event.Annotation (Event.Assert_fresh { addr; size })
  end
  else if token_is b start stop "program_end" then begin
    finish c b;
    Event.Program_end
  end
  else raise_notrace Bad

(* Point the cursor at [b.[lo, hi)] without its [String.trim]
   whitespace: [c.p] is the first kept byte, [c.e] one past the last. *)
let trim c b lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_trim_space (Bytes.unsafe_get b !lo) do
    incr lo
  done;
  while !hi > !lo && is_trim_space (Bytes.unsafe_get b (!hi - 1)) do
    decr hi
  done;
  c.p <- !lo;
  c.e <- !hi

(* The event on the line [b.[lo, hi)], or [blank] / [malformed]. *)
let scan_line c b lo hi =
  trim c b lo hi;
  if c.p >= c.e || Bytes.unsafe_get b c.p = '#' then blank
  else try parse_event c b with Bad -> malformed

let parse_error c b lo hi =
  trim c b lo hi;
  Printf.sprintf "cannot parse event %S" (Bytes.sub_string b c.p (c.e - c.p))

let event_of_bytes b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Trace_io.event_of_bytes";
  let c = { p = 0; e = 0 } in
  let ev = scan_line c b off (off + len) in
  if ev == blank then Ok None
  else if ev == malformed then Error (parse_error c b off (off + len))
  else Ok (Some ev)

let event_of_line line = event_of_bytes (Bytes.unsafe_of_string line) ~off:0 ~len:(String.length line)

(* ------------------------------------------------------------------ *)
(* Line source: a string in memory, or a channel read in blocks into a  *)
(* reusable buffer. A line is the range [lo, hi) before a '\n', or      *)
(* before the end of input for a last line with no '\n'. On refill the  *)
(* unconsumed tail (a partial line) moves to the front of the buffer;   *)
(* the buffer doubles only when one line fills all of it, so memory is  *)
(* bounded by the longest line, never by the trace length.              *)
(* ------------------------------------------------------------------ *)

type source = {
  ic : in_channel option;  (** [None]: [buf] is a whole string, never written *)
  mutable buf : Bytes.t;
  mutable pos : int;  (** first unconsumed byte *)
  mutable len : int;  (** end of valid data *)
  mutable lo : int;  (** last line returned by [next_line] *)
  mutable hi : int;
  cur : cursor;
}

let block_size = 65536

let source_of_string text =
  let len = String.length text in
  { ic = None; buf = Bytes.unsafe_of_string text; pos = 0; len; lo = 0; hi = 0; cur = { p = 0; e = 0 } }

let source_of_channel ic =
  { ic = Some ic; buf = Bytes.create block_size; pos = 0; len = 0; lo = 0; hi = 0; cur = { p = 0; e = 0 } }

(* Read more input after the unconsumed tail; false at end of input. *)
let refill s =
  match s.ic with
  | None -> false
  | Some ic ->
      let keep = s.len - s.pos in
      if s.pos > 0 then Bytes.blit s.buf s.pos s.buf 0 keep
      else if keep = Bytes.length s.buf then begin
        let bigger = Bytes.create (2 * Bytes.length s.buf) in
        Bytes.blit s.buf 0 bigger 0 keep;
        s.buf <- bigger
      end;
      s.pos <- 0;
      let n = input ic s.buf keep (Bytes.length s.buf - keep) in
      s.len <- keep + n;
      n > 0

let rec next_line s =
  let b = s.buf and stop = s.len in
  let i = ref s.pos in
  while !i < stop && Bytes.unsafe_get b !i <> '\n' do
    incr i
  done;
  if !i < stop then begin
    s.lo <- s.pos;
    s.hi <- !i;
    s.pos <- !i + 1;
    true
  end
  else if refill s then next_line s
  else if s.pos < s.len then begin
    s.lo <- s.pos;
    s.hi <- s.len;
    s.pos <- s.len;
    true
  end
  else false

let scan_next s = scan_line s.cur s.buf s.lo s.hi

let error_of_line s = parse_error s.cur s.buf s.lo s.hi

(* ------------------------------------------------------------------ *)
(* Folds: a string in memory and a multi-GB file on disk go through the *)
(* exact same skip / error-position / synthesize-program_end logic.     *)
(* Line numbers count blank and comment lines.                          *)
(* ------------------------------------------------------------------ *)

type stream_stats = {
  events : int;
  skipped_lines : (int * string) list;
  synthesized : bool;
}

let fold_strict s ~init ~f =
  let rec go lineno acc =
    if not (next_line s) then Ok acc
    else
      let ev = scan_next s in
      if ev == blank then go (lineno + 1) acc
      else if ev == malformed then Error (Printf.sprintf "line %d: %s" lineno (error_of_line s))
      else go (lineno + 1) (f acc ev)
  in
  go 1 init

let fold_lenient ~metrics ~synthesize_end ~on_skip s ~init ~f =
  let rec go lineno acc parsed skipped nskip last_was_end =
    if not (next_line s) then begin
      Obs.Metrics.inc metrics ~by:parsed "trace_io_lines_parsed_total";
      Obs.Metrics.inc metrics ~by:nskip "trace_io_lines_skipped_total";
      let synthesized = synthesize_end && not last_was_end in
      let acc, parsed = if synthesized then (f acc Event.Program_end, parsed + 1) else (acc, parsed) in
      (acc, { events = parsed; skipped_lines = List.rev skipped; synthesized })
    end
    else
      let ev = scan_next s in
      if ev == blank then go (lineno + 1) acc parsed skipped nskip last_was_end
      else if ev == malformed then begin
        let msg = error_of_line s in
        on_skip lineno msg;
        go (lineno + 1) acc parsed ((lineno, msg) :: skipped) (nskip + 1) last_was_end
      end
      else
        let is_end = match ev with Event.Program_end -> true | _ -> false in
        go (lineno + 1) (f acc ev) (parsed + 1) skipped nskip is_end
  in
  go 1 init 0 [] 0 false

let rev_array acc = Array.of_list (List.rev acc)

let push acc ev = ev :: acc

let of_string text = Result.map rev_array (fold_strict (source_of_string text) ~init:[] ~f:push)

type lenient = { trace : Event.t array; skipped : (int * string) list; synthesized_end : bool }

let lenient_of_fold (acc, stats) =
  { trace = rev_array acc; skipped = stats.skipped_lines; synthesized_end = stats.synthesized }

let of_string_lenient ?(metrics = Obs.Metrics.disabled) ?(synthesize_end = true) text =
  lenient_of_fold
    (fold_lenient ~metrics ~synthesize_end ~on_skip:(fun _ _ -> ()) (source_of_string text) ~init:[] ~f:push)

(* All file I/O below closes its channel on any exit path: a write
   failure or a read error must not leak the descriptor. *)

let with_in_file path f =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try f (source_of_channel ic) with Sys_error msg -> Error msg)

let fold_file ?(metrics = Obs.Metrics.disabled) ?(synthesize_end = true) ?(on_skip = fun _ _ -> ()) path ~init ~f =
  with_in_file path (fun s -> Ok (fold_lenient ~metrics ~synthesize_end ~on_skip s ~init ~f))

let iter_file ?metrics ?synthesize_end ?on_skip path ~f =
  Result.map snd (fold_file ?metrics ?synthesize_end ?on_skip path ~init:() ~f:(fun () ev -> f ev))

let fold_file_strict path ~init ~f = with_in_file path (fun s -> fold_strict s ~init ~f)

let iter_file_strict path ~f = fold_file_strict path ~init:() ~f:(fun () ev -> f ev)

(* Lines accumulate in one Buffer that goes to the channel a block at a
   time. *)
let save_stream path produce =
  let oc = open_out_bin path in
  let buf = Buffer.create (2 * block_size) in
  let flush () =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  let n = ref 0 in
  (* A raising producer still leaves every event it emitted on disk. *)
  Fun.protect
    ~finally:(fun () ->
      (try flush () with Sys_error _ -> ());
      close_out_noerr oc)
    (fun () ->
      produce (fun ev ->
          add_event buf ev;
          Buffer.add_char buf '\n';
          incr n;
          if Buffer.length buf >= block_size then flush ());
      flush ());
  !n

(* Binary mode, like every reader here: save/load roundtrips are
   byte-identical cross-platform (text mode would translate newlines on
   Windows and corrupt offsets against open_in_bin readers). *)
let save path trace = ignore (save_stream path (fun emit -> Array.iter emit trace))

let load path = Result.map rev_array (fold_file_strict path ~init:[] ~f:push)

let load_lenient ?metrics ?synthesize_end path =
  Result.map lenient_of_fold (fold_file ?metrics ?synthesize_end path ~init:[] ~f:push)
