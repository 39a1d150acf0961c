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
let[@inline] is_trim_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Token cursor over the trimmed line: [p] is the scan position and [e]
   the end of the line. One cursor is reused for every line of a fold. *)
type cursor = { mutable p : int; mutable e : int; fields : int array  (** a plain line's numbers *) }

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

(* An address or a size: negative values are malformed. *)
let nat_field c b =
  let v = int_field c b in
  if v < 0 then raise_notrace Bad;
  v

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
    let addr = nat_field c b in
    let size = nat_field c b in
    finish c b;
    Event.Store { addr; size; tid }
  end
  else if token_is b start stop "clf" then begin
    let kind = kind_field c b in
    let tid = int_field c b in
    let addr = nat_field c b in
    let size = nat_field c b in
    finish c b;
    Event.Clf { addr; size; kind; tid }
  end
  else if token_is b start stop "fence" then begin
    let tid = int_field c b in
    finish c b;
    Event.Fence { tid }
  end
  else if token_is b start stop "register_pmem" then begin
    let base = nat_field c b in
    let size = nat_field c b in
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
    let obj_addr = nat_field c b in
    let size = nat_field c b in
    finish c b;
    Event.Tx_log { obj_addr; size; tid }
  end
  else if token_is b start stop "register_var" then begin
    let addr = nat_field c b in
    let size = nat_field c b in
    let name = name_field c b in
    Event.Register_var { name; addr; size }
  end
  else if token_is b start stop "call" then begin
    let tid = int_field c b in
    let func = name_field c b in
    Event.Call { func; tid }
  end
  else if token_is b start stop "assert_durable" then begin
    let addr = nat_field c b in
    let size = nat_field c b in
    finish c b;
    Event.Annotation (Event.Assert_durable { addr; size })
  end
  else if token_is b start stop "assert_ordered" then begin
    let first_addr = nat_field c b in
    let first_size = nat_field c b in
    let then_addr = nat_field c b in
    let then_size = nat_field c b in
    finish c b;
    Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size })
  end
  else if token_is b start stop "assert_fresh" then begin
    let addr = nat_field c b in
    let size = nat_field c b in
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
  let c = { p = 0; e = 0; fields = Array.make 4 0 } in
  let ev = scan_line c b off (off + len) in
  if ev == blank then Ok None
  else if ev == malformed then Error (parse_error c b off (off + len))
  else Ok (Some ev)

let event_of_line line = event_of_bytes (Bytes.unsafe_of_string line) ~off:0 ~len:(String.length line)

(* ------------------------------------------------------------------ *)
(* One pass: a plain line is parsed from its first byte to its '\n'    *)
(* with no separate framing, trimming or tokenizing pass. Plain is the *)
(* form [add_event] prints, give or take space runs: a keyword from    *)
(* its first byte, picked by that byte and its length; each field      *)
(* spaces and 1 to 18 decimal digits; then [String.trim] whitespace (a *)
(* CRLF line's '\r') before the '\n'. Every other line (a comment, a   *)
(* blank or indented line, a tab inside, a sign, a prefix, 19+ digits, *)
(* a name, a malformed token) and one that runs past the end of its    *)
(* chunk goes to the framer and scanner above, which define the        *)
(* grammar and every error; the framer resumes its '\n' search where   *)
(* the pass stopped. Nothing here raises or calls out before the line  *)
(* is known to be plain.                                               *)
(* ------------------------------------------------------------------ *)

(* The outcome of a line that leaves the plain form. *)
let not_plain = Event.Call { func = ""; tid = -3 }

let[@inline] is_keyword_char ch = (ch >= 'a' && ch <= 'z') || ch = '_'

let[@inline] is_digit ch = ch >= '0' && ch <= '9'

(* The event on the plain line starting at [lo], with [c.p] on its '\n';
   or [not_plain], with no '\n' in [b.[lo, c.p)]. No byte at or past
   [stop] is read. One function with inlined byte tests: every call
   spills the live registers, which cost more than the scanner saves. *)
let plain_line c b lo stop =
  let p = ref lo in
  while !p < stop && is_keyword_char (Bytes.unsafe_get b !p) do
    incr p
  done;
  let kw = !p in
  if kw = lo then begin
    c.p <- lo;
    not_plain
  end
  else begin
    (* clf's kind, the one word field. *)
    let kind_lo = ref kw in
    if kw - lo = 3 && Bytes.unsafe_get b lo = 'c' then begin
      while !p < stop && Bytes.unsafe_get b !p = ' ' do
        incr p
      done;
      kind_lo := !p;
      while !p < stop && is_keyword_char (Bytes.unsafe_get b !p) do
        incr p
      done
    end;
    let kind_lo = !kind_lo and kind_hi = !p in
    (* Up to four fields, each a run of spaces and 1 to 18 decimal
       digits, which cannot overflow. *)
    let f = c.fields and n = ref 0 and more = ref true in
    while !more do
      let q = ref !p in
      while !q < stop && Bytes.unsafe_get b !q = ' ' do
        incr q
      done;
      let digits_lo = !q and v = ref 0 in
      while !q < stop && is_digit (Bytes.unsafe_get b !q) do
        v := (!v * 10) + Char.code (Bytes.unsafe_get b !q) - 48;
        incr q
      done;
      let len = !q - digits_lo in
      if digits_lo = !p || len = 0 || len > 18 || !n = 4 then more := false
      else begin
        Array.unsafe_set f !n !v;
        incr n;
        p := !q
      end
    done;
    while !p < stop && Bytes.unsafe_get b !p <> '\n' && is_trim_space (Bytes.unsafe_get b !p) do
      incr p
    done;
    c.p <- !p;
    if !p >= stop || Bytes.unsafe_get b !p <> '\n' then not_plain
    else
      let f0 = Array.unsafe_get f 0 and f1 = Array.unsafe_get f 1 in
      let f2 = Array.unsafe_get f 2 and f3 = Array.unsafe_get f 3 in
      match (Bytes.unsafe_get b lo, kw - lo, !n) with
      | 's', 5, 3 when token_is b lo kw "store" -> Event.Store { addr = f1; size = f2; tid = f0 }
      | 'c', 3, 3 when token_is b lo kw "clf" -> (
          let clf kind = Event.Clf { addr = f1; size = f2; kind; tid = f0 } in
          match kind_hi - kind_lo with
          | 4 when token_is b kind_lo kind_hi "clwb" -> clf Event.Clwb
          | 7 when token_is b kind_lo kind_hi "clflush" -> clf Event.Clflush
          | 10 when token_is b kind_lo kind_hi "clflushopt" -> clf Event.Clflushopt
          | _ -> not_plain)
      | 'f', 5, 1 when token_is b lo kw "fence" -> Event.Fence { tid = f0 }
      | 't', 6, 3 when token_is b lo kw "tx_log" -> Event.Tx_log { obj_addr = f1; size = f2; tid = f0 }
      | 'e', 11, 1 when token_is b lo kw "epoch_begin" -> Event.Epoch_begin { tid = f0 }
      | 'e', 9, 1 when token_is b lo kw "epoch_end" -> Event.Epoch_end { tid = f0 }
      | 's', 12, 2 when token_is b lo kw "strand_begin" -> Event.Strand_begin { tid = f0; strand = f1 }
      | 's', 10, 2 when token_is b lo kw "strand_end" -> Event.Strand_end { tid = f0; strand = f1 }
      | 'j', 11, 1 when token_is b lo kw "join_strand" -> Event.Join_strand { tid = f0 }
      | 'r', 13, 2 when token_is b lo kw "register_pmem" -> Event.Register_pmem { base = f0; size = f1 }
      | 'a', 14, 2 when token_is b lo kw "assert_durable" ->
          Event.Annotation (Event.Assert_durable { addr = f0; size = f1 })
      | 'a', 14, 4 when token_is b lo kw "assert_ordered" ->
          Event.Annotation (Event.Assert_ordered { first_addr = f0; first_size = f1; then_addr = f2; then_size = f3 })
      | 'a', 12, 2 when token_is b lo kw "assert_fresh" ->
          Event.Annotation (Event.Assert_fresh { addr = f0; size = f1 })
      | 'p', 11, 0 when token_is b lo kw "program_end" -> Event.Program_end
      | _ ->
          (* register_var and call (a name runs to the end of the line),
             a wrong arity and anything else take the scanner. *)
          not_plain
  end

(* ------------------------------------------------------------------ *)
(* Decoder: the one line framer and end rule. A line is the range      *)
(* before a '\n', or the unterminated rest at [finish]. A line wholly  *)
(* inside a chunk is parsed where it lies, in one pass when plain;     *)
(* only a line split across chunks is copied, into [carry]. Line       *)
(* numbers count blank and comment lines.                              *)
(* ------------------------------------------------------------------ *)

let ends_trace = function Event.Program_end -> true | _ -> false

let no_skip _ _ = ()

module Decoder = struct
  type t = {
    lenient : bool;
    emit : Event.t -> unit;
    on_skip : int -> string -> unit;
    cur : cursor;
    carry : Buffer.t;
    mutable lineno : int;
    mutable events : int;
    mutable skipped : int;
    mutable ended : bool;  (** the last event passed [ends_trace] *)
    mutable synthesized : bool;
  }

  let create ?(on_skip = no_skip) ~lenient emit =
    let cur = { p = 0; e = 0; fields = Array.make 4 0 } and carry = Buffer.create 256 in
    { lenient; emit; on_skip; cur; carry; lineno = 0; events = 0; skipped = 0; ended = false; synthesized = false }

  let events d = d.events

  let skipped d = d.skipped

  let synthesized d = d.synthesized

  let carried d = Buffer.length d.carry

  (* A strict decoder's error, caught by [feed] and [finish]. *)
  exception Strict of string

  let deliver d ev =
    d.events <- d.events + 1;
    d.ended <- ends_trace ev;
    d.emit ev

  (* The line [b.[lo, hi)]. *)
  let line d b lo hi =
    d.lineno <- d.lineno + 1;
    let ev = scan_line d.cur b lo hi in
    if ev == blank then ()
    else if ev == malformed then begin
      let msg = parse_error d.cur b lo hi in
      if d.lenient then begin
        d.skipped <- d.skipped + 1;
        d.on_skip d.lineno msg
      end
      else raise_notrace (Strict (Printf.sprintf "line %d: %s" d.lineno msg))
    end
    else deliver d ev

  let carried_line d =
    let b = Buffer.to_bytes d.carry in
    Buffer.clear d.carry;
    line d b 0 (Bytes.length b)

  let feed d b ~off ~len =
    if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Trace_io.Decoder.feed";
    let stop = off + len and c = d.cur in
    let rec go start =
      let ev =
        if Buffer.length d.carry = 0 then plain_line c b start stop
        else begin
          c.p <- start;
          not_plain
        end
      in
      if ev != not_plain then begin
        d.lineno <- d.lineno + 1;
        deliver d ev;
        go (c.p + 1)
      end
      else begin
        (* The next '\n' from where the one pass stopped, bounded by
           [stop]: the bytes past a chunk in a reused read buffer are
           stale. *)
        let i = ref c.p in
        while !i < stop && Bytes.unsafe_get b !i <> '\n' do
          incr i
        done;
        let nl = !i in
        if nl = stop then Buffer.add_subbytes d.carry b start (stop - start)
        else begin
          if Buffer.length d.carry = 0 then line d b start nl
          else begin
            Buffer.add_subbytes d.carry b start (nl - start);
            carried_line d
          end;
          go (nl + 1)
        end
      end
    in
    try Ok (go off) with Strict msg -> Error msg

  (* The end rule: a trace whose last event does not end it gets a
     synthesized [program_end], once. *)
  let ensure_end d =
    if not d.ended then begin
      d.ended <- true;
      d.synthesized <- true;
      d.events <- d.events + 1;
      d.emit Event.Program_end
    end

  let finish d =
    match if Buffer.length d.carry > 0 then carried_line d with
    | () ->
        if d.lenient then ensure_end d;
        Ok ()
    | exception Strict msg -> Error msg

  let truncate d =
    Buffer.clear d.carry;
    ensure_end d
end

(* A string is fed as one chunk, a file a 64 KiB block at a time
   through one reusable buffer. *)

type stream_stats = {
  events : int;
  skipped_lines : (int * string) list;
  synthesized : bool;
}

let block_size = 65536

(* The decoder never writes the bytes it is fed. *)
let decode_string text d =
  match Decoder.feed d (Bytes.unsafe_of_string text) ~off:0 ~len:(String.length text) with
  | Ok () -> Decoder.finish d
  | Error _ as e -> e

(* The channel is closed on every exit path: a read error must not leak
   the descriptor. *)
let decode_file path d =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let buf = Bytes.create block_size in
          let rec go () =
            match input ic buf 0 block_size with
            | 0 -> Decoder.finish d
            | n -> ( match Decoder.feed d buf ~off:0 ~len:n with Ok () -> go () | Error _ as e -> e)
          in
          try go () with Sys_error msg -> Error msg)

let strict decode f = decode (Decoder.create ~lenient:false f)

let lenient ~metrics ~on_skip decode f =
  let skipped = ref [] in
  let on_skip lineno msg =
    on_skip lineno msg;
    skipped := (lineno, msg) :: !skipped
  in
  let d = Decoder.create ~on_skip ~lenient:true f in
  Result.map
    (fun () ->
      let synthesized = Decoder.synthesized d in
      Obs.Metrics.inc metrics ~by:(Decoder.events d - Bool.to_int synthesized) "trace_io_lines_parsed_total";
      Obs.Metrics.inc metrics ~by:(Decoder.skipped d) "trace_io_lines_skipped_total";
      { events = Decoder.events d; skipped_lines = List.rev !skipped; synthesized })
    (decode d)

(* The events [run] hands its callback, as an array. *)
let collect run =
  let acc = ref [] in
  Result.map (fun x -> (Array.of_list (List.rev !acc), x)) (run (fun ev -> acc := ev :: !acc))

let of_string text = Result.map fst (collect (strict (decode_string text)))

let of_string_lenient ?(metrics = Obs.Metrics.disabled) text =
  Result.get_ok (collect (lenient ~metrics ~on_skip:no_skip (decode_string text)))

let iter_file ?(metrics = Obs.Metrics.disabled) ?(on_skip = no_skip) path ~f =
  lenient ~metrics ~on_skip (decode_file path) f

let fold_file ?metrics ?on_skip path ~init ~f =
  let acc = ref init in
  Result.map (fun stats -> (!acc, stats)) (iter_file ?metrics ?on_skip path ~f:(fun ev -> acc := f !acc ev))

let iter_file_strict path ~f = strict (decode_file path) f

let load path = Result.map fst (collect (strict (decode_file path)))

let load_lenient ?metrics path = collect (fun f -> iter_file ?metrics path ~f)

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
