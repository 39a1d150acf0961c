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
(* Parser. The grammar: [String.trim] the line; skip it if it is then  *)
(* blank or starts with '#'; split it into tokens on runs of spaces (a *)
(* tab inside a line belongs to its token); convert each numeric field *)
(* with [int_of_string_opt]. [parse_line] implements exactly that.     *)
(* ------------------------------------------------------------------ *)

(* The outcomes of [parse_line] that are not an event, compared with
   [==]. They never leave this module. *)
let blank = Event.Call { func = ""; tid = -1 }

let malformed = Event.Call { func = ""; tid = -2 }

(* The line runs past the end of its chunk. *)
let partial = Event.Call { func = ""; tid = -3 }

exception Bad

(* The characters [String.trim] strips. *)
let[@inline] is_trim_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let[@inline] is_keyword_char ch = (ch >= 'a' && ch <= 'z') || ch = '_'

let[@inline] is_digit ch = ch >= '0' && ch <= '9'

(* One cursor is reused for every line of a decoder. *)
type cursor = {
  mutable p : int;  (** the parsed line's '\n' *)
  fields : int array;  (** the line's numeric fields, at most four *)
}

let token_is b start stop s =
  let n = String.length s in
  stop - start = n
  &&
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b (start + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = n

(* The event with keyword [b.[klo, khi)], clf's kind [b.[kind_lo,
   kind_hi)], the [n] numeric fields in [c.fields] and [name] ("" for
   none); or [malformed]. An address or a size must be non-negative:
   [x lor y >= 0] tests two at once. *)
let[@inline] event c b klo khi kind_lo kind_hi n name =
  let f = c.fields in
  let f0 = Array.unsafe_get f 0 and f1 = Array.unsafe_get f 1 in
  let f2 = Array.unsafe_get f 2 and f3 = Array.unsafe_get f 3 in
  match (Bytes.unsafe_get b klo, khi - klo, n) with
  | 's', 5, 3 when f1 lor f2 >= 0 && token_is b klo khi "store" -> Event.Store { addr = f1; size = f2; tid = f0 }
  | 'c', 3, 3 when f1 lor f2 >= 0 && token_is b klo khi "clf" -> (
      match kind_hi - kind_lo with
      | 4 when token_is b kind_lo kind_hi "clwb" -> Event.Clf { addr = f1; size = f2; kind = Event.Clwb; tid = f0 }
      | 7 when token_is b kind_lo kind_hi "clflush" -> Event.Clf { addr = f1; size = f2; kind = Event.Clflush; tid = f0 }
      | 10 when token_is b kind_lo kind_hi "clflushopt" ->
          Event.Clf { addr = f1; size = f2; kind = Event.Clflushopt; tid = f0 }
      | _ -> malformed)
  | 'f', 5, 1 when token_is b klo khi "fence" -> Event.Fence { tid = f0 }
  | 't', 6, 3 when f1 lor f2 >= 0 && token_is b klo khi "tx_log" -> Event.Tx_log { obj_addr = f1; size = f2; tid = f0 }
  | 'e', 11, 1 when token_is b klo khi "epoch_begin" -> Event.Epoch_begin { tid = f0 }
  | 'e', 9, 1 when token_is b klo khi "epoch_end" -> Event.Epoch_end { tid = f0 }
  | 's', 12, 2 when token_is b klo khi "strand_begin" -> Event.Strand_begin { tid = f0; strand = f1 }
  | 's', 10, 2 when token_is b klo khi "strand_end" -> Event.Strand_end { tid = f0; strand = f1 }
  | 'j', 11, 1 when token_is b klo khi "join_strand" -> Event.Join_strand { tid = f0 }
  | 'r', 13, 2 when f0 lor f1 >= 0 && token_is b klo khi "register_pmem" -> Event.Register_pmem { base = f0; size = f1 }
  | 'r', 12, 2 when name <> "" && f0 lor f1 >= 0 && token_is b klo khi "register_var" ->
      Event.Register_var { name; addr = f0; size = f1 }
  | 'c', 4, 1 when name <> "" && token_is b klo khi "call" -> Event.Call { func = name; tid = f0 }
  | 'a', 14, 2 when f0 lor f1 >= 0 && token_is b klo khi "assert_durable" ->
      Event.Annotation (Event.Assert_durable { addr = f0; size = f1 })
  | 'a', 14, 4 when f0 lor f1 lor f2 lor f3 >= 0 && token_is b klo khi "assert_ordered" ->
      Event.Annotation (Event.Assert_ordered { first_addr = f0; first_size = f1; then_addr = f2; then_size = f3 })
  | 'a', 12, 2 when f0 lor f1 >= 0 && token_is b klo khi "assert_fresh" ->
      Event.Annotation (Event.Assert_fresh { addr = f0; size = f1 })
  | 'p', 11, 0 when token_is b klo khi "program_end" -> Event.Program_end
  | _ -> malformed

(* The numeric token [b.[lo, hi)]. An optional sign and 1 to 18 decimal
   digits cannot overflow and are converted digit by digit; any other
   token (a 0x/0o/0b/0u prefix, '_' separators, 19+ digits, garbage)
   goes through [int_of_string_opt], so the accepted set is exactly its
   by construction. *)
let int_token b lo hi =
  let sign = Bytes.unsafe_get b lo in
  let d = if sign = '-' || sign = '+' then lo + 1 else lo in
  let p = ref d and v = ref 0 in
  if hi - d <= 18 then
    while !p < hi && is_digit (Bytes.unsafe_get b !p) do
      v := (!v * 10) + Char.code (Bytes.unsafe_get b !p) - 48;
      incr p
    done;
  if !p = hi && hi > d then (if sign = '-' then - !v else !v)
  else match int_of_string_opt (Bytes.sub_string b lo (hi - lo)) with Some v -> v | None -> raise_notrace Bad

(* [b.[lo, hi)] with its runs of spaces collapsed to one: the remaining
   tokens joined by single spaces. *)
let name_of b lo hi =
  let out = Bytes.create (hi - lo) and n = ref 0 in
  for i = lo to hi - 1 do
    let ch = Bytes.unsafe_get b i in
    if ch <> ' ' || Bytes.unsafe_get b (i - 1) <> ' ' then begin
      Bytes.unsafe_set out !n ch;
      incr n
    end
  done;
  Bytes.sub_string out 0 !n

(* [outcome] for the line whose '\n' is the next from [p]. *)
let to_newline c b p stop outcome =
  let p = ref p in
  while !p < stop && Bytes.unsafe_get b !p <> '\n' do
    incr p
  done;
  if !p >= stop then partial
  else begin
    c.p <- !p;
    outcome
  end

(* The cold tail of [parse_line]: the rest of a line whose keyword
   [b.[lo, kw)] the hot loop has read, from the start [ts] of the first
   token that loop did not finish. clf's kind is [b.[kind_lo,
   kind_hi)], or unread while [kind_lo] is -1; [c.fields] holds [n]
   fields. The tail finds the '\n' and the end of the trimmed text, then
   splits what lies between on spaces. *)
let tail c b lo kw stop kind_lo kind_hi n ts =
  let nl = ref ts in
  while !nl < stop && Bytes.unsafe_get b !nl <> '\n' do
    incr nl
  done;
  if !nl >= stop then partial
  else begin
    c.p <- !nl;
    (* The keyword's letters bound this loop. *)
    let e = ref !nl in
    while is_trim_space (Bytes.unsafe_get b (!e - 1)) do
      decr e
    done;
    let e = !e and p = ref ts and n = ref n and kind_lo = ref kind_lo and kind_hi = ref kind_hi and name = ref "" in
    (* How many fields come before the keyword's name; -1 for none. *)
    let name_at = if token_is b lo kw "call" then 1 else if token_is b lo kw "register_var" then 2 else -1 in
    try
      while !p < e do
        while Bytes.unsafe_get b !p = ' ' do
          incr p
        done;
        let t = !p in
        if !n = name_at then begin
          name := name_of b t e;
          p := e
        end
        else begin
          while !p < e && Bytes.unsafe_get b !p <> ' ' do
            incr p
          done;
          if !kind_lo < 0 then begin
            kind_lo := t;
            kind_hi := !p
          end
          else if !n = 4 then raise_notrace Bad
          else begin
            Array.unsafe_set c.fields !n (int_token b t !p);
            incr n
          end
        end
      done;
      event c b lo kw !kind_lo !kind_hi !n !name
    with Bad -> malformed
  end

(* The event on the line at [lo], with [c.p] on its '\n'; [blank] or
   [malformed] likewise; or [partial] when no '\n' comes before [stop].
   No byte before [lo] or at or past [stop] is read. The hot loop reads
   the printer's form give or take space runs: a keyword from [lo],
   picked by its first byte and length; fields of spaces and 1 to 18
   decimal digits, which cannot overflow; [String.trim] whitespace
   before the '\n'. It allocates only the event and calls nothing
   before the line's end is found: OCaml has no callee-saved registers,
   so a call spills the live ones. Leading whitespace goes to [lead]; a
   name, and the first byte that leaves the form, to [tail], which goes
   on from the start of that byte's token, never from the line's. *)
let rec parse_line c b lo stop =
  let p = ref lo in
  while !p < stop && is_keyword_char (Bytes.unsafe_get b !p) do
    incr p
  done;
  let kw = !p in
  if kw = lo then lead c b lo stop
  else if
    ((kw - lo = 4 && Bytes.unsafe_get b lo = 'c') || (kw - lo = 12 && Bytes.unsafe_get b lo = 'r'))
    && kw < stop
    && Bytes.unsafe_get b kw = ' '
  then (* call and register_var end in a name *)
    tail c b lo kw stop kw kw 0 kw
  else begin
    let kind_lo = ref kw in
    if kw - lo = 3 && Bytes.unsafe_get b lo = 'c' then begin
      (* clf's kind, the one word field. *)
      while !p < stop && Bytes.unsafe_get b !p = ' ' do
        incr p
      done;
      kind_lo := !p;
      while !p < stop && is_keyword_char (Bytes.unsafe_get b !p) do
        incr p
      done
    end;
    let kind_lo = !kind_lo and kind_hi = !p in
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
    let p0 = !p in
    while !p < stop && Bytes.unsafe_get b !p <> '\n' && is_trim_space (Bytes.unsafe_get b !p) do
      incr p
    done;
    if !p >= stop then partial
    else if Bytes.unsafe_get b !p = '\n' then begin
      c.p <- !p;
      event c b lo kw kind_lo kind_hi !n ""
    end
    else if Bytes.unsafe_get b p0 = ' ' then tail c b lo kw stop kind_lo kind_hi !n p0
    else if !n > 0 then begin
      (* The last field's token goes on past its digits: the tail reads
         it again from its start, the byte after a space. *)
      let t = ref p0 in
      while Bytes.unsafe_get b (!t - 1) <> ' ' do
        decr t
      done;
      tail c b lo kw stop kind_lo kind_hi (!n - 1) !t
    end
    else if kind_lo > kw then (* clf's kind goes on, or is not a word *)
      tail c b lo kw stop (-1) 0 0 kind_lo
    else (* the first token goes on past its letters: it is no keyword *)
      to_newline c b p0 stop malformed
  end

(* A line that does not start with a keyword's letter: leading
   whitespace, a blank or comment line, or no keyword. *)
and lead c b lo stop =
  let p = ref lo in
  while !p < stop && Bytes.unsafe_get b !p <> '\n' && is_trim_space (Bytes.unsafe_get b !p) do
    incr p
  done;
  if !p >= stop then partial
  else
    let ch = Bytes.unsafe_get b !p in
    if ch = '\n' || ch = '#' then to_newline c b !p stop blank
    else if is_keyword_char ch then parse_line c b !p stop
    else to_newline c b !p stop malformed

(* ------------------------------------------------------------------ *)
(* Decoder: the one line framer and end rule. A line is the range      *)
(* before a '\n', or the unterminated rest at [finish]. A line wholly  *)
(* inside a chunk is parsed where it lies; only a line split across    *)
(* chunks is copied, into [carry]. Line numbers count blank and        *)
(* comment lines.                                                      *)
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
    let cur = { p = 0; fields = Array.make 4 0 } and carry = Buffer.create 256 in
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

  (* [ev], parsed from the line at [b.[lo]] whose '\n' is at [d.cur.p]. *)
  let[@inline] line d b lo ev =
    d.lineno <- d.lineno + 1;
    if ev == blank then ()
    else if ev == malformed then begin
      let msg = Printf.sprintf "cannot parse event %S" (String.trim (Bytes.sub_string b lo (d.cur.p - lo))) in
      if d.lenient then begin
        d.skipped <- d.skipped + 1;
        d.on_skip d.lineno msg
      end
      else raise_notrace (Strict (Printf.sprintf "line %d: %s" d.lineno msg))
    end
    else deliver d ev

  (* The carried line, completed by [b.[lo, hi)] and a '\n'. *)
  let carried_line d b lo hi =
    Buffer.add_subbytes d.carry b lo (hi - lo);
    Buffer.add_char d.carry '\n';
    let b = Buffer.to_bytes d.carry in
    Buffer.clear d.carry;
    line d b 0 (parse_line d.cur b 0 (Bytes.length b))

  let feed d b ~off ~len =
    if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Trace_io.Decoder.feed";
    (* Bytes past [stop] in a reused read buffer are stale. *)
    let stop = off + len and c = d.cur in
    let rec go start =
      if start < stop then begin
        let ev = parse_line c b start stop in
        if ev == partial then Buffer.add_subbytes d.carry b start (stop - start)
        else begin
          line d b start ev;
          go (c.p + 1)
        end
      end
    in
    try
      if Buffer.length d.carry = 0 then go off
      else if to_newline c b off stop blank == partial then Buffer.add_subbytes d.carry b off len
      else begin
        (* The carried line ends at the chunk's first '\n', [c.p], which
           parsing it moves. *)
        let nl = c.p in
        carried_line d b off nl;
        go (nl + 1)
      end;
      Ok ()
    with Strict msg -> Error msg

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
    match if Buffer.length d.carry > 0 then carried_line d Bytes.empty 0 0 with
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
