(* A sparse image: a growable table of 4 KiB pages, each allocated on
   its first write. A pool that registers 2 MiB but touches a handful
   of lines costs a handful of pages, and so does every copy of it. *)

let page_bits = 12

let page_size = 1 lsl page_bits

(* The shared marker of a page never written; it reads as zeros and is
   never written to. *)
let absent = Bytes.empty

type t = {
  mutable pages : bytes array;
  (* The undo journal: while [journaling], every write first appends
     the bytes it overwrites to [saved] and its (addr, len) to
     [spans]. Both buffers are kept across journals, so a steady
     open/rollback cycle allocates nothing. *)
  mutable journaling : bool;
  mutable saved : bytes;
  mutable saved_len : int;
  mutable spans : int array;
  mutable n_spans : int;
}

let create () =
  { pages = Array.make 16 absent; journaling = false; saved = Bytes.empty; saved_len = 0; spans = [||]; n_spans = 0 }

let check_addr addr = if addr < 0 then invalid_arg "Pmem.Image: negative address"

let page_for_write t p =
  let n = Array.length t.pages in
  if p >= n then begin
    let rec grow c = if c > p then c else grow (2 * c) in
    let pages = Array.make (grow n) absent in
    Array.blit t.pages 0 pages 0 n;
    t.pages <- pages
  end;
  let page = t.pages.(p) in
  if page != absent then page
  else begin
    let page = Bytes.make page_size '\000' in
    t.pages.(p) <- page;
    page
  end

(* Copies [len] image bytes from [addr] into [dst] at [off]; unwritten
   pages read as zeros. *)
let read_into t ~addr dst ~off ~len =
  let rec go addr off len =
    if len > 0 then begin
      let p = addr lsr page_bits and o = addr land (page_size - 1) in
      let k = min len (page_size - o) in
      let page = if p < Array.length t.pages then t.pages.(p) else absent in
      if page == absent then Bytes.fill dst off k '\000' else Bytes.blit page o dst off k;
      go (addr + k) (off + k) (len - k)
    end
  in
  go addr off len

let write_raw t ~addr src ~off ~len =
  let rec go addr off len =
    if len > 0 then begin
      let o = addr land (page_size - 1) in
      let k = min len (page_size - o) in
      Bytes.blit src off (page_for_write t (addr lsr page_bits)) o k;
      go (addr + k) (off + k) (len - k)
    end
  in
  go addr off len

let grow_bytes b need =
  if need <= Bytes.length b then b
  else begin
    let nb = Bytes.create (max need (2 * Bytes.length b)) in
    Bytes.blit b 0 nb 0 (Bytes.length b);
    nb
  end

(* Every write path calls this before it changes [\[addr, addr+len)]. *)
let note t addr len =
  if t.journaling && len > 0 then begin
    t.saved <- grow_bytes t.saved (t.saved_len + len);
    read_into t ~addr t.saved ~off:t.saved_len ~len;
    t.saved_len <- t.saved_len + len;
    if 2 * (t.n_spans + 1) > Array.length t.spans then begin
      let spans = Array.make (max 16 (2 * Array.length t.spans)) 0 in
      Array.blit t.spans 0 spans 0 (2 * t.n_spans);
      t.spans <- spans
    end;
    t.spans.(2 * t.n_spans) <- addr;
    t.spans.((2 * t.n_spans) + 1) <- len;
    t.n_spans <- t.n_spans + 1
  end

let open_journal t =
  if t.journaling then invalid_arg "Pmem.Image.open_journal: a journal is already open";
  t.journaling <- true

(* Newest write first, so overlapping writes restore the oldest bytes. *)
let rollback t =
  t.journaling <- false;
  for i = t.n_spans - 1 downto 0 do
    let addr = t.spans.(2 * i) and len = t.spans.((2 * i) + 1) in
    t.saved_len <- t.saved_len - len;
    write_raw t ~addr t.saved ~off:t.saved_len ~len
  done;
  t.n_spans <- 0;
  t.saved_len <- 0

let write_sub t ~addr b ~off ~len =
  if addr < 0 then invalid_arg "Image.write_sub: negative address";
  note t addr len;
  write_raw t ~addr b ~off ~len

let write t ~addr b = write_sub t ~addr b ~off:0 ~len:(Bytes.length b)

let read t ~addr ~len =
  check_addr addr;
  let out = Bytes.create len in
  read_into t ~addr out ~off:0 ~len;
  out

let get_u8 t addr =
  check_addr addr;
  let p = addr lsr page_bits in
  if p >= Array.length t.pages then 0
  else
    let page = t.pages.(p) in
    if page == absent then 0 else Char.code (Bytes.get page (addr land (page_size - 1)))

let set_u8 t addr v =
  check_addr addr;
  note t addr 1;
  Bytes.set (page_for_write t (addr lsr page_bits)) (addr land (page_size - 1)) (Char.chr (v land 0xff))

let get_i64 t addr =
  check_addr addr;
  let p = addr lsr page_bits and o = addr land (page_size - 1) in
  if o <= page_size - 8 then
    if p >= Array.length t.pages then 0L
    else
      let page = t.pages.(p) in
      if page == absent then 0L else Bytes.get_int64_le page o
  else Bytes.get_int64_le (read t ~addr ~len:8) 0

let set_i64 t addr v =
  check_addr addr;
  note t addr 8;
  let o = addr land (page_size - 1) in
  if o <= page_size - 8 then Bytes.set_int64_le (page_for_write t (addr lsr page_bits)) o v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_raw t ~addr b ~off:0 ~len:8
  end

let get_int t addr = Int64.to_int (get_i64 t addr)

let set_int t addr v = set_i64 t addr (Int64.of_int v)

let get_string t ~addr ~len = Bytes.unsafe_to_string (read t ~addr ~len)

let set_string t ~addr s = write t ~addr (Bytes.of_string s)

let copy t =
  {
    (create ()) with
    pages = Array.map (fun page -> if page == absent then absent else Bytes.copy page) t.pages;
  }

(* A cache line never straddles a page, so a line is one blit — or
   nothing at all when both sides are unwritten. *)
let blit_line ~src ~dst ~line =
  let lo = line * Addr.cache_line_size in
  check_addr lo;
  let p = lo lsr page_bits and o = lo land (page_size - 1) in
  let page_of img = if p < Array.length img.pages then img.pages.(p) else absent in
  let s = page_of src in
  if s != absent || page_of dst != absent then begin
    note dst lo Addr.cache_line_size;
    let d = page_for_write dst p in
    if s == absent then Bytes.fill d o Addr.cache_line_size '\000' else Bytes.blit s o d o Addr.cache_line_size
  end

let equal_range a b ~lo ~hi = Bytes.equal (read a ~addr:lo ~len:(hi - lo)) (read b ~addr:lo ~len:(hi - lo))
