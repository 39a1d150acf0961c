(* The reference image: one flat byte buffer, doubled on demand and
   copied whole. It is the design Pmem.Image's sparse page table
   replaced, kept as an oracle: every read, write, copy and line blit
   must agree with it (see the differential property in
   test_image.ml). *)

type t = { mutable data : bytes }

let create () = { data = Bytes.make 4096 '\000' }

let ensure t upto =
  let cap = Bytes.length t.data in
  if upto > cap then begin
    let new_cap =
      let rec grow c = if c >= upto then c else grow (c * 2) in
      grow cap
    in
    let nd = Bytes.make new_cap '\000' in
    Bytes.blit t.data 0 nd 0 cap;
    t.data <- nd
  end

let write_sub t ~addr b ~off ~len =
  if addr < 0 then invalid_arg "Image.write_sub: negative address";
  ensure t (addr + len);
  Bytes.blit b off t.data addr len

let write t ~addr b = write_sub t ~addr b ~off:0 ~len:(Bytes.length b)

let read t ~addr ~len =
  let out = Bytes.make len '\000' in
  let cap = Bytes.length t.data in
  let avail = max 0 (min len (cap - addr)) in
  if avail > 0 then Bytes.blit t.data addr out 0 avail;
  out

let get_u8 t addr = if addr >= Bytes.length t.data then 0 else Char.code (Bytes.get t.data addr)

let set_u8 t addr v =
  ensure t (addr + 1);
  Bytes.set t.data addr (Char.chr (v land 0xff))

let get_i64 t addr =
  if addr + 8 <= Bytes.length t.data then Bytes.get_int64_le t.data addr
  else Bytes.get_int64_le (read t ~addr ~len:8) 0

let set_i64 t addr v =
  ensure t (addr + 8);
  Bytes.set_int64_le t.data addr v

let get_int t addr = Int64.to_int (get_i64 t addr)

let set_int t addr v = set_i64 t addr (Int64.of_int v)

let get_string t ~addr ~len = Bytes.to_string (read t ~addr ~len)

let set_string t ~addr s = write t ~addr (Bytes.of_string s)

let copy t = { data = Bytes.copy t.data }

let copy_range ~src ~dst ~lo ~hi =
  if hi > lo then begin
    ensure dst hi;
    let b = read src ~addr:lo ~len:(hi - lo) in
    Bytes.blit b 0 dst.data lo (hi - lo)
  end

let blit_line ~src ~dst ~line =
  let lo = line * Pmem.Addr.cache_line_size in
  copy_range ~src ~dst ~lo ~hi:(lo + Pmem.Addr.cache_line_size)

let equal_range a b ~lo ~hi = Bytes.equal (read a ~addr:lo ~len:(hi - lo)) (read b ~addr:lo ~len:(hi - lo))
