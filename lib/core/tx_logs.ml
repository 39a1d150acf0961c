(* Per thread, the logged ranges as parallel int arrays, oldest first.
   A reset only empties them, so a thread that logs in every
   transaction reuses its arrays and a log call allocates nothing. *)
type entries = { mutable lo : int array; mutable hi : int array; mutable seq : int array; mutable n : int }

type t = {
  by_tid : (int, entries) Hashtbl.t;
  (* The overlapping range the last [note] found. *)
  mutable prior_lo : int;
  mutable prior_hi : int;
  mutable prior_seq : int;
}

let create () = { by_tid = Hashtbl.create 8; prior_lo = 0; prior_hi = 0; prior_seq = -1 }

let entries t tid =
  match Hashtbl.find t.by_tid tid with
  | e -> e
  | exception Not_found ->
      let e = { lo = Array.make 8 0; hi = Array.make 8 0; seq = Array.make 8 0; n = 0 } in
      Hashtbl.replace t.by_tid tid e;
      e

let grow a = Array.append a (Array.make (Array.length a) 0)

(* [Addr.overlaps]: both ranges non-empty and sharing a byte. *)
let[@inline] overlaps (lo1 : int) hi1 lo2 hi2 = lo1 < hi2 && lo2 < hi1 && lo1 < hi1 && lo2 < hi2

let note t ~tid ~lo ~hi ~seq =
  let e = entries t tid in
  (* Newest first, so the prior is the latest overlapping range. *)
  let i = ref (e.n - 1) in
  while !i >= 0 && not (overlaps e.lo.(!i) e.hi.(!i) lo hi) do
    decr i
  done;
  if !i >= 0 then begin
    t.prior_lo <- e.lo.(!i);
    t.prior_hi <- e.hi.(!i);
    t.prior_seq <- e.seq.(!i);
    true
  end
  else begin
    if e.n = Array.length e.lo then begin
      e.lo <- grow e.lo;
      e.hi <- grow e.hi;
      e.seq <- grow e.seq
    end;
    e.lo.(e.n) <- lo;
    e.hi.(e.n) <- hi;
    e.seq.(e.n) <- seq;
    e.n <- e.n + 1;
    false
  end

let prior_lo t = t.prior_lo

let prior_hi t = t.prior_hi

let prior_seq t = t.prior_seq

let reset t ~tid = match Hashtbl.find t.by_tid tid with e -> e.n <- 0 | exception Not_found -> ()
