let cache_line_size = 64

let line_of addr = addr lsr 6

let line_base addr = addr land lnot 63

let lines_of_range ~lo ~hi =
  if hi <= lo then []
  else begin
    let first = line_of lo and last = line_of (hi - 1) in
    let rec build i acc = if i < first then acc else build (i - 1) (i :: acc) in
    build last []
  end

type range = { lo : int; hi : int }

let range ~lo ~hi =
  if lo < 0 || hi < lo then
    invalid_arg (Printf.sprintf "Addr.range: bad range [%d,%d)" lo hi);
  { lo; hi }

let of_base_size addr size = range ~lo:addr ~hi:(addr + size)

let size r = r.hi - r.lo

let is_empty r = r.hi <= r.lo

let contains r a = r.lo <= a && a < r.hi

let overlaps_span r ~lo ~hi = r.lo < hi && lo < r.hi && r.lo < r.hi && lo < hi

let overlaps a b = overlaps_span a ~lo:b.lo ~hi:b.hi

let covers outer inner = outer.lo <= inner.lo && inner.hi <= outer.hi

(* [int]-typed: without flambda, [Stdlib.min]/[max] go through the
   polymorphic C compare. *)
let imin (a : int) b = if a <= b then a else b

let imax (a : int) b = if a >= b then a else b

let inter a b =
  let lo = imax a.lo b.lo and hi = imin a.hi b.hi in
  if hi <= lo then None else Some { lo; hi }

let diff r cut =
  let left_hi = imin r.hi cut.lo and right_lo = imax r.lo cut.hi in
  let right = if right_lo < r.hi then [ { lo = right_lo; hi = r.hi } ] else [] in
  if r.lo < left_hi then { lo = r.lo; hi = left_hi } :: right else right

let adjacent_or_overlapping a b = a.lo <= b.hi && b.lo <= a.hi

let join a b = { lo = imin a.lo b.lo; hi = imax a.hi b.hi }

let pp ppf r = Format.fprintf ppf "[%d,%d)" r.lo r.hi

let to_string r = Format.asprintf "%a" pp r
