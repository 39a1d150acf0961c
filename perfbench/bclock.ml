(* Every timing the benchmark takes reads this nanosecond monotonic
   clock: Unix.gettimeofday is too coarse for single detector calls. *)

let now () = Monotonic_clock.now ()

let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

let time f =
  let t0 = now () in
  let r = f () in
  (r, ns_since t0)
