(* Bounded single-producer / single-consumer ring on OCaml Domains.

   The router (one producer) feeds each shard worker (one consumer)
   through one of these. Publication protocol: the producer writes the
   element into the ring plainly, then bumps [tail] with a sequentially
   consistent atomic store — the consumer's atomic read of [tail]
   therefore happens-after the element write. Symmetrically the
   consumer clears the cell before bumping [head]. Each side caches the
   other side's index and refreshes it only on apparent full/empty, so
   the steady-state cost is two plain array accesses and one atomic
   store per element.

   Blocking uses bounded exponential backoff: a short [cpu_relax] spin
   first, then sleeps whose duration doubles per retry up to a 1ms cap.
   The sleep tier matters on machines with fewer cores than domains
   (including single-core CI hosts), where a pure spin would steal the
   timeslice the opposite side needs to make progress; the exponential
   growth keeps a long stall from burning a core at the minimum sleep
   quantum while still reacting within microseconds to a short one.

   Either side may [close] the queue. A closed queue never wedges the
   other side: a producer blocked in [push] (or arriving later) gets
   [Closed] instead of spinning forever on a dead consumer, and a
   consumer's [pop] drains whatever was already published, then raises
   [Closed] instead of waiting for a producer that is gone.

   Exact delivery under a close race: [push] re-checks
   [closed] immediately before the publishing [tail] store (cheap early
   exit) and once more immediately after it. The post-publish check is
   what makes the guarantee exact rather than best-effort: with
   sequentially consistent atomics, a push that returns normally read
   [closed = false] *after* its [tail] store, so that store precedes
   the close in the SC total order — and any consumer that observes
   the close and then does a final drain (as [pop] does before raising
   [Closed]) is guaranteed to see the element. Conversely a push that
   races a consumer-side close raises [Closed]; delivery of that
   in-flight element is indeterminate (the closer may or may not have
   drained it), but it is never lost *silently* — before this check, a
   producer racing a close on a non-full ring would publish an element
   nobody would ever pop, and a router counting pushed-vs-processed
   events would stall forever on the phantom. *)

exception Closed

type 'a t = {
  buf : 'a option array;
  mask : int;
  head : int Atomic.t; (* next index to pop; written by the consumer only *)
  tail : int Atomic.t; (* next index to fill; written by the producer only *)
  closed : bool Atomic.t; (* set by either side, never cleared *)
  mutable cached_head : int; (* producer's view of [head] *)
  mutable cached_tail : int; (* consumer's view of [tail] *)
}

let create ~capacity =
  let cap = max 2 capacity in
  (* Round up to a power of two so index wrap is a mask. *)
  let rec pow2 n = if n >= cap then n else pow2 (n * 2) in
  let n = pow2 2 in
  {
    buf = Array.make n None;
    mask = n - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    closed = Atomic.make false;
    cached_head = 0;
    cached_tail = 0;
  }

let capacity t = t.mask + 1

let close t = Atomic.set t.closed true

let spin_limit = 32

let max_sleep = 0.001

let backoff n =
  if n < spin_limit then Domain.cpu_relax ()
  else begin
    (* Exponential sleep: 1µs, 2µs, 4µs, ... capped at [max_sleep].
       On an oversubscribed machine the opposite side cannot run until
       we yield the core. *)
    let k = min (n - spin_limit) 20 in
    Unix.sleepf (min max_sleep (1e-6 *. float_of_int (1 lsl k)))
  end

let push t v =
  if Atomic.get t.closed then raise Closed;
  let tail = Atomic.get t.tail in
  if tail - t.cached_head >= capacity t then begin
    let n = ref 0 in
    t.cached_head <- Atomic.get t.head;
    while tail - t.cached_head >= capacity t do
      if Atomic.get t.closed then raise Closed;
      backoff !n;
      incr n;
      t.cached_head <- Atomic.get t.head
    done
  end;
  t.buf.(tail land t.mask) <- Some v;
  (* Re-check immediately before the publishing store — the full-queue
     wait above is not the only window where the consumer can close. *)
  if Atomic.get t.closed then raise Closed;
  Atomic.set t.tail (tail + 1);
  (* And immediately after: see the close-race note in the header. *)
  if Atomic.get t.closed then raise Closed

(* The next element, or [None] while the queue looks empty. *)
let try_pop t =
  let head = Atomic.get t.head in
  if head >= t.cached_tail then t.cached_tail <- Atomic.get t.tail;
  if head >= t.cached_tail then None
  else begin
    let v = t.buf.(head land t.mask) in
    t.buf.(head land t.mask) <- None;
    Atomic.set t.head (head + 1);
    v
  end

let pop t =
  let rec go n =
    match try_pop t with
    | Some v -> v
    | None ->
        (* Re-check emptiness after observing [closed]: the producer may
           have published elements before closing, and those must drain
           before the consumer sees [Closed]. *)
        if Atomic.get t.closed then (
          match try_pop t with Some v -> v | None -> raise Closed)
        else begin
          backoff n;
          go (n + 1)
        end
  in
  go 0
