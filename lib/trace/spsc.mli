(** Bounded single-producer / single-consumer queue for the sharded
    detection pipeline: one domain pushes, one domain pops. Exactly one
    domain may call {!push} and exactly one may call {!pop} over the
    queue's lifetime.

    Elements are published with a release/acquire-strength protocol
    (sequentially consistent atomics on the indices), so everything the
    producer wrote before {!push} is visible to the consumer after the
    matching pop. Blocking operations use a spin-then-sleep backoff
    whose sleep duration grows exponentially (1µs doubling up to 1ms),
    staying live even when domains outnumber cores without burning a
    core through a long stall.

    Either side may {!close} the queue (poison): a producer blocked in
    {!push} — or arriving later — raises {!Closed} instead of spinning
    on a dead consumer, and {!pop} drains already-published elements
    before raising {!Closed}. A consumer death can therefore never
    wedge a producer, provided the consumer closes the queue on exit
    (wrap the consumer loop in [Fun.protect ~finally:(fun () ->
    Spsc.close q)]).

    Delivery under a close race is exact: {!push} re-checks the closed
    flag immediately before and after the publishing store, so a push
    that returns normally is guaranteed observable by a consumer that
    drains after closing (as {!pop} does before raising), and a push
    racing the close raises {!Closed} instead of publishing an element
    nobody will ever pop. On such a raise the in-flight element's
    delivery is indeterminate — callers must treat {!Closed} as "the
    stream is torn down", not "exactly my element was dropped". *)

type 'a t

exception Closed
(** Raised by {!push} on a closed queue, and by {!pop} on a closed
    {e and drained} queue. *)

val create : capacity:int -> 'a t
(** Capacity is rounded up to a power of two, minimum 2. *)

val close : 'a t -> unit
(** Poison the queue. Idempotent; callable from either side (or a
    third party). Elements already published remain poppable. *)

val push : 'a t -> 'a -> unit
(** Blocks (backoff) while full. Raises {!Closed} if the queue is — or
    becomes, at any point up to and including the publish — closed. *)

val pop : 'a t -> 'a
(** Blocks (backoff) while empty. Raises {!Closed} once the queue is
    closed and drained. *)
