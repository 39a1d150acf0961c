(** Augmented AVL interval tree over byte ranges.

    This is the tree-like bookkeeping structure used both by the
    Pmemcheck baseline (as its only store) and by PMDebugger (as the
    spill area for locations that survive fences, §4.1 of the paper).

    Keys are half-open ranges ordered by [lo] (ties by [hi]); each node
    is augmented with the subtree's maximum [hi] so that overlap
    queries prune. The tree supports the operations the paper's
    debuggers need: insert, overlap search, in-place split on partial
    flush, conditional removal (fence processing), and the expensive
    {e reorganization} (merging adjacent nodes with equal payloads)
    whose cost Pattern 1 says cannot be amortized. Rotations, merges
    and reorganization passes are counted for the Fig. 11 / §7.5
    experiments. *)

type 'a t

type stats = {
  mutable rotations : int;
  mutable merges : int;  (** nodes eliminated by merging *)
  mutable reorganizations : int;  (** merge passes executed *)
  mutable max_size : int;
}

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val stats : 'a t -> stats

val height : 'a t -> int

val insert : 'a t -> lo:int -> hi:int -> 'a -> unit
(** Insert a node for [\[lo,hi)] carrying payload. Duplicate keys are
    allowed (kept as distinct nodes). Empty ranges are ignored. *)

val exists_overlap : 'a t -> lo:int -> hi:int -> bool
(** Whether some node intersects [\[lo,hi)]. Allocates nothing. *)

val overlapping : 'a t -> lo:int -> hi:int -> (Pmem.Addr.range * 'a) list
(** All nodes whose range intersects [\[lo,hi)], in key order. *)

val collect_overlapping : 'a t -> lo:int -> hi:int -> int
(** {!overlapping} without the list: snapshot the intersecting nodes,
    in key order, into a buffer the tree keeps and reuses, and return
    their number [k]. Read hit [i] ([0 <= i < k]) with {!hit_lo},
    {!hit_hi} and {!hit_data}. The snapshot is a copy: {!insert} and
    {!remove} leave it intact, so a caller may restructure the tree
    while it walks the hits; the next [collect_overlapping] or
    {!map_overlapping} overwrites it. Allocates nothing once the
    buffer has grown to the largest hit count. *)

val hit_lo : 'a t -> int -> int

val hit_hi : 'a t -> int -> int

val hit_data : 'a t -> int -> 'a

val iter : 'a t -> (lo:int -> hi:int -> 'a -> unit) -> unit
(** In-order traversal. *)

val fold : 'a t -> init:'b -> f:('b -> Pmem.Addr.range -> 'a -> 'b) -> 'b

val to_list : 'a t -> (Pmem.Addr.range * 'a) list

val remove_first : 'a t -> lo:int -> hi:int -> ('a -> bool) -> bool
(** Remove one node with exactly this key whose payload satisfies the
    predicate; true if one was removed. *)

val remove : 'a t -> lo:int -> hi:int -> 'a -> bool
(** Remove one node with exactly this key whose payload is physically
    the given value (duplicate keys stay distinct by identity).
    Allocates nothing. *)

val filter_in_place : 'a t -> (Pmem.Addr.range -> 'a -> bool) -> int
(** Rebuild keeping only nodes satisfying the predicate; returns the
    number removed. This is the whole-tree traversal a fence performs. *)

val map_overlapping :
  'a t -> lo:int -> hi:int -> f:(Pmem.Addr.range -> 'a -> (Pmem.Addr.range * 'a) list) -> int
(** For every node overlapping [\[lo,hi)], replace it by the (possibly
    empty) list [f range payload] — used to mark flushed and to split
    partially flushed ranges. Returns the number of nodes visited. It
    walks the {!collect_overlapping} snapshot, so [f] must not take
    another one of the same tree. *)

val reorganize : 'a t -> eq:('a -> 'a -> bool) -> merge:('a -> 'a -> 'a) -> unit
(** Merge adjacent-or-overlapping nodes whose payloads satisfy [eq]
    into single nodes (payloads combined with [merge]), then rebuild
    balanced. Counted in {!stats}. *)

val min_lo : 'a t -> int
(** The smallest [lo] of any node (the leftmost key), or [max_int] when
    empty. O(log n). *)

val max_hi : 'a t -> int
(** The largest [hi] of any node (the root's augmentation), or
    [min_int] when empty. O(1). Together with {!min_lo}, the tree's
    bounding box. *)

val clear : 'a t -> unit

val check_invariants : 'a t -> unit
(** Raises [Failure] if AVL balance, ordering or max-hi augmentation is
    violated. For tests. *)
