(** Pmemcheck-style baseline: industry-quality tree-only bookkeeping.

    Every store inserts a node into one address-ordered tree; the tree
    is reorganized (adjacent regions merged) after insertions and at
    every fence — the per-location tree maintenance the paper's
    characterization shows cannot be amortized (§3, Pattern 1). Detects
    the four Table 6 kinds Pmemcheck supports: no durability, multiple
    overwrites, redundant flush and flush nothing. *)

type t

val create : unit -> t

val sink : t -> Pmtrace.Sink.t

val avg_tree_nodes_per_fence : t -> float

val reorganizations : t -> int
