(** Addresses, byte ranges and cache-line arithmetic.

    All PM addresses in the simulator are plain non-negative [int] byte
    offsets into a PM pool. A {!range} is half-open: [\[lo, hi)]. *)

val cache_line_size : int
(** Size of a cache line in bytes (64, as on x86). *)

val line_of : int -> int
(** [line_of addr] is the index of the cache line containing [addr]. *)

val line_base : int -> int
(** [line_base addr] is the address of the first byte of [addr]'s line. *)

val lines_of_range : lo:int -> hi:int -> int list
(** [lines_of_range ~lo ~hi] lists the indexes of every cache line touched
    by the half-open byte range [\[lo, hi)]. Empty if [hi <= lo]. *)

type range = { lo : int; hi : int }
(** Half-open byte range [\[lo, hi)]. Invariant: [lo <= hi]. *)

val range : lo:int -> hi:int -> range
(** [range ~lo ~hi] builds a range. Raises [Invalid_argument] if
    [hi < lo] or [lo < 0]. *)

val of_base_size : int -> int -> range
(** [of_base_size addr size] is [\[addr, addr+size)]. *)

val size : range -> int

val is_empty : range -> bool

val contains : range -> int -> bool
(** [contains r a] is true iff [lo <= a < hi]. *)

val overlaps : range -> range -> bool
(** True iff the two ranges share at least one byte. *)

val overlaps_span : range -> lo:int -> hi:int -> bool
(** [overlaps_span r ~lo ~hi] is [overlaps r (range ~lo ~hi)], without
    building (or validating) the second range. *)

val covers : range -> range -> bool
(** [covers outer inner] is true iff [inner] is fully inside [outer]. *)

val inter : range -> range -> range option
(** Intersection, or [None] when disjoint or empty. *)

val diff : range -> range -> range list
(** [diff r cut] is the (0, 1 or 2) non-empty sub-ranges of [r] not
    covered by [cut]. *)

val adjacent_or_overlapping : range -> range -> bool
(** True iff the ranges overlap or touch end-to-end (mergeable). *)

val join : range -> range -> range
(** Smallest range covering both arguments. *)

val pp : Format.formatter -> range -> unit
(** Prints as [[lo,hi)]. *)

val to_string : range -> string
