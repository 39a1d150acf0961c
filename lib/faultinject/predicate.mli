(** A tiny recovery-predicate language for the command line.

    Workload recovery invariants in code are arbitrary OCaml closures;
    trace files need a serializable form. An expression is a
    comma-separated conjunction of clauses over a crash image:

    {v
      i64@ADDR=V        eight bytes at ADDR equal V
      u8@ADDR=V         byte at ADDR equals V
      nonzero@ADDR      i64 at ADDR is not 0
      zero@ADDR         i64 at ADDR is 0
      le@A<=B           i64 at A <= i64 at B (counter never ahead of backup)
      ifset@A=>B        i64 at A is 0, or i64 at B is nonzero (valid flag
                        implies guarded data present)
    v} *)

type clause =
  | I64_eq of int * int64
  | U8_eq of int * int
  | Nonzero of int
  | Zero of int
  | Le of int * int
  | Implies_nonzero of int * int

type t = clause list

val parse : string -> (t, string) result

val to_string : t -> string

val eval : t -> Pmem.Image.t -> bool

val recovery : t -> Pmem.Image.t -> bool
(** [eval] partially applied — the recovery predicate
    {!Crash_explore.run} expects. *)
