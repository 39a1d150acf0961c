type fstate = Not_flushed | Partially_flushed | All_flushed

type t = {
  mutable start_idx : int;
  mutable end_idx : int;
  mutable min_addr : int;
  mutable max_addr : int;
  mutable state : fstate;
  mutable invalidated : int;
  mutable clf_seq : int;
      (* Sequence number of the collective CLF that set All_flushed
         (-1 otherwise): the shared provenance of every slot the
         interval covers, so Pattern-2 updates stay O(1) yet causal
         chains can still name the flush. *)
}

let make ~start_idx =
  {
    start_idx;
    end_idx = -1;
    min_addr = max_int;
    max_addr = min_int;
    state = Not_flushed;
    invalidated = 0;
    clf_seq = -1;
  }

let reset t ~start_idx =
  t.start_idx <- start_idx;
  t.end_idx <- -1;
  t.min_addr <- max_int;
  t.max_addr <- min_int;
  t.state <- Not_flushed;
  t.invalidated <- 0;
  t.clf_seq <- -1

let is_empty t = t.end_idx < t.start_idx

let note_store t ~idx ~lo ~hi =
  t.end_idx <- idx;
  if lo < t.min_addr then t.min_addr <- lo;
  if hi > t.max_addr then t.max_addr <- hi

let pp ppf t =
  let state_name = match t.state with Not_flushed -> "not" | Partially_flushed -> "partial" | All_flushed -> "all" in
  if is_empty t then Format.fprintf ppf "interval[%d..empty %s]" t.start_idx state_name
  else Format.fprintf ppf "interval[%d..%d %s [%d,%d)]" t.start_idx t.end_idx state_name t.min_addr t.max_addr
