(* The reference bookkeeping: one growable vector of tracked locations,
   scanned linearly by every store, flush and fence — no CLF-interval
   metadata, no spill tree, no bounding box. It is the naive design the
   paper's hybrid structure is measured against (Fig. 10), kept as an
   oracle: Space must make the same observations on every operation
   (see the lockstep property in test_shard.ml and the growth-boundary
   differential in test_space.ml). Every operation is O(tracked). *)

open Pmem

type entry = {
  mutable addr : int;
  mutable size : int;
  mutable flushed : bool;
  epoch : bool;
  seq : int;
  tid : int;
  strand : int;
  mutable clf_seq : int;
  mutable fence_seq : int;
  mutable spilled : bool;
      (* Mirrors tree residency in {!Space}: set once the location has
         crossed a fence unpersisted or was carved out of a partially
         flushed entry. Spilled entries follow the hybrid's tree rules
         (flushed pieces survive a partial overwrite; no fence stamp),
         non-spilled ones the array rules — the observable provenance
         must match the hybrid space exactly. *)
}

type t = { mutable entries : entry array; mutable live : int }

let dummy =
  {
    addr = 0;
    size = 0;
    flushed = false;
    epoch = false;
    seq = -1;
    tid = 0;
    strand = -1;
    clf_seq = -1;
    fence_seq = -1;
    spilled = false;
  }

let create () = { entries = Array.make 64 dummy; live = 0 }

let push t e =
  if t.live = Array.length t.entries then begin
    let bigger = Array.make (2 * t.live) dummy in
    Array.blit t.entries 0 bigger 0 t.live;
    t.entries <- bigger
  end;
  t.entries.(t.live) <- e;
  t.live <- t.live + 1

(* Remove by compaction, preserving insertion order so that scans (and
   therefore observations like [iter_pending]) stay deterministic. *)
let filter_in_place t keep =
  let w = ref 0 in
  for r = 0 to t.live - 1 do
    let e = t.entries.(r) in
    if keep e then begin
      t.entries.(!w) <- e;
      incr w
    end
  done;
  for i = !w to t.live - 1 do
    t.entries.(i) <- dummy
  done;
  t.live <- !w

let range_of e = Addr.range ~lo:e.addr ~hi:(e.addr + e.size)

(* A store's observation: the overlap verdict and the overlapped
   stores' seqs, sorted, deduplicated and capped. *)
type store_result = { overlapped : bool; prior_seqs : int list }

(* {!Pmdebugger.Space.process_store}'s observation in the same shape:
   the verdict it returns plus the prior seqs it leaves in the space. *)
let space_store sp ~addr ~size ~epoch ~seq ~tid ~strand =
  let overlapped = Pmdebugger.Space.process_store sp ~check_overlap:true ~addr ~size ~epoch ~seq ~tid ~strand in
  { overlapped; prior_seqs = Pmdebugger.Space.prior_seqs sp }

let process_store t ~addr ~size ~epoch ~seq ~tid ~strand () =
  let probe = Addr.range ~lo:addr ~hi:(addr + size) in
  let priors = ref [] in
  let pieces = ref [] in
  (* Overwrite semantics mirror {!Space}: a fully covered location is
     superseded outright; a partially covered non-spilled (array-rule)
     entry merely loses its flushed state; a partially covered flushed
     spilled (tree-rule) entry keeps only its non-overlapped parts, and
     keeps them flushed — unflushing the whole region would orphan
     bytes whose lines are no longer dirty. *)
  let superseded = ref false in
  let live = t.live in
  for i = 0 to live - 1 do
    let e = t.entries.(i) in
    if Addr.overlaps (range_of e) probe then begin
      priors := e.seq :: !priors;
      if Addr.covers probe (range_of e) then begin
        e.fence_seq <- min_int;
        (* min_int fence_seq marks the entry dead; compacted below. *)
        superseded := true
      end
      else if not e.spilled then begin
        if e.flushed then begin
          e.flushed <- false;
          e.clf_seq <- -1
        end
      end
      else if e.flushed then begin
        match Addr.diff (range_of e) probe with
        | [] ->
            e.fence_seq <- min_int;
            superseded := true
        | first :: rest ->
            e.addr <- first.Addr.lo;
            e.size <- Addr.size first;
            List.iter
              (fun (part : Addr.range) ->
                pieces := { e with addr = part.Addr.lo; size = Addr.size part } :: !pieces)
              rest
      end
    end
  done;
  if !superseded then filter_in_place t (fun e -> e.fence_seq <> min_int);
  List.iter (push t) (List.rev !pieces);
  push t { addr; size; flushed = false; epoch; seq; tid; strand; clf_seq = -1; fence_seq = -1; spilled = false };
  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
  {
    overlapped = !priors <> [];
    prior_seqs = take Pmtrace.Shard_router.max_prior_seqs (List.sort_uniq compare !priors);
  }

let has_pending_overlap t ~lo ~hi =
  let probe = Addr.range ~lo ~hi in
  let rec go i = i < t.live && (Addr.overlaps (range_of t.entries.(i)) probe || go (i + 1)) in
  go 0

let process_clf ?(seq = -1) t ~lo ~hi =
  let flush = Addr.range ~lo ~hi in
  let matched = ref 0 in
  let newly = ref 0 in
  let redundant = ref [] in
  let redundant_prov = ref [] in
  let splits = ref [] in
  for i = 0 to t.live - 1 do
    let e = t.entries.(i) in
    let r = range_of e in
    if Addr.overlaps r flush then begin
      incr matched;
      if e.flushed then begin
        redundant := (e.addr, e.size) :: !redundant;
        redundant_prov := (e.seq, e.clf_seq) :: !redundant_prov
      end
      else if Addr.covers flush r then begin
        e.flushed <- true;
        e.clf_seq <- seq;
        incr newly
      end
      else begin
        (* Split (§4.3): the covered part becomes flushed in place; the
           uncovered remainders stay tracked unflushed. *)
        (match Addr.inter r flush with
        | None -> ()
        | Some covered ->
            let rest = Addr.diff r covered in
            List.iter
              (fun (part : Addr.range) ->
                splits :=
                  {
                    addr = part.Addr.lo;
                    size = Addr.size part;
                    flushed = false;
                    epoch = e.epoch;
                    seq = e.seq;
                    tid = e.tid;
                    strand = e.strand;
                    clf_seq = -1;
                    fence_seq = e.fence_seq;
                    spilled = true;
                  }
                  :: !splits)
              rest;
            e.addr <- covered.Addr.lo;
            e.size <- Addr.size covered;
            e.flushed <- true;
            e.clf_seq <- seq);
        incr newly
      end
    end
  done;
  List.iter (push t) (List.rev !splits);
  {
    Pmdebugger.Space.matched = !matched;
    newly_flushed = !newly;
    redundant = List.rev !redundant;
    redundant_prov = List.rev !redundant_prov;
  }

let process_fence ?(seq = -1) t =
  (* Only the first crossing stamps: entries already spilled keep the
     stamp (or lack of one) from their own migration, exactly like tree
     residents in {!Space}. *)
  for i = 0 to t.live - 1 do
    let e = t.entries.(i) in
    if (not e.flushed) && not e.spilled then begin
      e.fence_seq <- seq;
      e.spilled <- true
    end
  done;
  filter_in_place t (fun e -> not e.flushed)


let exists_epoch_pending t =
  let rec go i = i < t.live && (t.entries.(i).epoch || go (i + 1)) in
  go 0

let iter_pending t f =
  for i = 0 to t.live - 1 do
    let e = t.entries.(i) in
    f ~addr:e.addr ~size:e.size ~flushed:e.flushed ~epoch:e.epoch ~seq:e.seq ~clf_seq:e.clf_seq
      ~fence_seq:e.fence_seq
  done

let pending_count t = t.live
