type t = {
  mutable addr : int;
  mutable size : int;
  mutable flushed : bool;
  mutable epoch : bool;
  mutable seq : int;
  mutable tid : int;
  mutable strand : int;
  mutable valid : bool;
  mutable clf_seq : int;
}

type payload = {
  mutable p_flushed : bool;
  p_epoch : bool;
  p_seq : int;
  p_tid : int;
  p_strand : int;
  mutable p_clf_seq : int;
  mutable p_fence_seq : int;
}

let fresh () =
  {
    addr = 0;
    size = 0;
    flushed = false;
    epoch = false;
    seq = 0;
    tid = 0;
    strand = -1;
    valid = false;
    clf_seq = -1;
  }

let fill t ~addr ~size ~epoch ~seq ~tid ~strand =
  t.addr <- addr;
  t.size <- size;
  t.flushed <- false;
  t.epoch <- epoch;
  t.seq <- seq;
  t.tid <- tid;
  t.strand <- strand;
  t.valid <- true;
  t.clf_seq <- -1

let payload_of t =
  {
    p_flushed = t.flushed;
    p_epoch = t.epoch;
    p_seq = t.seq;
    p_tid = t.tid;
    p_strand = t.strand;
    p_clf_seq = t.clf_seq;
    p_fence_seq = -1;
  }
