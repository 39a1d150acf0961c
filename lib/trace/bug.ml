type kind =
  | No_durability
  | Multiple_overwrites
  | No_order_guarantee
  | Redundant_flush
  | Flush_nothing
  | Redundant_logging
  | Lack_durability_in_epoch
  | Redundant_epoch_fence
  | Lack_ordering_in_strands
  | Cross_failure_semantic

let all_kinds =
  [
    No_durability;
    Multiple_overwrites;
    No_order_guarantee;
    Redundant_flush;
    Flush_nothing;
    Redundant_logging;
    Lack_durability_in_epoch;
    Redundant_epoch_fence;
    Lack_ordering_in_strands;
    Cross_failure_semantic;
  ]

(* Position in [all_kinds]. *)
let kind_rank = function
  | No_durability -> 0
  | Multiple_overwrites -> 1
  | No_order_guarantee -> 2
  | Redundant_flush -> 3
  | Flush_nothing -> 4
  | Redundant_logging -> 5
  | Lack_durability_in_epoch -> 6
  | Redundant_epoch_fence -> 7
  | Lack_ordering_in_strands -> 8
  | Cross_failure_semantic -> 9

let kind_name = function
  | No_durability -> "no-durability-guarantee"
  | Multiple_overwrites -> "multiple-overwrites"
  | No_order_guarantee -> "no-order-guarantee"
  | Redundant_flush -> "redundant-flush"
  | Flush_nothing -> "flush-nothing"
  | Redundant_logging -> "redundant-logging"
  | Lack_durability_in_epoch -> "lack-durability-in-epoch"
  | Redundant_epoch_fence -> "redundant-epoch-fence"
  | Lack_ordering_in_strands -> "lack-ordering-in-strands"
  | Cross_failure_semantic -> "cross-failure-semantic"

let pp_kind ppf k = Format.pp_print_string ppf (kind_name k)

type cause = { c_seq : int; c_class : string; c_addr : int; c_size : int; c_note : string }

let cause ?(addr = -1) ?(size = 0) ?(note = "") ~cls seq = { c_seq = seq; c_class = cls; c_addr = addr; c_size = size; c_note = note }

(* Chains are canonical by construction: ascending, one cause per seq,
   no placeholder (negative) seqs. Rule code can therefore append causes
   in whatever order the bookkeeping yields them. *)
let normalize_chain chain =
  let sorted = List.stable_sort (fun a b -> compare a.c_seq b.c_seq) (List.filter (fun c -> c.c_seq >= 0) chain) in
  let rec dedup = function
    | a :: (b :: _ as rest) when a.c_seq = b.c_seq -> dedup rest (* keep the later, usually richer, note *)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

type t = { kind : kind; addr : int; size : int; seq : int; detail : string; chain : cause list }

let make ?(addr = -1) ?(size = 0) ?(seq = -1) ?(detail = "") ?(chain = []) kind =
  { kind; addr; size; seq; detail; chain = normalize_chain chain }

let pp_cause ppf c =
  Format.fprintf ppf "#%d %s" c.c_seq c.c_class;
  if c.c_addr >= 0 then Format.fprintf ppf " @@%d+%d" c.c_addr c.c_size;
  if c.c_note <> "" then Format.fprintf ppf " — %s" c.c_note

let pp ppf b =
  Format.fprintf ppf "%a" pp_kind b.kind;
  if b.addr >= 0 then Format.fprintf ppf " @@%d+%d" b.addr b.size;
  if b.seq >= 0 then Format.fprintf ppf " (seq %d)" b.seq;
  if b.detail <> "" then Format.fprintf ppf ": %s" b.detail

let compare_cause a b =
  compare (a.c_seq, a.c_class, a.c_addr, a.c_size, a.c_note) (b.c_seq, b.c_class, b.c_addr, b.c_size, b.c_note)

(* Total order independent of detection-internal iteration orders
   (hashtable layouts, fire order within one event): the shard merge
   sorts with this, and parity tests rely on it. *)
let compare_canonical a b =
  let c = compare (a.seq, kind_rank a.kind, a.addr, a.size, a.detail) (b.seq, kind_rank b.kind, b.addr, b.size, b.detail) in
  if c <> 0 then c else List.compare compare_cause a.chain b.chain

(* Dedup per (kind, addr), a cap per kind, firing order: the one
   admission policy every detector reports through. *)
module Ledger = struct
  type finding = t

  type admission = Admitted | Duplicate | Capped

  (* Admitted addresses, one table per kind: a rule on a hot address
     asks once per event, so the lookup hashes and compares one [int]
     and allocates nothing. *)
  module Addrs = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b

    let hash = Hashtbl.hash
  end)

  type nonrec t = {
    seen : unit Addrs.t array; (* by [kind_rank] *)
    kind_counts : int array; (* by [kind_rank] *)
    max_per_kind : int;
    mutable found : finding list; (* reverse firing order *)
  }

  let create ?(max_per_kind = 1000) () =
    {
      seen = Array.init (List.length all_kinds) (fun _ -> Addrs.create 8);
      kind_counts = Array.make (List.length all_kinds) 0;
      max_per_kind;
      found = [];
    }

  let admit t kind ~addr =
    let k = kind_rank kind in
    if Addrs.mem t.seen.(k) addr then Duplicate
    else if t.kind_counts.(k) < t.max_per_kind then begin
      t.kind_counts.(k) <- t.kind_counts.(k) + 1;
      Addrs.replace t.seen.(k) addr ();
      Admitted
    end
    else Capped

  let append t bug = t.found <- bug :: t.found

  let add t kind ~addr ?size ~seq ~detail () =
    if admit t kind ~addr = Admitted then append t (make ~addr ?size ~seq ~detail kind)

  let findings t = List.rev t.found
end

type report = {
  detector : string;
  bugs : t list;
  events_processed : int;
  stats : (string * float) list;
  failure : string option;
      (* When the sink raised mid-run and was quarantined by the engine,
         the exception text; the report then covers the prefix of the
         trace the sink saw before failing. *)
}

let empty_report detector = { detector; bugs = []; events_processed = 0; stats = []; failure = None }

let count_kind r k = List.length (List.filter (fun b -> b.kind = k) r.bugs)

let has_kind r k = List.exists (fun b -> b.kind = k) r.bugs

let kinds_found r = List.filter (has_kind r) all_kinds

(* Byte-exact rendering of everything the equality contract covers:
   findings (with full chains), event count and failure status — but not
   [stats], which legitimately differ between bookkeeping layouts (a
   sharded run has N smaller trees, not one big one). *)
let render_canonical r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s events=%d failure=%s\n" r.detector r.events_processed
                           (match r.failure with None -> "-" | Some m -> m));
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "%s addr=%d size=%d seq=%d detail=%s\n" (kind_name b.kind) b.addr b.size b.seq b.detail);
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "  cause seq=%d class=%s addr=%d size=%d note=%s\n" c.c_seq c.c_class c.c_addr c.c_size
               c.c_note))
        b.chain)
    r.bugs;
  Buffer.contents buf

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s: %d bug(s) in %d events@," r.detector (List.length r.bugs) r.events_processed;
  (match r.failure with
  | Some msg -> Format.fprintf ppf "  QUARANTINED: %s@," msg
  | None -> ());
  List.iter (fun b -> Format.fprintf ppf "  %a@," pp b) r.bugs;
  Format.fprintf ppf "@]"
