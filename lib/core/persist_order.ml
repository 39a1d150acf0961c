open Pmem

(* [persisted] carries the event (seq, class) at which durability was
   observed (a fence or the program end), so findings can cite the
   exact persist point. *)
type var = { mutable range : Addr.range; mutable stored : bool; mutable persisted : (int * string) option }

type t = { config : Order_config.t; vars : (string, var) Hashtbl.t; funcs_called : (string, unit) Hashtbl.t }

let create config = { config; vars = Hashtbl.create 8; funcs_called = Hashtbl.create 8 }

let constrained t = not (Order_config.is_empty t.config)

let register t ~name range =
  match Hashtbl.find_opt t.vars name with
  | Some v -> v.range <- range
  | None -> Hashtbl.replace t.vars name { range; stored = false; persisted = None }

let call t func = Hashtbl.replace t.funcs_called func ()

let note_store t ~lo ~hi =
  if Hashtbl.length t.vars > 0 then
    Hashtbl.iter
      (fun _ v ->
        if Addr.overlaps_span v.range ~lo ~hi then begin
          v.stored <- true;
          (* A new store invalidates previous durability. *)
          v.persisted <- None
        end)
      t.vars

let update t ~pending ~seq ~cls =
  Hashtbl.iter
    (fun _ v ->
      if v.stored && v.persisted = None && not (pending ~lo:v.range.Addr.lo ~hi:v.range.Addr.hi) then
        v.persisted <- Some (seq, cls))
    t.vars

let persist_point t name = match Hashtbl.find_opt t.vars name with Some v -> v.persisted | None -> None

let gate_open t = function None -> true | Some f -> Hashtbl.mem t.funcs_called f

let check t ~enabled f =
  List.iter
    (fun (e : Order_config.entry) ->
      if enabled e.Order_config.kind && gate_open t e.Order_config.func && persist_point t e.Order_config.first = None
      then
        match Hashtbl.find_opt t.vars e.Order_config.next with
        | Some { range; persisted = Some at; _ } -> f e ~addr:range.Addr.lo ~at
        | _ -> ())
    (Order_config.entries t.config)

let check_writeback t ~lo ~hi f =
  List.iter
    (fun (e : Order_config.entry) ->
      if e.Order_config.kind = Order_config.Cross_strand then
        match Hashtbl.find_opt t.vars e.Order_config.next with
        | Some v when Addr.overlaps_span v.range ~lo ~hi && persist_point t e.Order_config.first = None ->
            f e ~addr:v.range.Addr.lo
        | _ -> ())
    (Order_config.entries t.config)

let name_covering t addr =
  Hashtbl.fold (fun name v acc -> if Addr.contains v.range addr then Some name else acc) t.vars None
