open Pmem

type logged = { range : Addr.range; seq : int }

type t = (int, logged list ref) Hashtbl.t

let create () = Hashtbl.create 8

let note t ~tid range ~seq =
  let entries =
    match Hashtbl.find_opt t tid with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t tid l;
        l
  in
  match List.find_opt (fun e -> Addr.overlaps e.range range) !entries with
  | Some _ as prior -> prior
  | None ->
      entries := { range; seq } :: !entries;
      None

let reset t ~tid = Hashtbl.remove t tid
