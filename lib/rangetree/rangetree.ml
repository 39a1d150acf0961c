open Pmem

(* Nodes are inline records of the [Node] constructor, so a child link
   is the node itself: no [Some] box per link, and no allocation when a
   subtree keeps its root. *)
type 'a tree =
  | Leaf
  | Node of {
      mutable lo : int;
      mutable hi : int;
      mutable data : 'a;
      mutable left : 'a tree;
      mutable right : 'a tree;
      mutable height : int;
      mutable max_hi : int;
    }

type stats = {
  mutable rotations : int;
  mutable merges : int;
  mutable reorganizations : int;
  mutable max_size : int;
}

type 'a t = {
  mutable root : 'a tree;
  mutable count : int;
  st : stats;
  (* The last [collect_overlapping] snapshot, reused across calls. *)
  mutable hits : int;
  mutable hit_lo : int array;
  mutable hit_hi : int array;
  mutable hit_data : 'a array;
}

let create () =
  {
    root = Leaf;
    count = 0;
    st = { rotations = 0; merges = 0; reorganizations = 0; max_size = 0 };
    hits = 0;
    hit_lo = [||];
    hit_hi = [||];
    hit_data = [||];
  }

let size t = t.count

let is_empty t = t.count = 0

let stats t = t.st

(* The build has no flambda: [Stdlib.max] and an untyped [<] go through
   the polymorphic C compare. Every key compare here is on [int]. *)
let imax (a : int) b = if a >= b then a else b

let h = function Leaf -> 0 | Node n -> n.height

let mh = function Leaf -> min_int | Node n -> n.max_hi

let[@inline] update = function
  | Leaf -> ()
  | Node n ->
      n.height <- 1 + imax (h n.left) (h n.right);
      n.max_hi <- imax n.hi (imax (mh n.left) (mh n.right))

let height t = h t.root

(* Standard AVL rotations, mutating in place; stats count each rotation. *)
let rotate_right t node =
  match node with
  | Node ({ left = Node l as pivot; _ } as n) ->
      t.st.rotations <- t.st.rotations + 1;
      n.left <- l.right;
      l.right <- node;
      update node;
      update pivot;
      pivot
  | _ -> node

let rotate_left t node =
  match node with
  | Node ({ right = Node r as pivot; _ } as n) ->
      t.st.rotations <- t.st.rotations + 1;
      n.right <- r.left;
      r.left <- node;
      update node;
      update pivot;
      pivot
  | _ -> node

let rebalance t node =
  match node with
  | Leaf -> node
  | Node n ->
      update node;
      let bf = h n.left - h n.right in
      if bf > 1 then begin
        (match n.left with Node l when h l.right > h l.left -> n.left <- rotate_left t n.left | _ -> ());
        rotate_right t node
      end
      else if bf < -1 then begin
        (match n.right with Node r when h r.left > h r.right -> n.right <- rotate_right t n.right | _ -> ());
        rotate_left t node
      end
      else node

let key_lt (lo1 : int) (hi1 : int) lo2 hi2 = lo1 < lo2 || (lo1 = lo2 && hi1 < hi2)

let rec ins t lo hi data node =
  match node with
  | Leaf -> Node { lo; hi; data; left = Leaf; right = Leaf; height = 1; max_hi = hi }
  | Node n ->
      if key_lt lo hi n.lo n.hi then begin
        let l = ins t lo hi data n.left in
        if l != n.left then n.left <- l
      end
      else begin
        let r = ins t lo hi data n.right in
        if r != n.right then n.right <- r
      end;
      rebalance t node

let insert t ~lo ~hi data =
  if hi > lo then begin
    t.root <- ins t lo hi data t.root;
    t.count <- t.count + 1;
    if t.count > t.st.max_size then t.st.max_size <- t.count
  end

let rec exists_in lo hi = function
  | Leaf -> false
  | Node n -> n.max_hi > lo && (exists_in lo hi n.left || (n.lo < hi && (lo < n.hi || exists_in lo hi n.right)))

let exists_overlap t ~lo ~hi = exists_in lo hi t.root

let overlapping t ~lo ~hi =
  let acc = ref [] in
  let rec go = function
    | Leaf -> ()
    | Node n ->
        if n.max_hi > lo then begin
          go n.left;
          if n.lo < hi && lo < n.hi then acc := (Addr.range ~lo:n.lo ~hi:n.hi, n.data) :: !acc;
          if n.lo < hi then go n.right
        end
  in
  go t.root;
  List.rev !acc

let push_hit t lo hi data =
  let i = t.hits in
  if i = Array.length t.hit_lo then begin
    let cap = imax 16 (2 * i) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 i;
      b
    in
    t.hit_lo <- grow t.hit_lo 0;
    t.hit_hi <- grow t.hit_hi 0;
    t.hit_data <- grow t.hit_data data
  end;
  t.hit_lo.(i) <- lo;
  t.hit_hi.(i) <- hi;
  t.hit_data.(i) <- data;
  t.hits <- i + 1

let rec collect t lo hi = function
  | Leaf -> ()
  | Node n ->
      if n.max_hi > lo then begin
        collect t lo hi n.left;
        if n.lo < hi && lo < n.hi then push_hit t n.lo n.hi n.data;
        if n.lo < hi then collect t lo hi n.right
      end

let collect_overlapping t ~lo ~hi =
  t.hits <- 0;
  collect t lo hi t.root;
  t.hits

let hit_lo t i = t.hit_lo.(i)

let hit_hi t i = t.hit_hi.(i)

let hit_data t i = t.hit_data.(i)

let iter t f =
  let rec go = function
    | Leaf -> ()
    | Node n ->
        go n.left;
        f ~lo:n.lo ~hi:n.hi n.data;
        go n.right
  in
  go t.root

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ~lo ~hi d -> acc := f !acc (Addr.range ~lo ~hi) d);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc r d -> (r, d) :: acc))

(* Rebuild a perfectly balanced tree from a sorted (range, data) array. *)
let rebuild t items =
  let arr = Array.of_list items in
  let rec build lo hi =
    if lo >= hi then Leaf
    else begin
      let mid = (lo + hi) / 2 in
      let (r : Addr.range), d = arr.(mid) in
      let left = build lo mid and right = build (mid + 1) hi in
      let n = Node { lo = r.Addr.lo; hi = r.Addr.hi; data = d; left; right; height = 1; max_hi = r.Addr.hi } in
      update n;
      n
    end
  in
  t.root <- build 0 (Array.length arr);
  t.count <- Array.length arr;
  if t.count > t.st.max_size then t.st.max_size <- t.count

let filter_in_place t pred =
  let kept = fold t ~init:[] ~f:(fun acc r d -> if pred r d then (r, d) :: acc else acc) in
  let kept = List.rev kept in
  let removed = t.count - List.length kept in
  if removed > 0 then rebuild t kept;
  removed

let rec min_node node = match node with Node { left = Node _ as l; _ } -> min_node l | _ -> node

(* Unlink [succ], the leftmost node of [node], rebalancing the path. *)
let rec del_min t succ node =
  match node with
  | Leaf -> Leaf
  | Node m ->
      if node == succ then m.right
      else begin
        let l = del_min t succ m.left in
        if l != m.left then m.left <- l;
        rebalance t node
      end

(* Remove the first node (in search order) keyed [lo, hi) whose payload
   satisfies [matches data x]; [t.count] dropping below [count0] marks
   the removal done. [matches] is a closed function and [x] its
   argument, so removing by identity allocates nothing. *)
let rec del t lo hi matches x count0 node =
  match node with
  | Leaf -> Leaf
  | Node n ->
      let node =
        if t.count = count0 && n.lo = lo && n.hi = hi && matches n.data x then begin
          t.count <- t.count - 1;
          match (n.left, n.right) with
          | Leaf, r -> r
          | l, Leaf -> l
          | _, r ->
              let succ = min_node r in
              (match succ with
              | Node s ->
                  n.lo <- s.lo;
                  n.hi <- s.hi;
                  n.data <- s.data
              | Leaf -> ());
              n.right <- del_min t succ r;
              node
        end
        else if key_lt lo hi n.lo n.hi then begin
          let l = del t lo hi matches x count0 n.left in
          if l != n.left then n.left <- l;
          node
        end
        else if n.lo = lo && n.hi = hi then begin
          (* Duplicate keys may sit on either side after rotations;
             search both subtrees. *)
          let l = del t lo hi matches x count0 n.left in
          if l != n.left then n.left <- l;
          if t.count = count0 then begin
            let r = del t lo hi matches x count0 n.right in
            if r != n.right then n.right <- r
          end;
          node
        end
        else begin
          let r = del t lo hi matches x count0 n.right in
          if r != n.right then n.right <- r;
          node
        end
      in
      rebalance t node

let remove_matching t ~lo ~hi matches x =
  let count0 = t.count in
  let root = del t lo hi matches x count0 t.root in
  if root != t.root then t.root <- root;
  t.count < count0

let satisfies data pred = pred data

let remove_first t ~lo ~hi pred = remove_matching t ~lo ~hi satisfies pred

let same data x = data == x

let remove t ~lo ~hi data = remove_matching t ~lo ~hi same data

let map_overlapping t ~lo ~hi ~f =
  (* Targeted: snapshot only the overlapping nodes, then apply structural
     changes node by node — O(k log n), never a whole-tree pass. [f]
     builds replacements and never reads the snapshot, so the removals
     and inserts below cannot disturb it. *)
  let visited = collect_overlapping t ~lo ~hi in
  for i = 0 to visited - 1 do
    let rlo = t.hit_lo.(i) and rhi = t.hit_hi.(i) and d = t.hit_data.(i) in
    match f (Addr.range ~lo:rlo ~hi:rhi) d with
    | [ ((r' : Addr.range), d') ] when r'.Addr.lo = rlo && r'.Addr.hi = rhi && d' == d ->
        () (* in-place payload mutation *)
    | repl ->
        ignore (remove t ~lo:rlo ~hi:rhi d);
        List.iter (fun ((nr : Addr.range), nd) -> insert t ~lo:nr.Addr.lo ~hi:nr.Addr.hi nd) repl
  done;
  visited

let reorganize t ~eq ~merge =
  t.st.reorganizations <- t.st.reorganizations + 1;
  let items = to_list t in
  let merged =
    List.fold_left
      (fun acc (r, d) ->
        match acc with
        | ((pr : Addr.range), pd) :: rest when Addr.adjacent_or_overlapping pr r && eq pd d ->
            t.st.merges <- t.st.merges + 1;
            (Addr.join pr r, merge pd d) :: rest
        | _ -> (r, d) :: acc)
      [] items
  in
  rebuild t (List.rev merged)

let min_lo t = match min_node t.root with Leaf -> max_int | Node n -> n.lo

let max_hi t = mh t.root

let clear t =
  t.root <- Leaf;
  t.count <- 0

let check_invariants t =
  let rec go = function
    | Leaf -> (0, min_int, None, None)
    | Node n ->
        let hl, ml, _, maxl = go n.left in
        let hr, mr, minr, _ = go n.right in
        if abs (hl - hr) > 1 then failwith "rangetree: unbalanced";
        if n.height <> 1 + imax hl hr then failwith "rangetree: bad height";
        let expected_mh = imax n.hi (imax ml mr) in
        if n.max_hi <> expected_mh then failwith "rangetree: bad max_hi";
        (match maxl with
        | Some (l, hh) when key_lt n.lo n.hi l hh -> failwith "rangetree: order (left)"
        | _ -> ());
        (match minr with
        | Some (l, hh) when key_lt l hh n.lo n.hi -> failwith "rangetree: order (right)"
        | _ -> ());
        let mn = match go n.left with _, _, Some m, _ -> Some m | _ -> Some (n.lo, n.hi) in
        let mx = match go n.right with _, _, _, Some m -> Some m | _ -> Some (n.lo, n.hi) in
        (n.height, n.max_hi, mn, mx)
  in
  ignore (go t.root);
  let rec count = function Leaf -> 0 | Node n -> 1 + count n.left + count n.right in
  if count t.root <> t.count then failwith "rangetree: bad count"
