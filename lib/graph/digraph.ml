type node = int
type label = Interner.symbol

type update = Insert of node * node | Delete of node * node
type edge = node * node

type backend = [ `Hashtbl | `Csr ]

(* The original Hashtbl-of-Hashtbls backend: per-node adjacency tables,
   O(1) expected updates, hash-order iteration behind sorted helpers. *)
module H = struct
  type t = {
    interner : Interner.t;
    labels : label Vec.t;
    succ : (node, unit) Hashtbl.t Vec.t;
    pred : (node, unit) Hashtbl.t Vec.t;
    by_label : (label, node list) Hashtbl.t;
    mutable n_edges : int;
  }

  let create ?(hint = 16) () =
    let g =
      {
        interner = Interner.create ();
        labels = Vec.create ();
        succ = Vec.create ();
        pred = Vec.create ();
        by_label = Hashtbl.create (max 16 hint);
        n_edges = 0;
      }
    in
    (* Pre-size the per-node vectors too; the filler tables are never
       observed (cells are overwritten by push before becoming live). *)
    let hint = max 1 hint in
    Vec.reserve g.labels hint 0;
    Vec.reserve g.succ hint (Hashtbl.create 1);
    Vec.reserve g.pred hint (Hashtbl.create 1);
    g

  let interner g = g.interner
  let intern_label g s = Interner.intern g.interner s

  let n_nodes g = Vec.length g.labels
  let n_edges g = g.n_edges

  let mem_node g v = v >= 0 && v < n_nodes g

  let check_node g v =
    if not (mem_node g v) then invalid_arg "Digraph: unknown node"

  let label g v = check_node g v; Vec.get g.labels v
  let label_name g v = Interner.name g.interner (label g v)

  let add_node_sym g l =
    let v = Vec.push g.labels l in
    ignore (Vec.push g.succ (Hashtbl.create 4));
    ignore (Vec.push g.pred (Hashtbl.create 4));
    let old = Option.value ~default:[] (Hashtbl.find_opt g.by_label l) in
    Hashtbl.replace g.by_label l (v :: old);
    v

  let add_node g s = add_node_sym g (intern_label g s)

  let mem_edge g u v =
    mem_node g u && mem_node g v && Hashtbl.mem (Vec.get g.succ u) v

  let add_edge g u v =
    check_node g u;
    check_node g v;
    let su = Vec.get g.succ u in
    if Hashtbl.mem su v then false
    else begin
      Hashtbl.replace su v ();
      Hashtbl.replace (Vec.get g.pred v) u ();
      g.n_edges <- g.n_edges + 1;
      true
    end

  let remove_edge g u v =
    check_node g u;
    check_node g v;
    let su = Vec.get g.succ u in
    if not (Hashtbl.mem su v) then false
    else begin
      Hashtbl.remove su v;
      Hashtbl.remove (Vec.get g.pred v) u;
      g.n_edges <- g.n_edges - 1;
      true
    end

  let out_degree g v = check_node g v; Hashtbl.length (Vec.get g.succ v)
  let in_degree g v = check_node g v; Hashtbl.length (Vec.get g.pred v)

  let iter_succ f g v =
    check_node g v;
    (Hashtbl.iter [@lint.allow "D2"]) (fun w () -> f w) (Vec.get g.succ v)

  let iter_pred f g v =
    check_node g v;
    (Hashtbl.iter [@lint.allow "D2"]) (fun u () -> f u) (Vec.get g.pred v)

  (* Adjacency keys in ascending node order. The unsorted [iter_succ] /
     [iter_pred] visit neighbors in hash-table order, which varies with the
     hash seed; every consumer whose visit order can leak into certificates,
     traces or user-visible output must use these instead. *)
  let sorted_keys tbl =
    let acc =
      (Hashtbl.fold [@lint.allow "D2"]) (fun k () acc -> k :: acc) tbl []
    in
    List.sort Int.compare acc

  let iter_succ_sorted f g v =
    check_node g v;
    List.iter f (sorted_keys (Vec.get g.succ v))

  let iter_pred_sorted f g v =
    check_node g v;
    List.iter f (sorted_keys (Vec.get g.pred v))

  let succ_list g v = check_node g v; sorted_keys (Vec.get g.succ v)
  let pred_list g v = check_node g v; sorted_keys (Vec.get g.pred v)

  let nodes_with_label g l =
    Option.value ~default:[] (Hashtbl.find_opt g.by_label l)

  let copy g =
    let copy_adj tbl =
      let v = Vec.create () in
      Vec.iter (fun h -> ignore (Vec.push v (Hashtbl.copy h))) tbl;
      v
    in
    {
      interner = g.interner;
      labels = Vec.copy g.labels;
      succ = copy_adj g.succ;
      pred = copy_adj g.pred;
      by_label = Hashtbl.copy g.by_label;
      n_edges = g.n_edges;
    }
end

type t = Hg of H.t | Cg of Csr.t

let create ?hint ?(backend = `Hashtbl) () =
  match backend with
  | `Hashtbl -> Hg (H.create ?hint ())
  | `Csr -> Cg (Csr.create ?hint ())

let backend = function Hg _ -> `Hashtbl | Cg _ -> `Csr
let backend_name = function `Hashtbl -> "hashtbl" | `Csr -> "csr"

let backend_of_string = function
  | "hashtbl" -> Some `Hashtbl
  | "csr" -> Some `Csr
  | _ -> None

let copy = function Hg g -> Hg (H.copy g) | Cg g -> Cg (Csr.copy g)

let compact = function Hg _ -> () | Cg g -> Csr.compact g

let overlay_size = function Hg _ -> 0 | Cg g -> Csr.overlay_size g

(* Attach instrumentation sinks to the storage layer. The Hashtbl
   backend has no compaction or overlay to report, so this is a no-op
   there; on CSR it wires the overlay gauges, compaction histograms and
   [Compaction] trace events into the engine's registry and tracer. *)
let instrument ~obs ~trace = function
  | Hg _ -> ()
  | Cg g -> Csr.instrument g ~obs ~trace

let interner = function Hg g -> H.interner g | Cg g -> Csr.interner g

let intern_label g s =
  match g with Hg g -> H.intern_label g s | Cg g -> Csr.intern_label g s

let n_nodes = function Hg g -> H.n_nodes g | Cg g -> Csr.n_nodes g
let n_edges = function Hg g -> H.n_edges g | Cg g -> Csr.n_edges g

let mem_node g v =
  match g with Hg g -> H.mem_node g v | Cg g -> Csr.mem_node g v

let label g v = match g with Hg g -> H.label g v | Cg g -> Csr.label g v

let label_name g v =
  match g with Hg g -> H.label_name g v | Cg g -> Csr.label_name g v

let add_node_sym g l =
  match g with Hg g -> H.add_node_sym g l | Cg g -> Csr.add_node_sym g l

let add_node g s =
  match g with Hg g -> H.add_node g s | Cg g -> Csr.add_node g s

let mem_edge g u v =
  match g with Hg g -> H.mem_edge g u v | Cg g -> Csr.mem_edge g u v

let add_edge g u v =
  match g with Hg g -> H.add_edge g u v | Cg g -> Csr.add_edge g u v

let remove_edge g u v =
  match g with Hg g -> H.remove_edge g u v | Cg g -> Csr.remove_edge g u v

let apply g = function
  | Insert (u, v) -> add_edge g u v
  | Delete (u, v) -> remove_edge g u v

let apply_batch g us = List.iter (fun u -> ignore (apply g u)) us

module Edge_tbl = Hashtbl.Make (struct
  type t = edge

  let equal ((a, b) : t) (c, d) = a = c && b = d
  let hash ((a, b) : t) = Int.hash ((a * 0x9e3779b1) lxor b)
end)

let net_effect us =
  (* Per edge the batch touches, in first-occurrence order: the edge and
     whether its last update inserts it. *)
  let last = Edge_tbl.create (List.length us) and order = ref [] in
  List.iter
    (fun up ->
      let e, ins =
        match up with
        | Insert (u, v) -> ((u, v), true)
        | Delete (u, v) -> ((u, v), false)
      in
      match Edge_tbl.find_opt last e with
      | Some r -> r := ins
      | None ->
          let r = ref ins in
          Edge_tbl.add last e r;
          order := (e, r) :: !order)
    us;
  let dels = ref [] and inss = ref [] in
  List.iter
    (fun (e, r) -> if !r then inss := e :: !inss else dels := e :: !dels)
    !order;
  (!dels, !inss)

let out_degree g v =
  match g with Hg g -> H.out_degree g v | Cg g -> Csr.out_degree g v

let in_degree g v =
  match g with Hg g -> H.in_degree g v | Cg g -> Csr.in_degree g v

let iter_nodes f g =
  for v = 0 to n_nodes g - 1 do f v done

(* On the CSR backend the "unsorted" iterators are the sorted merge — there
   is no cheaper unordered walk of a CSR row, and deterministic order is
   within the unspecified-order contract. *)
let iter_succ f g v =
  match g with
  | Hg g -> H.iter_succ f g v
  | Cg g -> Csr.iter_succ_sorted f g v

let iter_pred f g v =
  match g with
  | Hg g -> H.iter_pred f g v
  | Cg g -> Csr.iter_pred_sorted f g v

let iter_succ_sorted f g v =
  match g with
  | Hg g -> H.iter_succ_sorted f g v
  | Cg g -> Csr.iter_succ_sorted f g v

let iter_pred_sorted f g v =
  match g with
  | Hg g -> H.iter_pred_sorted f g v
  | Cg g -> Csr.iter_pred_sorted f g v

let iter_edges f g =
  iter_nodes (fun u -> iter_succ_sorted (fun v -> f u v) g u) g

let succ_list g v =
  match g with Hg g -> H.succ_list g v | Cg g -> Csr.succ_list g v

let pred_list g v =
  match g with Hg g -> H.pred_list g v | Cg g -> Csr.pred_list g v

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let fold_nodes f g acc =
  let acc = ref acc in
  iter_nodes (fun v -> acc := f v !acc) g;
  !acc

let nodes_with_label g l =
  match g with
  | Hg g -> H.nodes_with_label g l
  | Cg g -> Csr.nodes_with_label g l

let convert ~backend:b g =
  if b = backend g then g
  else begin
    let h = create ~hint:(n_nodes g) ~backend:b () in
    iter_nodes (fun v -> ignore (add_node h (label_name g v))) g;
    iter_edges (fun u v -> ignore (add_edge h u v)) g;
    compact h;
    h
  end

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph: %d nodes, %d edges@," (n_nodes g)
    (n_edges g);
  if n_nodes g <= 40 then begin
    iter_nodes
      (fun v -> Format.fprintf ppf "  %d:%s@," v (label_name g v))
      g;
    iter_edges (fun u v -> Format.fprintf ppf "  %d -> %d@," u v) g
  end;
  Format.fprintf ppf "@]"
