module Digraph = Ig_graph.Digraph

type node = Digraph.node
type mapping = node array
type canon = node list * (node * node) list

let compare_edge (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let compare_canon (ns1, es1) (ns2, es2) =
  match List.compare Int.compare ns1 ns2 with
  | 0 -> List.compare compare_edge es1 es2
  | c -> c

let canon_of p m =
  let nodes = List.sort Int.compare (Array.to_list m) in
  let edges =
    List.sort compare_edge
      (List.map (fun (u, v) -> (m.(u), m.(v))) (Pattern.edges p))
  in
  (nodes, edges)

type back = Self | Out of int | In of int

type plan = {
  order : int array;
  back : back list array;
      (* per order position: the pattern edges linking that node to
         itself or to an earlier node of the order *)
  fixed : int;  (* leading order positions an anchor binds: 0, 1 or 2 *)
}

let make_plan ?anchor p =
  let order = Pattern.matching_order ?anchor p in
  let np = Array.length order in
  let pos = Array.make np (-1) in
  Array.iteri (fun i u -> pos.(u) <- i) order;
  let back =
    Array.init np (fun i ->
        let u = order.(i) in
        let earlier v = pos.(v) < i in
        List.filter_map
          (fun v ->
            if v = u then Some Self
            else if earlier v then Some (Out v)
            else None)
          (Pattern.succ p u)
        @ List.filter_map
            (fun v ->
              (* self-loops are covered once by the successor side *)
              if v <> u && earlier v then Some (In v) else None)
            (Pattern.pred p u))
  in
  let fixed =
    match anchor with None -> 0 | Some (x, y) -> if x = y then 1 else 2
  in
  { order; back; fixed }

let plan p edge = make_plan ~anchor:edge p

type work = { mutable visited : int; mutable relaxed : int }

let symbols g p =
  let interner = Digraph.interner g in
  Array.init (Pattern.n_nodes p) (fun u ->
      match Ig_graph.Interner.find interner (Pattern.label p u) with
      | Some s -> s
      | None -> -1)

let iter_matches ?anchor ?work g p f =
  let np = Pattern.n_nodes p in
  let pl = match anchor with Some (pl, _) -> pl | None -> make_plan p in
  let order = pl.order in
  (* A label unknown to the graph can never match. *)
  let sym_of = symbols g p in
  let m = Array.make np (-1) in
  let count_visit () =
    match work with Some w -> w.visited <- w.visited + 1 | None -> ()
  in
  let count_relax () =
    match work with Some w -> w.relaxed <- w.relaxed + 1 | None -> ()
  in
  (* Injectivity: [cand] is not the image of an earlier order position. *)
  let rec unused cand i j =
    j >= i || (m.(order.(j)) <> cand && unused cand i (j + 1))
  in
  let rec back_ok cand = function
    | [] -> true
    | Self :: rest -> Digraph.mem_edge g cand cand && back_ok cand rest
    | Out v :: rest -> Digraph.mem_edge g cand m.(v) && back_ok cand rest
    | In v :: rest -> Digraph.mem_edge g m.(v) cand && back_ok cand rest
  in
  let feasible i cand =
    let u = order.(i) in
    Digraph.label g cand = sym_of.(u)
    && unused cand i 0
    && Digraph.out_degree g cand >= List.length (Pattern.succ p u)
    && Digraph.in_degree g cand >= List.length (Pattern.pred p u)
    && back_ok cand pl.back.(i)
  in
  let bind i cand =
    count_visit ();
    m.(order.(i)) <- cand
  in
  let rec step i =
    if i = np then f (Array.copy m)
    else begin
      let try_candidate cand =
        count_relax ();
        if feasible i cand then begin
          bind i cand;
          step (i + 1);
          m.(order.(i)) <- -1
        end
      in
      (* Candidates from the image adjacency of one matched neighbor,
         falling back to the label index for the first node. Adjacency
         is ascending, and the match discovery order decides which
         mapping represents each canon and thus what traces record. *)
      match List.find_opt (function Self -> false | _ -> true) pl.back.(i) with
      | Some (Out v) -> Digraph.iter_pred try_candidate g m.(v)
      | Some (In v) -> Digraph.iter_succ try_candidate g m.(v)
      | Some Self | None ->
          List.iter try_candidate
            (Digraph.nodes_with_label g sym_of.(order.(i)))
    end
  in
  if Array.for_all (fun s -> s >= 0) sym_of then
    match anchor with
    | None -> step 0
    | Some (_, (v, w)) ->
        (* The anchored edge's image is given: bind it, then extend through
           adjacency only. *)
        if feasible 0 v then begin
          bind 0 v;
          if pl.fixed = 1 then (if v = w then step 1)
          else if feasible 1 w then begin
            bind 1 w;
            step 2
          end
        end

let find_all g p =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  iter_matches g p (fun m ->
      let c = canon_of p m in
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.replace seen c ();
        acc := m :: !acc
      end);
  !acc
