module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Regex = Ig_nfa.Regex

type node = Digraph.node

type t = {
  graph : Digraph.t;
  query : Regex.t;
  delta1 : Digraph.update;
  delta2 : Digraph.update;
  v_nodes : node list;
  u_nodes : node list;
  w : node;
}

let query =
  Regex.(
    Concat
      ( Label "alpha1",
        Concat
          ( Star (Label "alpha1"),
            Concat
              (Label "alpha2", Concat (Star (Label "alpha2"), Label "alpha3"))
          ) ))

let make ~cycle =
  if cycle < 2 then invalid_arg "Gadget.make: cycle must be >= 2";
  let g = Digraph.create ~hint:((2 * cycle) + 1) () in
  let v_nodes = List.init cycle (fun _ -> Digraph.add_node g "alpha1") in
  let u_nodes = List.init cycle (fun _ -> Digraph.add_node g "alpha2") in
  let w = Digraph.add_node g "alpha3" in
  let ring ns =
    let arr = Array.of_list ns in
    Array.iteri
      (fun i x ->
        ignore (Digraph.add_edge g x arr.((i + 1) mod Array.length arr)))
      arr
  in
  ring v_nodes;
  ring u_nodes;
  ignore (Digraph.add_edge g (List.nth v_nodes 0) w);
  let mid = cycle / 2 in
  {
    graph = g;
    query;
    delta1 = Digraph.Insert (List.nth v_nodes mid, List.nth u_nodes mid);
    delta2 = Digraph.Insert (List.nth u_nodes 0, w);
    v_nodes;
    u_nodes;
    w;
  }

let expected_matches t = List.map (fun v -> (v, t.w)) t.v_nodes

type demo_point = { n : int; changed : int; inc_work : int }

let demo ~cycles =
  List.map
    (fun n ->
      let g = make ~cycle:n in
      let obs = Obs.create () in
      let session = Ig_rpq.Inc_rpq.create ~obs g.graph g.query in
      let work () =
        Obs.counter obs Obs.K.aff + Obs.counter obs Obs.K.cert_rewrites
      in
      let before = work () in
      let d = Ig_rpq.Inc_rpq.apply_batch session [ g.delta1 ] in
      let delta_o =
        List.length d.Ig_rpq.Inc_rpq.added
        + List.length d.Ig_rpq.Inc_rpq.removed
      in
      { n; changed = 1 + delta_o; inc_work = work () - before })
    cycles
