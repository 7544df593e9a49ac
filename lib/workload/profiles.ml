type shape = Uniform | Dag | Hierarchy of float | Skewed

type spec = {
  name : string;
  base_nodes : int;
  edge_ratio : float;
  labels : int;
  shape : shape;
  giant_scc : float;
  local_sccs : int * int;
}

let dbpedia_like =
  {
    name = "dbpedia";
    base_nodes = 20_000;
    edge_ratio = 9.4;
    labels = 495;
    shape = Dag;
    giant_scc = 0.0;
    local_sccs = (25, 12);
  }

let livej_like =
  {
    name = "livej";
    base_nodes = 20_000;
    edge_ratio = 14.0;
    labels = 100;
    shape = Skewed;
    giant_scc = 0.75;
    local_sccs = (0, 0);
  }

let synthetic =
  {
    name = "synthetic";
    base_nodes = 50_000;
    edge_ratio = 2.0;
    labels = 100;
    (* The paper's generator is "controlled by |V| and |E|" and otherwise
       unspecified. A uniform digraph at |E| = 2|V| sits exactly at the
       strong-connectivity percolation edge, where the component structure
       is maximally volatile under updates — an adversarial regime no real
       dataset in the paper exhibits. We use the forward-oriented shape
       with a planted 30% component instead (see DESIGN.md). *)
    shape = Dag;
    giant_scc = 0.3;
    local_sccs = (10, 10);
  }

let instantiate ?(scale = 1.0) ~rng spec =
  let nodes = max 2 (int_of_float (float_of_int spec.base_nodes *. scale)) in
  let edges = int_of_float (float_of_int nodes *. spec.edge_ratio) in
  (* The label alphabet scales with the graph so per-label density — what
     drives query selectivity in all four classes — is preserved. *)
  let spec =
    { spec with
      labels = max 20 (int_of_float (float_of_int spec.labels *. scale)) }
  in
  let g =
    match spec.shape with
    | Uniform -> Generate.uniform ~rng ~nodes ~edges ~labels:spec.labels ()
    | Dag -> Generate.dag ~rng ~nodes ~edges ~labels:spec.labels ()
    | Skewed ->
        Generate.preferential ~rng ~nodes ~edges ~labels:spec.labels ()
    | Hierarchy hub_fraction ->
        Generate.hierarchy ~rng ~nodes ~edges ~labels:spec.labels
          ~hub_fraction ()
  in
  (if spec.giant_scc > 0.0 then
     match spec.shape with
     | Dag | Hierarchy _ ->
         (* Hierarchy-shaped graphs get a contiguous core: long-range cycle
            edges through a DAG would recruit every spanned path into the
            component and make its rank window graph-wide. *)
         let nodes = Ig_graph.Digraph.n_nodes g in
         Generate.plant_local_sccs ~rng g ~count:1
           ~size:(int_of_float (spec.giant_scc *. float_of_int nodes))
     | Uniform | Skewed -> Generate.plant_scc ~rng g ~fraction:spec.giant_scc);
  (let per_10k, size = spec.local_sccs in
   let count = per_10k * nodes / 10_000 in
   if count > 0 && size >= 2 then Generate.plant_local_sccs ~rng g ~count ~size);
  g
