module Digraph = Ig_graph.Digraph

let add_labeled_nodes rng g ~nodes ~labels =
  for _ = 1 to nodes do
    ignore (Digraph.add_node g ("l" ^ string_of_int (Random.State.int rng labels)))
  done

let fill_edges g ~edges ~pick =
  let n = Digraph.n_nodes g in
  let max_edges = n * (n - 1) in
  let target = min edges max_edges in
  let placed = ref 0 in
  let attempts = ref 0 in
  let limit = 20 * target in
  while !placed < target && !attempts < limit do
    incr attempts;
    let u = pick () and v = pick () in
    if u <> v && Digraph.add_edge g u v then incr placed
  done;
  (* Dense corner: finish deterministically if sampling struggled. *)
  if !placed < target then begin
    let u = ref 0 and v = ref 0 in
    while !placed < target && !u < n do
      if !u <> !v && Digraph.add_edge g !u !v then incr placed;
      incr v;
      if !v >= n then begin
        v := 0;
        incr u
      end
    done
  end

let uniform ~rng ~nodes ~edges ~labels () =
  if nodes <= 0 then invalid_arg "Generate.uniform: nodes must be positive";
  let g = Digraph.create ~hint:nodes () in
  add_labeled_nodes rng g ~nodes ~labels;
  if nodes > 1 then
    fill_edges g ~edges ~pick:(fun () -> Random.State.int rng nodes);
  g

let dag ~rng ~nodes ~edges ~labels () =
  if nodes <= 0 then invalid_arg "Generate.dag: nodes must be positive";
  let g = Digraph.create ~hint:nodes () in
  add_labeled_nodes rng g ~nodes ~labels;
  if nodes > 1 then begin
    let n = nodes in
    let target = min edges (n * (n - 1) / 2) in
    let placed = ref 0 and attempts = ref 0 in
    let limit = 20 * max 1 target in
    while !placed < target && !attempts < limit do
      incr attempts;
      let u = Random.State.int rng n and v = Random.State.int rng n in
      if u <> v && Digraph.add_edge g (min u v) (max u v) then incr placed
    done
  end;
  g

let preferential ~rng ~nodes ~edges ~labels () =
  if nodes <= 0 then invalid_arg "Generate.preferential: nodes must be positive";
  let g = Digraph.create ~hint:nodes () in
  add_labeled_nodes rng g ~nodes ~labels;
  if nodes > 1 then begin
    (* Endpoint pool: every node once, plus one entry per edge endpoint. *)
    let pool = Ig_graph.Vec.create () in
    for v = 0 to nodes - 1 do
      ignore (Ig_graph.Vec.push pool v)
    done;
    (* Every node is seeded once in the pool, so drawing from the pool both
       covers the whole graph and concentrates on high-degree nodes. *)
    let pick () =
      Ig_graph.Vec.get pool (Random.State.int rng (Ig_graph.Vec.length pool))
    in
    let n = nodes in
    let max_edges = n * (n - 1) in
    let target = min edges max_edges in
    let placed = ref 0 in
    let attempts = ref 0 in
    let limit = 20 * target in
    while !placed < target && !attempts < limit do
      incr attempts;
      let u = pick () and v = pick () in
      if u <> v && Digraph.add_edge g u v then begin
        incr placed;
        ignore (Ig_graph.Vec.push pool u);
        ignore (Ig_graph.Vec.push pool v)
      end
    done
  end;
  g

let plant_scc ~rng g ~fraction =
  let n = Digraph.n_nodes g in
  let k = int_of_float (fraction *. float_of_int n) in
  if k >= 2 then begin
    (* Random sample without replacement via partial Fisher–Yates. *)
    let arr = Array.init n Fun.id in
    for i = 0 to k - 1 do
      let j = i + Random.State.int rng (n - i) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    for i = 0 to k - 1 do
      ignore (Digraph.add_edge g arr.(i) arr.((i + 1) mod k))
    done;
    for _ = 1 to k / 2 do
      let i = Random.State.int rng k and j = Random.State.int rng k in
      if i <> j then ignore (Digraph.add_edge g arr.(i) arr.(j))
    done
  end

let hierarchy ~rng ~nodes ~edges ~labels ~hub_fraction () =
  if nodes <= 1 then invalid_arg "Generate.hierarchy: nodes must be > 1";
  let g = Digraph.create ~hint:nodes () in
  add_labeled_nodes rng g ~nodes ~labels;
  let hub_lo =
    max 1 (nodes - int_of_float (hub_fraction *. float_of_int nodes))
  in
  let placed = ref 0 and attempts = ref 0 in
  let limit = 30 * max 1 edges in
  while !placed < edges && !attempts < limit do
    incr attempts;
    let u = Random.State.int rng nodes in
    let v =
      if Random.State.int rng 10 < 4 then
        (* Short forward entity link: keeps 2-hop neighborhoods modest. *)
        u + 1 + Random.State.int rng 16
      else begin
        (* A hub strictly above u. *)
        let lo = max (u + 1) hub_lo in
        if lo >= nodes then nodes (* forces a retry *)
        else lo + Random.State.int rng (nodes - lo)
      end
    in
    if v < nodes && Digraph.add_edge g u v then incr placed
  done;
  g

let plant_local_sccs ~rng g ~count ~size =
  let n = Digraph.n_nodes g in
  if size >= 2 && n > size then
    for _ = 1 to count do
      let s = Random.State.int rng (n - size) in
      for i = 0 to size - 1 do
        ignore (Digraph.add_edge g (s + i) (s + ((i + 1) mod size)))
      done;
      (* A couple of chords so one deletion does not shatter it. *)
      for _ = 1 to size / 2 do
        let i = Random.State.int rng size and j = Random.State.int rng size in
        if i <> j then ignore (Digraph.add_edge g (s + i) (s + j))
      done
    done
