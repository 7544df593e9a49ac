(* Continuous pattern monitoring (subgraph isomorphism): watch a stream of
   transactions for a small "round-trip" motif — account → mule → shop →
   account — the classic cyclic-flow fraud signature.

   New transactions arrive one at a time; IncISO extends matches only from
   each new edge, inside its d_Q-neighborhood (localizability, paper
   Theorem 3), so alerts fire with latency independent of the total graph
   size.

   Run with: dune exec examples/fraud_monitor.exe *)

let () =
  let rng = Random.State.make [| 4242 |] in
  (* Transaction graph: accounts, mules, shops with money-flow edges. *)
  let g = Core.Digraph.create () in
  let n = 3_000 in
  let kinds = [| "account"; "mule"; "shop" |] in
  for _ = 1 to n do
    ignore (Core.Digraph.add_node g kinds.(Random.State.int rng 3))
  done;
  for _ = 1 to 4 * n do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then ignore (Core.Digraph.add_edge g u v)
  done;
  Format.printf "transaction graph: %d nodes, %d edges@."
    (Core.Digraph.n_nodes g) (Core.Digraph.n_edges g);

  let motif =
    Core.Iso.Pattern.create ~labels:[ "account"; "mule"; "shop" ]
      ~edges:[ (0, 1); (1, 2); (2, 0) ]
  in
  Format.printf "motif: account -> mule -> shop -> account (d_Q = %d)@."
    (Core.Iso.Pattern.diameter motif);

  let obs = Core.Obs.create () in
  let monitor = Core.Iso.Inc.init ~obs g motif in
  Format.printf "existing matches: %d@.@." (List.length (Core.Iso.Inc.matches monitor));

  (* Stream 2000 random transactions; report alerts as they fire. *)
  let alerts = ref 0 and cleared = ref 0 in
  for _ = 1 to 2_000 do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    let up =
      if Random.State.int rng 4 = 0 then Core.Digraph.Delete (u, v)
      else Core.Digraph.Insert (u, v)
    in
    if u <> v then begin
      let d = Core.Iso.Inc.apply_batch monitor [ up ] in
      alerts := !alerts + List.length d.Core.Iso.Inc.added;
      cleared := !cleared + List.length d.Core.Iso.Inc.removed;
      List.iter
        (fun m ->
          Format.printf "ALERT round-trip: account %d -> mule %d -> shop %d@."
            m.(0) m.(1) m.(2))
        d.Core.Iso.Inc.added
    end
  done;
  Format.printf
    "@.stream done: %d alerts, %d cleared, %d live matches@." !alerts !cleared
    (List.length (Core.Iso.Inc.matches monitor));
  Format.printf
    "locality: %d anchored VF2 runs bound %d nodes total (graph has %d)@."
    (Core.Obs.counter obs Core.Obs.K.rematches)
    (Core.Obs.counter obs Core.Obs.K.nodes_visited)
    (Core.Digraph.n_nodes (Core.Iso.Inc.graph monitor))
