(* Social-network scenario (the paper's LiveJournal use case): keyword
   search and community structure maintained together under churn.

   A livej-like graph — skewed degrees and a giant strongly connected core —
   receives follow/unfollow batches. IncKWS keeps "who can reach an expert
   and a topic within b hops" fresh; IncSCC keeps the mutual-reachability
   communities fresh, exercising the giant-component splits the paper calls
   out in Exp-1(3).

   Run with: dune exec examples/social_network.exe *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let rng = Random.State.make [| 99 |] in
  let g =
    Core.Workload.Profiles.instantiate ~scale:0.05 ~rng
      Core.Workload.Profiles.livej_like
  in
  Format.printf "social graph: %d nodes, %d edges@." (Core.Digraph.n_nodes g)
    (Core.Digraph.n_edges g);

  let scc = Core.Scc.Inc.init (Core.Digraph.copy g) in
  let comps = Core.Scc.Inc.components scc in
  let giant = List.fold_left (fun acc c -> max acc (List.length c)) 0 comps in
  Format.printf "communities: %d (largest %.0f%% of the graph)@."
    (List.length comps)
    (100.0 *. float_of_int giant /. float_of_int (Core.Digraph.n_nodes g));

  let query = Core.Workload.Queries.kws ~rng g ~m:3 ~b:2 in
  Format.printf "keyword query: {%s} within %d hops@."
    (String.concat ", " query.Core.Kws.Batch.keywords)
    query.Core.Kws.Batch.bound;
  let kws = Core.Kws.Inc.init (Core.Digraph.copy g) query in
  Format.printf "matching roots: %d@.@."
    (List.length (Core.Kws.Inc.match_roots kws));

  let batch_size = max 1 (Core.Digraph.n_edges g / 50) in
  for round = 1 to 4 do
    let ups =
      Core.Workload.Updates.generate ~rng
        (Core.Kws.Inc.graph kws)
        ~size:batch_size ()
    in
    let dk, kws_time = time (fun () -> Core.Kws.Inc.apply_batch kws ups) in
    let ds, scc_time = time (fun () -> Core.Scc.Inc.apply_batch scc ups) in
    Format.printf
      "round %d: |ΔG| = %d   KWS roots +%d/-%d (%.3fs)   communities -%d/+%d (%.3fs)@."
      round (List.length ups)
      (List.length dk.Core.Kws.Inc.added)
      (List.length dk.Core.Kws.Inc.removed)
      kws_time
      (List.length ds.Core.Scc.Inc.removed)
      (List.length ds.Core.Scc.Inc.added)
      scc_time
  done;

  let comps = Core.Scc.Inc.components scc in
  Format.printf "@.after churn: %d communities, %d matching roots@."
    (List.length comps)
    (List.length (Core.Kws.Inc.match_roots kws))
