(* Knowledge-graph scenario (the paper's DBpedia use case): a regular path
   query maintained over a stream of edits.

   A dbpedia-like labeled graph receives batches of edits; IncRPQ keeps the
   answer of a path query current, and we compare its latency against
   recomputing from scratch with the batch algorithm RPQNFA — the paper's
   Exp-1(2), in miniature.

   Run with: dune exec examples/knowledge_graph.exe *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let rng = Random.State.make [| 2017 |] in
  let g =
    Core.Workload.Profiles.instantiate ~scale:0.05 ~rng
      Core.Workload.Profiles.dbpedia_like
  in
  Format.printf "knowledge graph: %d nodes, %d edges, %d labels@."
    (Core.Digraph.n_nodes g) (Core.Digraph.n_edges g)
    (Core.Interner.size (Core.Digraph.interner g));

  let query = Core.Workload.Queries.rpq ~rng g ~size:4 in
  Format.printf "query: %s@." (Core.Regex.to_string query);

  let engine = Core.Rpq.Inc.create (Core.Digraph.copy g) query in
  Format.printf "initial matches: %d@.@."
    (List.length (Core.Rpq.Inc.matches engine));

  (* Stream of 5 edit batches, each 1%% of |E|. *)
  let batch_size = max 1 (Core.Digraph.n_edges g / 100) in
  let baseline = Core.Digraph.copy g in
  for round = 1 to 5 do
    let ups =
      Core.Workload.Updates.generate ~rng
        (Core.Rpq.Inc.graph engine)
        ~size:batch_size ()
    in
    let delta, inc_time =
      time (fun () -> Core.Rpq.Inc.apply_batch engine ups)
    in
    (* Batch recomputation on an identical graph, for comparison. *)
    Core.Digraph.apply_batch baseline ups;
    let _, batch_time =
      time (fun () -> Core.Rpq.Batch.run_query baseline query)
    in
    Format.printf
      "round %d: |ΔG| = %d  ΔO = +%d/-%d   IncRPQ %.3fs vs RPQNFA %.3fs (%.1fx)@."
      round (List.length ups)
      (List.length delta.Core.Rpq.Inc.added)
      (List.length delta.Core.Rpq.Inc.removed)
      inc_time batch_time
      (batch_time /. Float.max 1e-9 inc_time)
  done;

  Format.printf "@.final matches: %d@."
    (List.length (Core.Rpq.Inc.matches engine))
