(* Quickstart: build a small labeled digraph, answer all four query classes
   once with the batch algorithms, then keep the answers fresh through
   the incremental engines while the graph changes.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A graph: movies, people, awards. *)
  let g = Core.Digraph.create () in
  let director = Core.Digraph.add_node g "director" in
  let movie1 = Core.Digraph.add_node g "movie" in
  let movie2 = Core.Digraph.add_node g "movie" in
  let actor1 = Core.Digraph.add_node g "actor" in
  let actor2 = Core.Digraph.add_node g "actor" in
  let award = Core.Digraph.add_node g "award" in
  let e u v = ignore (Core.Digraph.add_edge g u v) in
  e director movie1;
  e director movie2;
  e movie1 actor1;
  e movie2 actor2;
  e actor1 award;
  e actor1 actor2;
  e actor2 actor1;

  Format.printf "graph: %d nodes, %d edges@."
    (Core.Digraph.n_nodes g) (Core.Digraph.n_edges g);

  (* 2. Engines: one per query class, each over its own copy of the graph
     (an engine owns its graph and applies the updates itself). *)
  let kws =
    Core.Kws.Inc.init (Core.Digraph.copy g)
      { Core.Kws.Batch.keywords = [ "actor"; "award" ]; bound = 2 }
  in
  let rpq =
    Core.Rpq.Inc.create (Core.Digraph.copy g)
      (Core.Regex.parse_exn "director . movie . actor")
  in
  let scc = Core.Scc.Inc.init (Core.Digraph.copy g) in
  let iso =
    Core.Iso.Inc.init (Core.Digraph.copy g)
      (Core.Iso.Pattern.create ~labels:[ "actor"; "actor" ]
         ~edges:[ (0, 1); (1, 0) ])
  in

  Format.printf "KWS  roots reaching an actor and an award within 2 hops: %a@."
    Fmt.(Dump.list int)
    (Core.Kws.Inc.match_roots kws);
  Format.printf "RPQ  director.movie.actor pairs: %a@."
    Fmt.(Dump.list (Dump.pair int int))
    (Core.Rpq.Inc.matches rpq);
  Format.printf "SCC  %d components@." (List.length (Core.Scc.Inc.components scc));
  Format.printf "ISO  mutual-following actor pairs: %d@."
    (List.length (Core.Iso.Inc.matches iso));

  (* 3. The graph changes: a new movie-actor edge and a broken cycle. *)
  let batch =
    [ Core.Digraph.Insert (movie1, actor2); Core.Digraph.Delete (actor2, actor1) ]
  in
  Format.printf "@.applying ΔG = [insert (movie1, actor2); delete (actor2, actor1)]@.";

  let dk = Core.Kws.Inc.apply_batch kws batch in
  let dr = Core.Rpq.Inc.apply_batch rpq batch in
  let ds = Core.Scc.Inc.apply_batch scc batch in
  let di = Core.Iso.Inc.apply_batch iso batch in

  Format.printf "KWS  ΔO: +%a -%a@."
    Fmt.(Dump.list int) dk.Core.Kws.Inc.added
    Fmt.(Dump.list int) dk.Core.Kws.Inc.removed;
  Format.printf "RPQ  ΔO: +%a -%a@."
    Fmt.(Dump.list (Dump.pair int int)) dr.Core.Rpq.Inc.added
    Fmt.(Dump.list (Dump.pair int int)) dr.Core.Rpq.Inc.removed;
  Format.printf "SCC  ΔO: %d components removed, %d added@."
    (List.length ds.Core.Scc.Inc.removed)
    (List.length ds.Core.Scc.Inc.added);
  Format.printf "ISO  ΔO: %d matches removed@."
    (List.length di.Core.Iso.Inc.removed);

  (* 4. Answers stay equal to batch recomputation — that is the library's
     tested contract; see test/ for the property suites. *)
  Format.printf "@.current KWS roots: %a@."
    Fmt.(Dump.list int)
    (Core.Kws.Inc.match_roots kws)
