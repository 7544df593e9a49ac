(** Synthetic labeled-graph generators (paper Section 6, "Graphs").

    The paper's generator is "controlled by the number of nodes |V| and
    number of edges |E|, with labels drawn from an alphabet Σ of 100
    symbols"; we provide that (uniform) plus a preferential-attachment
    variant for the skewed-degree social-network profile, and a planted
    giant strongly connected core mimicking LiveJournal's (where the
    largest SCC covers ~77% of the graph, the property Exp-1(3) calls out).

    All generators are deterministic in the given [Random.State]. They
    build edge by edge, and their duplicate checks ({!Ig_graph.Digraph.mem_edge})
    drive the RNG draw sequence, so a seed names one graph. *)

val uniform :
  rng:Random.State.t -> nodes:int -> edges:int -> labels:int -> unit ->
  Ig_graph.Digraph.t
(** Uniform random simple digraph; labels [l0 … l{labels-1}] assigned
    uniformly. Self-loops excluded; requested edge count is met exactly
    unless the graph saturates. *)

val dag :
  rng:Random.State.t -> nodes:int -> edges:int -> labels:int -> unit ->
  Ig_graph.Digraph.t
(** Like {!uniform} but every edge is oriented from the smaller to the
    larger node id, yielding a DAG — the skeleton of hierarchy-shaped
    graphs like DBpedia, whose strongly connected components are small. *)

val preferential :
  rng:Random.State.t -> nodes:int -> edges:int -> labels:int -> unit ->
  Ig_graph.Digraph.t
(** Preferential attachment: edge endpoints are drawn from a pool that
    repeats nodes once per incident edge, yielding a heavy-tailed degree
    distribution. *)

val plant_scc :
  ?chord_ratio:float ->
  rng:Random.State.t -> Ig_graph.Digraph.t -> fraction:float -> unit
(** Add a directed cycle through a random sample of [fraction · |V|] nodes,
    forcing them into one strongly connected component, plus
    [chord_ratio · cycle length] random chords inside the sample (default
    0.5) so the component does not shatter on a single deletion. *)

val hierarchy :
  rng:Random.State.t -> nodes:int -> edges:int -> labels:int ->
  hub_fraction:float -> unit -> Ig_graph.Digraph.t
(** Knowledge-graph shape: a [hub_fraction] slice of high-id nodes act as
    category/type hubs; ~90% of edges point from a uniform node to a hub
    above it and ~10% are short forward entity-to-entity links. The result
    is a DAG whose transitive closures are shallow (a few hops into a small
    hub set) — the property that keeps IncSCC's affected rank regions and
    IncISO/IncKWS neighborhoods small on real DBpedia. *)

val plant_local_sccs :
  rng:Random.State.t -> Ig_graph.Digraph.t -> count:int -> size:int -> unit
(** Plant [count] strongly connected components, each a chorded cycle over a
    {e contiguous} id block of [size] nodes, so the components stay local
    instead of swallowing long-range paths. *)
