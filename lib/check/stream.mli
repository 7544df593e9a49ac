(** Deterministic seeded update-stream driver.

    Proposes one unit update at a time against the {e live} state of a graph
    it observes but never mutates: the caller applies each proposed update to
    the engine that owns the graph before asking for the next. Identical
    seeds (and identical engine behavior) yield identical streams.

    The op mix is deliberately adversarial for incremental engines:

    - deletions of uniformly sampled {e existing} edges;
    - re-insertion of recently deleted edges (the paper's Section 4.2
      "bounce-back" shape);
    - duplicate insertions of edges already present and deletions of absent
      edges (both no-ops on the simple digraph; engines must tolerate them,
      which is also what makes ddmin-shrunk streams replayable);
    - self-loop insertions;
    - toggling of caller-supplied {e focus} edges — e.g. the Δ1/Δ2 bridge
      edges of the Fig. 9 two-cycle gadget ({!Ig_theory.Gadget}), whose
      insertion order is exactly what the paper's unboundedness proof turns
      on. *)

type t

val create :
  rng:Random.State.t ->
  ?focus:(Ig_graph.Digraph.node * Ig_graph.Digraph.node) list ->
  Ig_graph.Digraph.t ->
  t
(** The stream keeps a reference to the graph and to the [rng]; both advance
    as the caller applies updates and calls {!next}. *)

val next : t -> Ig_graph.Digraph.update
(** Propose the next unit update. @raise Invalid_argument on an empty
    graph (no nodes to wire). *)
