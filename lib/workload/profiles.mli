(** Dataset profiles standing in for the paper's evaluation graphs.

    The originals (DBpedia [1], LiveJournal [3]) are not available offline,
    so each profile reproduces the statistics the four algorithms are
    sensitive to — node/edge ratio, label-alphabet size, degree skew, and
    (for LiveJournal) the giant strongly connected component — at a
    configurable scale. [scale = 1.0] is the default bench size; the shapes
    of the experiments, not absolute times, are the reproduction target
    (see DESIGN.md, "Substitutions"). *)

type shape =
  | Uniform                              (** the paper's synthetic family *)
  | Dag                                  (** uniform forward-oriented edges *)
  | Hierarchy of float                   (** hub-heavy DAG; hub fraction *)
  | Skewed                               (** preferential attachment *)

type spec = {
  name : string;
  base_nodes : int;
  edge_ratio : float;     (** edges per node *)
  labels : int;
  shape : shape;
  giant_scc : float;      (** fraction of nodes forced strongly connected *)
  local_sccs : int * int; (** (count per 10k nodes, component size) *)
}

val dbpedia_like : spec
(** 4.3M/40.3M/495 labels in the paper; ratio ≈ 9.4. DBpedia is a knowledge
    hierarchy: shallow transitive closures into a small hub set, and small
    strongly connected components (planted locally). *)

val livej_like : spec
(** 4.9M/68.5M/100 labels; ratio ≈ 14, skewed, giant SCC ≈ 0.75. *)

val synthetic : spec
(** The paper's synthetic family: |E| = 2|V|, 100 labels, uniform. *)

val instantiate :
  ?scale:float ->
  rng:Random.State.t -> spec -> Ig_graph.Digraph.t
(** Generate a graph for the profile at the given scale factor. *)
