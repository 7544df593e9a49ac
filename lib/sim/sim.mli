(** Graph simulation — the query class of the paper's related work [17]
    (Fan, Wang, Wu: Incremental graph pattern matching, TODS 2013), whose
    incremental problem is {e semi-bounded}. Included as the baseline the
    paper contrasts its localizability/relative-boundedness measures
    against.

    A node [v] simulates pattern node [u] iff their labels agree and for
    every pattern edge [(u, u')] some successor of [v] simulates [u']. The
    answer is the {e greatest} such relation (unique; possibly empty per
    pattern node). Unlike subgraph isomorphism it is polynomial and not
    injective. *)

type node = Ig_graph.Digraph.node

type relation = (node, unit) Hashtbl.t array
(** One set of graph nodes per pattern node (indexed by pattern node id). *)

val candidates : Ig_iso.Pattern.t -> Ig_graph.Digraph.t -> relation
(** The label-compatible pairs — the fixpoint's starting point. *)

type counts = (node, int) Hashtbl.t array
(** Support counters, one table per pattern edge id: for a pattern edge
    [e = (u, u')], [cnt.(e)] maps each [v ∈ sets.(u)] to
    |succ(v) ∩ sets.(u')|, and holds nothing else. *)

val prune : Ig_iso.Pattern.t -> Ig_graph.Digraph.t -> relation -> counts
(** Remove pairs until every surviving pair has all its pattern edges
    supported inside the relation: computes the largest simulation
    {e contained in} the given sets (mutated in place) and returns its
    support counters. The HHK-style worklist ({!cascade}) makes this
    O(Σ|sets| · deg) rather than a quadratic fixpoint iteration. *)

val run : Ig_iso.Pattern.t -> Ig_graph.Digraph.t -> relation
(** The greatest simulation: {!candidates}, then {!prune}. *)

val pairs : relation -> (int * node) list
(** Flatten to (pattern node, graph node) pairs. *)

val mem : relation -> int -> node -> bool

(** {1 Internals shared with the incremental engine} *)

type index = (int * int) list array * (int * int) list array

val edge_index : Ig_iso.Pattern.t -> index
(** Per pattern node: outgoing and incoming (edge id, other endpoint). *)

val support_count : Ig_graph.Digraph.t -> relation -> int -> node -> int
(** [support_count g rel u' v] = |succ(v) ∩ rel(u')|. *)

val cascade :
  obs:Ig_obs.Obs.t -> on_remove:(int -> node -> unit) -> index ->
  Ig_graph.Digraph.t -> relation -> counts -> (int * node) Stack.t -> unit
(** [cascade index g sets cnt doomed], the removal worklist of {!prune} and
    of the incremental engine, pops [doomed] until it is empty. [cnt] must
    be exact for [sets] over [g], and [doomed] must hold every pair with a
    counter at 0. A popped pair still in [sets] leaves it with its
    counters, [on_remove u v] runs, and each predecessor pair it supported
    loses one unit; a counter that reaches 0 queues its pair. [obs] counts
    [nodes_visited] per pop, [edges_relaxed] per predecessor read and a
    [Frontier_expand] per queued pair. *)
