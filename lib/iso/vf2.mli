(** VF2-style subgraph isomorphism enumeration (Cordella et al. [15]) —
    the batch baseline the paper compares IncISO against.

    A match of pattern [Q] in [G] is a subgraph [Gs ⊆ G] isomorphic to [Q];
    since [Gs] carries exactly the image edges, this is classical subgraph
    {e monomorphism}: an injective, label-preserving [h : V_Q → V] with
    [(u,u') ∈ E_Q ⟹ (h(u), h(u')) ∈ E]. Mappings that induce the same image
    subgraph (pattern automorphisms) count as one match, matching the
    paper's definition of [Q(G)] as a set of subgraphs.

    The search follows the VF2 recipe: a connectivity-respecting matching
    order, candidates generated from the image adjacency of an already
    matched pattern neighbor, and label/degree feasibility pruning. *)

type node = Ig_graph.Digraph.node

type mapping = node array
(** [mapping.(u)] is the graph node the pattern node [u] maps to. *)

type canon = node list * (node * node) list
(** Canonical form of a match subgraph: sorted image nodes and sorted image
    edges. Two mappings are the same match iff their canons are equal. *)

val canon_of : Pattern.t -> mapping -> canon

val compare_canon : canon -> canon -> int
(** Total order on canons (lexicographic, [Int.compare]-based); the
    sanctioned comparator for producing sorted match lists. *)

type plan
(** A matching order anchored on one pattern edge, with its per-node
    feasibility checks precomputed (built once per pattern edge by
    {!plan}). *)

val plan : Pattern.t -> int * int -> plan
(** [plan p (x, y)]: the order for matches that map pattern edge [(x, y)]
    onto a given graph edge — [x], then [y], then the rest of the pattern
    by adjacency. *)

val symbols : Ig_graph.Digraph.t -> Pattern.t -> Ig_graph.Digraph.label array
(** Each pattern node's label as the graph's symbol, [-1] for a label no
    node of the graph has yet. *)

type work = { mutable visited : int; mutable relaxed : int }
(** Exact search effort: [relaxed] counts candidate nodes examined (an
    adjacency entry of a matched neighbour, or a label-index entry for an
    unanchored first node); [visited] counts candidates that passed the
    feasibility checks and were bound into the partial mapping, anchors
    included. *)

val iter_matches :
  ?anchor:plan * (node * node) ->
  ?work:work ->
  Ig_graph.Digraph.t ->
  Pattern.t ->
  (mapping -> unit) ->
  unit
(** Enumerate mappings (one callback per {e mapping}; callers dedupe by
    {!canon_of} when they need subgraph semantics). With [anchor]
    [(plan p (x, y), (v, w))], only the mappings with [x ↦ v] and [y ↦ w]
    are enumerated, found by extending from [v] and [w] through adjacency
    alone, so the search never leaves the [d_Q]-neighbourhood of the edge
    and never reads the label index. [work], when given, is incremented by
    the search effort. *)

val find_all : Ig_graph.Digraph.t -> Pattern.t -> mapping list
(** All distinct matches (one representative mapping per canon). *)
