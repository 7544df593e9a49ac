(** Tarjan's strongly-connected-components algorithm [43].

    This is the batch algorithm [Tarjan] that the paper incrementalizes
    (Section 5.3). Besides the plain component computation it can record the
    DFS {e certificate} that IncSCC maintains per component:

    - [num]: DFS visit order;
    - [lowlink]: smallest [num] reachable via tree arcs plus at most one
      frond or cross-link (Tarjan's invariant);
    - [parent]: the DFS tree arc, [-1] at subtree roots;
    - [witness]: {e which} candidate realized [lowlink] — [Wself] when
      [lowlink = num], [Wtree c] when it flowed up from tree child [c],
      [Wdirect w] when a frond/cross-link [(v,w)] realized it.

    The witness is what makes intra-component edge deletions O(1) when the
    deleted edge is neither a tree arc nor anyone's lowlink witness: the
    recorded run is then verbatim a valid run on the smaller graph, so the
    component structure is unchanged (IncSCC−'s fast path). IncSCC runs
    Tarjan on G only: once at init, and on one component's induced
    subgraph when a deletion defeats the fast path.

    All traversal is iterative — no stack-depth limits on deep graphs.
    Components are returned in reverse topological order of the condensation
    (sinks first), which is the output sequence the paper uses to seed
    topological ranks. *)

type node = Ig_graph.Digraph.node

type witness =
  | Wself
  | Wtree of node
  | Wdirect of node

type cert = {
  mutable num : int;
  mutable lowlink : int;
  mutable parent : node;
  mutable witness : witness;
  mutable on_stack : bool;  (** scratch; [false] outside a run *)
}

val fresh_cert : unit -> cert

val scc : Ig_graph.Digraph.t -> node list list
(** All strongly connected components, sinks first. *)

val run_with_cert :
  ?work:Ig_graph.Traverse.work ->
  Ig_graph.Digraph.t ->
  restrict:(node -> bool) ->
  nodes:node list ->
  cert:(node -> cert) ->
  node list list
(** Run on the subgraph induced by [nodes ∩ restrict] (every listed node is
    used as a DFS root candidate; successors failing [restrict] are skipped),
    filling the given certificate records. [num] is reset for all listed
    nodes first, so stale certificates are overwritten. Components are
    returned sinks-first, as in {!scc}. [work], when given, is incremented
    by the nodes the run visits and every out-edge it scans, restricted
    or not. *)
