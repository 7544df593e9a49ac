(** The batch algorithm RPQNFA (paper Section 5.2).

    Translates the regular path query into an ε-free NFA, then for every
    source node runs a BFS over the intersection graph, marking the nodes
    reached in each state with their BFS distance. A pair [(u, v)] is a
    match iff some accepting state is reached at [v] from [(u, s0)]. This is
    the [O(|V||E||Q|² log² |Q|)]-class algorithm the paper incrementalizes,
    and the distances it records are exactly the [dist] field of the
    [pmark_e] markings IncRPQ maintains. *)

type node = Ig_graph.Digraph.node

val source_marks : Pgraph.t -> node -> (Pgraph.key, int) Hashtbl.t
(** BFS over the product graph from source [u]: maps reached product keys to
    their distance from the virtual root [(u, s0)] (initial entries have
    distance 0). Empty when [u] is not a source. *)

val run : Ig_graph.Digraph.t -> Ig_nfa.Nfa.t -> (node * node) list
(** The full answer [Q(G)] as match pairs. *)

val run_query : Ig_graph.Digraph.t -> Ig_nfa.Regex.t -> (node * node) list
(** Convenience: compile the regex against the graph's interner and {!run}. *)
