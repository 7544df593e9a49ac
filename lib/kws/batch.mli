(** Batch keyword search with distinct roots (paper Section 2.1).

    A query is a list of keywords [(k1, …, km)] and a hop bound [b]. A match
    at root [r] is a tree rooted at [r] containing, for each keyword, a node
    matching it within [b] directed hops, with the total distance minimal —
    so a root matches iff every keyword is within [b] hops, and the tree is
    the union of one shortest path per keyword. Each root determines at most
    one match (ties broken by smallest successor id).

    This module is the batch baseline the paper calls BLINKS [27]: like
    BLINKS (and BANKS [8], bidirectional search [30]), it works backward
    from the keyword nodes — a bounded multi-source reverse BFS per keyword
    from a keyword→nodes index — building exactly the keyword-distance lists
    [kdist(·)] that the incremental algorithms maintain. It is in the
    [O(m(|V| log |V| + |E|))] class the paper cites via [45] (BFS suffices
    here because hops are unit-weight). *)

type node = Ig_graph.Digraph.node

type query = {
  keywords : string list;  (** [k1 … km], matched against node labels *)
  bound : int;             (** [b ≥ 0], max hops from root to keyword *)
}

type entry = { dist : int; next : node }
(** One [kdist] record: shortest distance to a node matching the keyword,
    and the chosen successor on that path ([next = -1] when [dist = 0],
    i.e. the node itself matches). *)

val kdist_maps : Ig_graph.Digraph.t -> query -> (node, entry) Hashtbl.t array
(** One map per keyword (query order); only entries with [dist ≤ bound] are
    present. [next] is the smallest-id successor on a shortest path. *)

val run : Ig_graph.Digraph.t -> query -> node list
(** All match roots of [Q(G)]. *)

val tree_of : (node, entry) Hashtbl.t array -> node -> (int * node list) list
(** [tree_of kd r]: for each keyword index, the path [r … p_i] following
    [next] pointers. Empty list if [r] is not a match root. *)
