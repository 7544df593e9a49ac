(** Pattern queries for subgraph isomorphism (paper Section 2.1).

    A pattern is a small node-labeled digraph [(V_Q, E_Q, l_Q)]. Patterns
    must be weakly connected — the paper characterizes them by
    [(|V_Q|, |E_Q|, d_Q)] where [d_Q], the {e diameter}, is the longest
    shortest undirected distance between any two pattern nodes; [d_Q] is
    what bounds IncISO's neighborhood exploration, so localizability relies
    on connectivity. *)

type t

val create : labels:string list -> edges:(int * int) list -> t
(** Pattern nodes are [0 .. length labels - 1]; [edges] are directed pattern
    edges (duplicates collapse).
    @raise Invalid_argument if empty or not weakly connected. *)

val n_nodes : t -> int
val n_edges : t -> int
val label : t -> int -> string
val edges : t -> (int * int) list

val succ : t -> int -> int list
val pred : t -> int -> int list

val diameter : t -> int
(** [d_Q]: longest undirected shortest path. 0 for a single node. *)

val matching_order : ?anchor:int * int -> t -> int array
(** A permutation of pattern nodes such that every node after the first has
    a (directed, either way) neighbor earlier in the order — the backbone of
    the VF2 candidate generation. With [anchor] [(x, y)], a pattern edge,
    the order starts [x, y] ([x] alone for a self-loop); otherwise it starts
    at a node of maximum degree. *)

val pp : Format.formatter -> t -> unit
