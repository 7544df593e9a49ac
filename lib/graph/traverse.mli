(** Standard traversals over {!Digraph}.

    The localizable algorithms of the paper repeatedly need the
    [d]-neighborhood [G_d(v)] of updated nodes — nodes within [d] hops when
    the graph is read as undirected (Section 4.1) — and bounded BFS in either
    edge direction. *)

type node = Digraph.node

val bfs : ?bound:int -> dir:[ `Forward | `Backward ] -> Digraph.t ->
  node list -> (node, int) Hashtbl.t
(** Multi-source BFS along edges ([`Forward]) or against them ([`Backward]).
    Returns hop distances from the source set; nodes farther than [bound]
    (inclusive) are not visited. Sources get distance 0. *)

val ball : Digraph.t -> node list -> d:int -> (node, int) Hashtbl.t
(** [ball g vs ~d] is [V_d(vs)]: nodes within [d] undirected hops of any
    source, with their undirected distances. *)

type work = { mutable visited : int; mutable relaxed : int }
(** Search effort: [visited] counts nodes popped and expanded, [relaxed]
    the out-edges scanned from them. *)

val reaches :
  ?within:(node -> bool) -> ?work:work -> Digraph.t -> node -> node -> bool
(** [reaches g u v] tests directed reachability, optionally restricted to
    nodes satisfying [within] (both endpoints must satisfy it, except that
    [u] is always expanded). [work], when given, is incremented by the
    search effort; the search stops at the first edge into [v]. *)

val reachable : ?within:(node -> bool) -> Digraph.t ->
  dir:[ `Forward | `Backward ] -> node list -> (node, unit) Hashtbl.t
(** Restricted closure in the given direction. *)
