(** SSRP — single-source reachability to all vertices (paper Section 3).

    Given [G] and a distinguished node [v_s], decide for every [v_t] whether
    [v_s ⇝ v_t]. Its incremental problem is the paper's reduction source for
    the Theorem 1 impossibility proofs: it is {e bounded under unit edge
    insertions but unbounded under unit edge deletions} [38]. This module
    exhibits both halves: {!insert_edge} is the textbook bounded algorithm
    (cost proportional to the newly reachable region, which is part of ΔO),
    while {!delete_edge} recomputes reachability of the affected region from
    scratch — there is provably no way around inspecting data not covered by
    |ΔG| + |ΔO| there. *)

type node = Ig_graph.Digraph.node

val batch : Ig_graph.Digraph.t -> node -> (node, unit) Hashtbl.t
(** Forward BFS closure: the reachable set of the source. *)

type t

val init : Ig_graph.Digraph.t -> node -> t
(** The session owns the graph afterwards. *)

val graph : t -> Ig_graph.Digraph.t
val source : t -> node
val reaches : t -> node -> bool

val insert_edge : t -> node -> node -> node list
(** Apply [insert (u,v)] and return the newly reachable nodes. Bounded:
    touches only nodes entering the reachable set (⊆ ΔO) and their edges. *)

val delete_edge : t -> node -> node -> node list
(** Apply [delete (u,v)] and return the nodes that became unreachable.
    Recomputes the closure when the deleted edge was load-bearing — the
    unbounded case. *)

val check_invariants : t -> unit
(** Test hook: the maintained set equals a fresh BFS. *)
