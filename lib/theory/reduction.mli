(** Δ-reductions (paper Section 3) — the proof technique behind Theorem 1,
    made executable.

    A Δ-reduction from query class [Q1] to [Q2] is a triple [(f, fi, fo)]:
    [f] maps instances, [fi] maps input updates, and [fo] maps output
    changes back, all in PTIME in [|ΔG1| + |ΔO1|] and [|Q1|]. Lemma 2: if
    [Q2] has a bounded incremental algorithm, so does [Q1]; contrapositively
    the unboundedness of SSRP under deletions transfers to RPQ (and on to
    SCC, KWS in the paper's full version).

    This module packages the generic triple and the concrete SSRP → RPQ
    reduction from the paper's appendix: every node of [G1] keeps its
    edges; the source is relabeled [α1], all others [α2]; and
    [Q2 = α1 · α2*], so [v_s ⇝ v_i] in [G1] iff [(v_s', v_i')] is a match
    of [Q2] in [G2]. Tests replay random update streams through the
    reduction and an RPQ engine, checking they solve SSRP. *)

type node = Ig_graph.Digraph.node

type ('i1, 'd1, 'o1, 'i2, 'd2, 'o2) t = {
  f : 'i1 -> 'i2;            (** instance mapping *)
  fi : 'i1 -> 'd1 -> 'd2;    (** input-update mapping *)
  fo : 'i1 -> 'o2 -> 'o1;    (** output-update mapping (back) *)
}

type ssrp_instance = { graph : Ig_graph.Digraph.t; source : node }

type reach_change = { node : node; now_reachable : bool }

val ssrp_to_rpq :
  ( ssrp_instance,
    Ig_graph.Digraph.update,
    reach_change list,
    Ig_graph.Digraph.t * Ig_nfa.Regex.t,
    Ig_graph.Digraph.update,
    Ig_rpq.Inc_rpq.delta )
  t
(** The appendix reduction. [f] builds a fresh relabeled copy of the graph
    (node ids preserved, so [fi] is the identity on edge updates); [fo]
    projects the RPQ match changes [(v_s, v_i)] to reachability flips of
    [v_i]. *)
