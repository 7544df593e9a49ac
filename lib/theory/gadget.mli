(** The Figure 9 counterexample: unboundedness of RPQ under insertions.

    Two disjoint directed cycles of length [cycle] — the [v]-cycle labeled
    [α1] and the [u]-cycle labeled [α2] — plus a sink [w] labeled [α3]
    reachable from [v_0], and the query [Q = α1 · α1* · α2 · α2* · α3].
    Two insertions are prepared: [Δ1] bridges the cycles at their far side
    ([v_{n/2} → u_{n/2}]), and [Δ2] connects the [u]-cycle to the sink
    ([u_0 → w]). (The paper's prose writes [Δ2 = (u_1, v_1)], but only a
    [u → w] edge can complete a word of [L(Q)] — the node before [w] must
    carry [α2] — and only then does [Q(G ⊕ Δ1 ⊕ Δ2)] equal the
    [{(v_i, w)}] set the proof claims; we implement that reading.)

    Then [Q(G) = Q(G ⊕ Δ1) = Q(G ⊕ Δ2) = ∅] while [Q(G ⊕ Δ1 ⊕ Δ2)]
    contains every [v]-node paired with [w]. The proof's punchline: a
    locally persistent algorithm processing [Δ2] must behave differently
    depending on whether [Δ1] was applied — information that sits Ω(cycle)
    hops away — while [|CHANGED|] for [Δ1] alone is 1. So no bounded
    incremental algorithm exists. {!demo} measures this empirically with
    IncRPQ's work counters. *)

type node = Ig_graph.Digraph.node

type t = {
  graph : Ig_graph.Digraph.t;
  query : Ig_nfa.Regex.t;
  delta1 : Ig_graph.Digraph.update;  (** insert (v_{n/2}, u_{n/2}) *)
  delta2 : Ig_graph.Digraph.update;  (** insert (u_0, w) *)
  v_nodes : node list;
  u_nodes : node list;
  w : node;
}

val make : cycle:int -> t
(** [cycle ≥ 2]: nodes per cycle. *)

val expected_matches : t -> (node * node) list
(** [Q(G ⊕ Δ1 ⊕ Δ2)]: every v-node paired with [w]. *)

type demo_point = {
  n : int;        (** cycle length *)
  changed : int;  (** |ΔG| + |ΔO| for Δ1 — always 1 *)
  inc_work : int;
      (** IncRPQ work on Δ1: [aff] + [cert_rewrites], the marking entries
          invalidated plus those settled *)
}

val demo : cycles:int list -> demo_point list
(** Empirical unboundedness: the work for the output-silent [Δ1] grows with
    the gadget while |CHANGED| stays 1. *)
