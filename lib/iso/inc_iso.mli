(** IncISO: localizable incremental subgraph isomorphism (paper Section 4
    and Appendix).

    - A deleted edge can only destroy matches whose image contains it: an
      edge→match index makes this a lookup.
    - An inserted edge [(v, w)] can only create matches that map some
      pattern edge [(x, y)] onto it. For each label-compatible pattern edge,
      VF2 runs with [x ↦ v] and [y ↦ w] fixed and extends through adjacency
      only ({!Vf2.iter_matches}'s [anchor]); patterns are weakly connected,
      so every new match is found from each of its new edges. The paper
      reruns VF2 on the [d_Q]-ball [G_{d_Q}(ΔG⁺)]; an anchored extension
      stays inside that ball without building it, so the bound of
      Theorem 3 holds, and an edge no pattern edge's labels fit costs
      O(|Q|).

    A batch moves the graph once by its net effect
    ({!Ig_graph.Digraph.apply_net}); then the deleted edges' matches go and
    the anchored runs cover every inserted edge (IncISO). The paper's
    one-by-one ablation IncISOn is
    {!apply_batch} called once per update. Costs are a function of [|Q|]
    and the [d_Q]-neighbourhood of ΔG only, never |G| — the localizability
    claim of Theorem 3. *)

type node = Ig_graph.Digraph.node

type delta = {
  added : Vf2.mapping list;
  removed : Vf2.mapping list;
}

type t

val init : ?obs:Ig_obs.Obs.t -> Ig_graph.Digraph.t -> Pattern.t -> t
(** Enumerate [Q(G)] once with VF2 and index it, and build one anchored
    matching order per pattern edge. The session owns the graph
    afterwards. [obs] (default {!Ig_obs.Obs.noop}) receives exact cost
    counters:
    - [aff]: matches created or destroyed (the measured |AFF|);
    - [cert_rewrites]: the same count, as match-store rewrites;
    - [rematches]: anchored VF2 runs, one per (net-inserted edge,
      label-compatible pattern edge);
    - [nodes_visited]: graph nodes bound into a partial mapping by the
      anchored runs, anchors included;
    - [edges_relaxed]: candidate nodes the anchored runs examined beyond
      the anchors, each an adjacency entry of an already-bound node;
    - [changed]: |ΔG| (net) + |ΔO|, counted by the graph and by
      {!Ig_graph.Delta_set}.

    Each {!apply_batch} call also records one sample into the
    [apply_latency_s] histogram (monotonic seconds) and the
    [gc_minor_words]/[gc_major_words]/[gc_promoted_words] histograms
    (words allocated, per {!Ig_obs.Obs.with_apply}). A sink created with
    [~events] also records structured events:
    [Aff_enter] tagged [Iso_match_broken] (a match ran through a deleted
    edge) or [Iso_ball_rematch] (a fresh match from an anchored VF2 run),
    [Cert_rewrite] on the [match] field (the mapping's image), and
    [Frontier_expand] on the tail of the inserted edge of each anchored
    run. [init] clears the sink's events, so the initial batch
    enumeration leaves none. *)

val graph : t -> Ig_graph.Digraph.t
val pattern : t -> Pattern.t

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the session was created with. *)

val apply_batch : t -> Ig_graph.Digraph.update list -> delta
(** Apply the batch's net effect and return ΔO. The graph ends as
    {!Ig_graph.Digraph.apply_batch} would leave it, whatever the order of
    updates to the same edge. *)

val matches : t -> Vf2.mapping list
val n_matches : t -> int

val check_invariants : t -> unit
(** Test hook: the match set equals a fresh VF2 enumeration and the edge
    index is consistent. @raise Failure on violation. *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): every current match (canonical image
    plus pattern-indexed mapping) in {!Vf2.compare_canon} order, as named
    canonical-text sections (hash-seed independent), for durable certificate
    snapshots. *)
