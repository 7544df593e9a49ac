(** Incremental strongly connected components (paper Section 5.3).

    Incrementalizes Tarjan's algorithm relative to its inspected data: the
    [num]/[lowlink] certificates, plus a contracted graph [Gc] whose nodes
    are components, whose edges carry multiplicity counters, and whose nodes
    hold topological ranks satisfying [r(a) > r(b)] for every edge [(a,b)]
    (the invariant of [43] the paper capitalizes on).

    - {b Insertion} ([IncSCC+], paper Fig. 7): an intra-component edge never
      changes the output; an inter-component edge with consistent ranks only
      bumps a counter; otherwise the affected area — the rank-windowed
      forward closure from [scc(w)] and backward closure from [scc(v)] — is
      searched, Tarjan runs on that region of [Gc], cycles are merged, and
      ranks are reallocated Pearce–Kelly style among the region's existing
      labels.
    - {b Deletion} ([IncSCC−]): an inter-component edge only decrements a
      counter. For an intra-component edge, the recorded Tarjan run remains
      a verbatim certificate whenever the edge is neither a DFS tree arc nor
      any node's lowlink witness — an O(1) fast path; otherwise Tarjan runs
      locally on the component's induced subgraph, splitting it when
      strong connectivity broke and threading fresh ranks into the retired
      component's slot.
    - {b Batch} ([IncSCC]): intra-component updates are grouped so local
      Tarjan runs at most once per affected component; inter-component
      deletions are applied before insertions; insertions restore the rank
      invariant one at a time.

    An intra-component insertion dirties nothing in lazy mode: the recorded
    certificate is a valid run over the edges present when it was computed,
    which already prove the component strongly connected, so both later
    deletion fast-path checks and the deletion of the new edge itself stay
    sound against it.

    The same engine, differently configured, yields the paper's three
    comparison subjects: [IncSCC] (lazy certificates + fast path + batch
    grouping), [IncSCCn] (unit updates one by one), and the [DynSCC]
    stand-in (no deletion fast path: every intra-component deletion pays a
    local recomputation to keep its structures fresh even when the output is
    stable, reproducing the paper's observation in Exp-1(3)). *)

type node = Ig_graph.Digraph.node

type config = {
  eager_cert : bool;
      (** refresh a component's certificate immediately after an
          intra-component insertion or merge, instead of lazily marking it
          dirty *)
  delete_fast_path : bool;
      (** enable the O(1) non-witness deletion path *)
  group_batch : bool;
      (** group intra-component updates per component in {!apply_batch} *)
}

val inc_config : config
(** IncSCC: lazy certificates, fast path, batch grouping. *)

val incn_config : config
(** IncSCCn: like IncSCC but batches degrade to one-by-one processing. *)

val dyn_config : config
(** DynSCC stand-in: no deletion fast path, one-by-one. *)

type delta = {
  removed : node list list;  (** components that ceased to exist *)
  added : node list list;    (** components that came into existence *)
}
(** ΔO for SCC: [SCC(G ⊕ ΔG) = (SCC(G) ∖ removed) ∪ added]. *)

type stats = {
  mutable cert_nodes : int;
      (** nodes whose certificate was recomputed — the [num]/[lowlink]
          part of AFF *)
  mutable rank_moves : int;
      (** contracted-graph nodes whose rank changed — also in AFF *)
  mutable fast_deletes : int;
      (** intra-component deletions resolved by the O(1) witness check *)
  mutable violations : int;
      (** rank violations resolved by affected-region search *)
}

type t

val init :
  ?config:config ->
  ?obs:Ig_obs.Obs.t ->
  ?trace:Ig_obs.Tracer.t ->
  Ig_graph.Digraph.t ->
  t
(** Run Tarjan once and set up all auxiliary structures. The graph is owned
    by the engine afterwards: apply updates only through it. [obs] (default
    {!Ig_obs.Obs.noop}) receives cost counters: [aff] (nodes re-certified
    plus rank-region size — the measured |AFF|), [cert_rewrites],
    [nodes_visited], [edges_relaxed] and [queue_pushes] (affected-region
    closures over the contracted graph), [rank_moves], [violations],
    [fast_deletes], and [changed] = |ΔG| + |ΔO|. Each {!apply_batch} call
    also records one sample into the [apply_latency_s] histogram
    (monotonic seconds) and the [gc_minor_words]/[gc_major_words]/
    [gc_promoted_words] histograms (words allocated, per
    {!Ig_obs.Obs.with_apply}). [trace] (default
    {!Ig_obs.Tracer.noop}) receives structured events: [Aff_enter] tagged
    [Scc_local_tarjan] (node re-certified by a local Tarjan run; node ids)
    or [Scc_rank_swap] (component inside the affected rank region;
    component ids), [Cert_rewrite] on the [certificate] and [rank] fields,
    and [Frontier_expand] per contracted-closure push (component ids). *)

val graph : t -> Ig_graph.Digraph.t

val config : t -> config

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the engine was created with. *)

val trace : t -> Ig_obs.Tracer.t
(** The event tracer the engine was created with. *)

val add_node : t -> string -> node
(** Add a fresh labeled node (a new singleton component, reported as
    added by the next {!apply_batch}). *)

val apply_batch : t -> Ig_graph.Digraph.update list -> delta
(** Apply a batch and return ΔO since the previous call. *)

val components : t -> node list list
(** Current [SCC(G)]. *)

val n_components : t -> int

val component_of : t -> node -> node list

val same_component : t -> node -> node -> bool

val stats : t -> stats

val reset_stats : t -> unit

val check_invariants : t -> unit
(** Test hook. Verifies: components agree with a from-scratch Tarjan run;
    member/ownership tables are mutually consistent; contracted-graph
    counters match the underlying graph; ranks strictly decrease along
    contracted edges. @raise Failure describing the first violation. *)

val pp_debug : Format.formatter -> t -> unit
(** Dump components, ranks and contracted adjacency (debugging aid). *)

val contracted : t -> Ig_graph.Digraph.t * node list array
(** Export the current contracted graph [Gc] as a fresh digraph: one node
    per component, labeled ["scc"], created in ascending topological rank
    (so node ids are a reverse topological order of the condensation —
    sinks first — and every edge goes from a higher id to a lower one).
    The array maps each contracted node to its members. *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): per-node component ids and Tarjan
    certificates, the topological rank order of live components, and the
    contracted edge multiset, as named canonical-text sections (hash-seed
    independent). The cert section is evidence for inspection: lazily
    maintained certificates are history-dependent, so recovery replays the
    journal instead of trusting it. *)
