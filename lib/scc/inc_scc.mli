(** Incremental strongly connected components (paper Section 5.3).

    Incrementalizes Tarjan's algorithm relative to its inspected data: the
    [num]/[lowlink] certificates, plus topological ranks on the nodes of
    the contracted graph [Gc] (one node per component) satisfying
    [r(a) > r(b)] for every contracted edge [(a,b)] (the invariant of [43]
    the paper capitalizes on). [Gc] is derived, not stored: its edges are
    read off G through the node-to-component map, and per-node counts of
    the edges that leave or enter the node's component let a search read
    every member's counts but scan only the edges of boundary members.

    - {b Insertion} ([IncSCC+], paper Fig. 7): an intra-component edge never
      changes the output; an inter-component edge with consistent ranks only
      bumps its endpoints' external degrees; otherwise the affected area —
      the rank-windowed forward closure from [scc(w)] and backward closure
      from [scc(v)] — is searched, the components on a cycle through the
      new edge are merged, and ranks are reallocated Pearce–Kelly style
      among the region's existing labels.
    - {b Deletion} ([IncSCC−]): an inter-component edge only decrements its
      endpoints' external degrees. For an intra-component edge, the
      recorded Tarjan run remains a verbatim certificate whenever the edge
      is neither a DFS tree arc nor any node's lowlink witness — an O(1)
      fast path. Otherwise the paper's reachability check re-proves the
      component: a bidirectional search u ⇝ v inside it for the deleted
      (u, v). A deletion that leaves [u] with no edge into the component,
      or [v] with none from it, is a certain split and skips the search.
      The searches for one component in one batch share a budget of |C|
      expanded nodes. When every search finds its path, the component
      keeps its members, ranks and ΔO; when one fails, or the budget runs
      out, Tarjan runs locally on the component's induced subgraph,
      splitting it when strong connectivity broke and threading fresh
      ranks into the retired component's slot.
    - {b Batch} ([IncSCC]): G ⊕ ΔG is applied first, by one
      {!Ig_graph.Digraph.apply_net} call (so at most one compaction), and
      the repair only reads G. The inter-component updates move the
      external degrees at once. Intra-component deletions are grouped so
      local Tarjan runs at most once per affected component. Then each
      inter-component insertion that violates the ranks at its turn
      restores them; the closures follow a contracted edge only when it
      respects the ranks, so the insertions still waiting are skipped,
      and after the pass every contracted edge respects them.

    Certificates are kept lazily. A component is {e dirty} when its
    recorded certificate no longer proves it strongly connected: after a
    merge, and after deletions that searches re-proved. A dirty
    component's certificate is never consulted: every deletion in it goes
    to the reachability check, and it becomes clean again only when a
    local Tarjan run re-certifies it. An intra-component insertion
    dirties nothing: the recorded certificate is a valid run over the
    edges present when it was computed, which already prove the component
    strongly connected, so both later deletion fast-path checks and the
    deletion of the new edge itself stay sound against it.

    The paper's three comparison subjects are this one engine: [IncSCC]
    is a whole batch per {!apply_batch} call, [IncSCCn] is one update per
    call (the witness fast path, and local Tarjan when it fails), and the
    [DynSCC] stand-in is an engine built with [~dyn:true]. It has no
    deletion fast path: each component with intra-component deletions
    pays a reachability check u ⇝ v inside it for every deleted (u, v),
    even when the output is stable, reproducing the paper's observation in
    Exp-1(3). Its check is a forward walk from [u] with no degree
    pre-check and no budget. When every check succeeds the component is
    only marked dirty; a local recomputation runs only when one fails. *)

type node = Ig_graph.Digraph.node

type delta = {
  removed : node list list;  (** components that ceased to exist *)
  added : node list list;    (** components that came into existence *)
}
(** ΔO for SCC: [SCC(G ⊕ ΔG) = (SCC(G) ∖ removed) ∪ added], with
    [removed ⊆ SCC(G)] and [added ∩ SCC(G) = ∅]: a component a batch
    splits and merges back is in neither list. *)

type t

val init :
  ?dyn:bool ->
  ?obs:Ig_obs.Obs.t ->
  Ig_graph.Digraph.t ->
  t
(** Run Tarjan once and set up all auxiliary structures. The graph is owned
    by the engine afterwards: apply updates only through it. [dyn]
    (default [false]) builds the DynSCC stand-in. [obs] (default
    {!Ig_obs.Obs.noop}) receives cost counters: [aff] (nodes re-certified
    plus rank-region size — the measured |AFF|), [cert_rewrites] (nodes
    whose [num]/[lowlink] certificate was recomputed), [nodes_visited]
    (every member of each component an affected-region closure visits,
    nodes visited by local Tarjan and nodes the reachability checks
    expand), [edges_relaxed] (every G edge scanned: by the closures, by
    local Tarjan, by the external-degree upkeep of merges and splits and
    by the reachability checks), [queue_pushes] (closure pushes),
    [rank_moves] (rank-region size of each violation, plus the parts
    each split ranks afresh),
    [violations] (rank violations resolved by affected-region search),
    [fast_deletes] (intra-component deletions resolved by the O(1)
    witness check, in batches that run no local Tarjan on their
    component), and [changed] = |ΔG| + |ΔO| ([changed_input],
    counted by the graph, plus [changed_output], counted by
    {!Ig_graph.Delta_set}). Each {!apply_batch} call also records one
    sample into the [apply_latency_s] histogram (monotonic seconds) and
    the [gc_minor_words]/[gc_major_words]/[gc_promoted_words] histograms
    (words allocated, per {!Ig_obs.Obs.with_apply}). A sink created with
    [~events] also records structured events: [Aff_enter] tagged
    [Scc_local_tarjan] (node re-certified by a local Tarjan run; node ids)
    or [Scc_rank_swap] (component inside the affected rank region;
    component ids), [Cert_rewrite] on the [certificate] and [rank] fields,
    and [Frontier_expand] per contracted-closure push (component ids). *)

val graph : t -> Ig_graph.Digraph.t

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the engine was created with. *)

val apply_batch : t -> Ig_graph.Digraph.update list -> delta
(** Apply a batch and return its ΔO. *)

val components : t -> node list list
(** Current [SCC(G)]. *)

val n_components : t -> int

val component_of : t -> node -> node list

val same_component : t -> node -> node -> bool

val check_invariants : t -> unit
(** Test hook. Verifies: components agree with a from-scratch Tarjan run;
    member/ownership tables are mutually consistent; per-node external
    degrees match the graph; ranks strictly decrease along contracted
    edges. @raise Failure describing the first violation. *)

val contracted : t -> Ig_graph.Digraph.t * node list array
(** Build the current contracted graph [Gc] from G as a fresh digraph: one node
    per component, labeled ["scc"], created in ascending topological rank
    (so node ids are a reverse topological order of the condensation —
    sinks first — and every edge goes from a higher id to a lower one).
    The array maps each contracted node to its members. *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): per-node component ids and Tarjan
    certificates, and the topological rank order of live components, as
    named canonical-text sections (hash-seed independent). The contracted
    edges follow from the component ids and the graph. The cert section is evidence for inspection: lazily
    maintained certificates are history-dependent, so recovery replays the
    journal instead of trusting it. *)
