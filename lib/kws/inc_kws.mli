(** IncKWS: localizable incremental keyword search (paper Section 4.2,
    Figures 1 and 3).

    The auxiliary structure is the keyword-distance list [kdist(v)[ki] =
    (dist, next)] for every node within [b] hops of a keyword node. All
    change propagation is confined to the [b]-neighbors of the updated
    edges — distances beyond the bound are never stored nor explored —
    which is what makes the algorithm localizable even though KWS is
    unbounded (Theorem 1).

    - {b IncKWS+} (Fig. 1): an inserted edge [(v,w)] that shortens [v]'s
      distance to some keyword triggers a decrease-only propagation to
      ancestors.
    - {b IncKWS−} (Fig. 3): an edge deletion invalidates exactly the nodes
      whose chosen [next]-path used it; those are found by walking the
      [next]-pointer tree backwards (phase one), then re-settled in
      ascending distance order with a priority queue seeded by their best
      unaffected successor (phase two).
    - {b IncKWS} (batch): deletions and insertions share one global priority
      queue per keyword, so every affected entry is decided exactly once
      per batch even when hit by several unit updates (paper Example 3).

    On a one-update batch the combined pass is IncKWS+ or IncKWS−, so the
    paper's one-by-one ablation IncKWSn is {!apply_batch} called once per
    update.

    A root matches iff all [m] keywords are within bound, so ΔO tracks the
    per-node count of defined entries. *)

type node = Ig_graph.Digraph.node

type delta = {
  added : node list;           (** new match roots *)
  removed : node list;         (** roots that stopped matching *)
}

type t

val init : ?obs:Ig_obs.Obs.t -> Ig_graph.Digraph.t -> Batch.query -> t
(** Compute the kdist lists once with the batch algorithm and keep them.
    [obs] (default {!Ig_obs.Obs.noop}) receives the engine's cost counters:
    [aff] (kdist entries invalidated), [cert_rewrites] (entries re-settled),
    [nodes_visited], [edges_relaxed], [queue_pushes], and
    [changed] = |ΔG| + |ΔO| ([changed_input], counted by the graph, plus
    [changed_output], counted by {!Ig_graph.Delta_set}).
    Each {!apply_batch} call also records one sample into the
    [apply_latency_s] histogram (monotonic seconds) and the
    [gc_minor_words]/[gc_major_words]/[gc_promoted_words] histograms
    (words allocated, per {!Ig_obs.Obs.with_apply}). A sink created with
    [~events] also records typed provenance events at the same sites:
    [Aff_enter] tagged [Kws_next_on_deleted] (Fig. 3 lines 1-6) or
    [Kws_shorter_kdist] (Fig. 1), [Cert_rewrite] per re-settled [kdist[i]]
    entry with before/after values, and [Frontier_expand] per queue push.
    The session owns the graph afterwards. *)

val graph : t -> Ig_graph.Digraph.t
val query : t -> Batch.query

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the session was created with. *)

val apply_batch : t -> Ig_graph.Digraph.update list -> delta
(** Apply the batch's net effect and return its ΔO. *)

val match_roots : t -> node list
val n_matches : t -> int

val kdist : t -> node -> int -> Batch.entry option
(** Current entry for (node, keyword index), if within bound. *)

val match_tree : t -> node -> (int * node list) list
(** The match tree at a root: one [next]-path per keyword (empty if the node
    is not a match root). *)

val check_invariants : t -> unit
(** Test hook: distances equal a fresh batch computation, every [next]
    pointer is a valid shortest-path successor, and the root set matches.
    @raise Failure on violation. *)

val corrupt_certificate_for_testing : t -> bool
(** Mutation-testing hook: bump one stored kdist distance by one, leaving
    all other state untouched, so the auxiliary structure no longer agrees
    with the graph. Returns [false] if no entry exists to corrupt. A
    subsequent {!check_invariants} must fail — the fuzz harness's mutation
    smoke test asserts that the differential layer actually catches planted
    certificate bugs. *)

val set_bound : t -> int -> delta
(** Change the hop bound [b] in place and return the resulting ΔO — the
    paper's Remark in Section 4.2. Raising the bound continues change
    propagation from the "breakpoints" where it previously stopped (the
    frontier entries at the old bound, derivable from the kdist lists);
    lowering it drops the entries beyond the new bound. After the call the
    session behaves exactly as if initialized with the new bound. Each
    entry settled while raising counts one [cert_rewrites]. *)

val match_cost : t -> node -> int option
(** The minimized objective of the paper's match definition at a root:
    [Σ_i dist(r, p_i)] over all keywords, or [None] if the node is not a
    match root. *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): the kdist lists, per-node keyword
    counts and match total as named canonical-text sections (hash-seed
    independent), for durable certificate snapshots. *)
