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

    A root matches iff all [m] keywords are within bound, so ΔO tracks the
    per-node count of defined entries; [rewired] additionally reports the
    entries whose [(dist, next)] changed — the in-place tree edge
    replacements of the paper's lines 9-10/15-16. *)

type node = Ig_graph.Digraph.node

type delta = {
  added : node list;           (** new match roots *)
  removed : node list;         (** roots that stopped matching *)
  rewired : (node * int) list;
      (** (node, keyword index) entries re-settled or improved — tree edges
          replaced inside surviving matches *)
}

type stats = { mutable affected : int; mutable settled : int }

type t

val init :
  ?grouped:bool ->
  ?obs:Ig_obs.Obs.t ->
  ?trace:Ig_obs.Tracer.t ->
  Ig_graph.Digraph.t ->
  Batch.query ->
  t
(** Compute the kdist lists once with the batch algorithm and keep them.
    [grouped] (default [true]) is the paper's IncKWS; [false] processes
    batch updates one unit at a time (IncKWSn). [obs] (default
    {!Ig_obs.Obs.noop}) receives the engine's cost counters: [aff] (kdist
    entries invalidated), [cert_rewrites] (entries re-settled),
    [nodes_visited], [edges_relaxed], [queue_pushes], and the
    [changed]/[changed_input]/[changed_output] accounting of |ΔG| + |ΔO|.
    Each {!apply_batch} call also records one sample into the
    [apply_latency_s] histogram (monotonic seconds) and the
    [gc_minor_words]/[gc_major_words]/[gc_promoted_words] histograms
    (words allocated, per {!Ig_obs.Obs.with_apply}). [trace]
    (default {!Ig_obs.Tracer.noop}) receives typed provenance events at the
    same sites: [Aff_enter] tagged [Kws_next_on_deleted]
    (Fig. 3 lines 1-6) or [Kws_shorter_kdist] (Fig. 1), [Cert_rewrite] per
    re-settled [kdist[i]] entry with before/after values, and
    [Frontier_expand] per queue push. The session owns the graph
    afterwards. *)

val graph : t -> Ig_graph.Digraph.t
val query : t -> Batch.query

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the session was created with. *)

val trace : t -> Ig_obs.Tracer.t
(** The event tracer the session was created with. *)

val add_node : t -> string -> node
(** A fresh node; it immediately matches any keyword equal to its label.
    A match root it adds is reported by the next {!apply_batch}. *)

val apply_batch : t -> Ig_graph.Digraph.update list -> delta
(** Apply the batch's net effect and return ΔO since the previous call. *)

val match_roots : t -> node list
val n_matches : t -> int
val is_match_root : t -> node -> bool

val kdist : t -> node -> int -> Batch.entry option
(** Current entry for (node, keyword index), if within bound. *)

val match_tree : t -> node -> (int * node list) list
(** The match tree at a root: one [next]-path per keyword (empty if the node
    is not a match root). *)

val stats : t -> stats
val reset_stats : t -> unit

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
    session behaves exactly as if initialized with the new bound. *)

val match_cost : t -> node -> int option
(** The minimized objective of the paper's match definition at a root:
    [Σ_i dist(r, p_i)] over all keywords, or [None] if the node is not a
    match root. *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): the kdist lists, per-node keyword
    counts and match total as named canonical-text sections (hash-seed
    independent), for durable certificate snapshots. *)
