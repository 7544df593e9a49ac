(** IncRPQ: incremental regular path queries, bounded relative to RPQNFA
    (paper Section 5.2, Fig. 5).

    The auxiliary structure is the paper's marking [pmark_e]: for each
    source [u], the shortest distance from the virtual root [(u, s0)] to
    every reached product node [(v, s)]. The [cpre] (candidate predecessors)
    and [mpre] (shortest-path predecessors) fields of the paper are derived
    on demand from the graph adjacency and the inverse NFA transition index
    — same asymptotics, no extra state to keep consistent.

    Updates are processed Ramalingam–Reps style per source:

    + {b identAff} (paper line 1): starting from the heads of deleted
      product edges, an entry is {e affected} when no remaining product
      in-edge supports its recorded distance; losing a support propagates to
      product successors.
    + {b potential values} (lines 2-4): each affected entry is removed and
      re-enqueued keyed by the best distance obtainable through unaffected
      in-neighbors.
    + {b insertions} (lines 5-8): an inserted product edge whose tail is
      unaffected and which improves its head enqueues the head — entries
      with affected tails are left to the fix-up phase, exactly as the
      paper prescribes.
    + {b fix-up} (line 9): a Dijkstra loop over one global priority queue
      per source settles exact distances in monotonically increasing order,
      so every entry is decided at most once per batch; relaxation follows
      the (updated) product graph, which interleaves the effects of
      deletions and insertions (paper Example 5).

    Matches change only when an accepting-state entry appears at a node with
    none, or the last one disappears; ΔO is accumulated net of cancellation
    (an entry that bounces back within one batch contributes nothing). *)

type node = Ig_graph.Digraph.node

type delta = {
  added : (node * node) list;
  removed : (node * node) list;
}
(** ΔO: match pairs entering and leaving [Q(G)]. *)

type stats = {
  mutable affected : int;   (** entries identified as affected (AFF) *)
  mutable settled : int;    (** entries fixed by the priority-queue phase *)
}

type t

val init :
  ?grouped:bool ->
  ?obs:Ig_obs.Obs.t ->
  ?trace:Ig_obs.Tracer.t ->
  Ig_graph.Digraph.t ->
  Ig_nfa.Nfa.t ->
  t
(** Run the batch algorithm once and keep its markings. [grouped] (default
    [true]) processes batches with one combined fix-up phase per source —
    the paper's IncRPQ; [false] degrades {!apply_batch} to unit-at-a-time
    processing — the paper's IncRPQn ablation. [obs] (default
    {!Ig_obs.Obs.noop}) receives cost counters: [aff] (product-graph
    markings invalidated — the measured |AFF|), [cert_rewrites] (markings
    re-settled), [nodes_visited], [edges_relaxed], [queue_pushes], and
    [changed] = |ΔG| + |ΔO|. Each {!apply_batch} call also records one
    sample into the [apply_latency_s] histogram (monotonic seconds) and
    the [gc_minor_words]/[gc_major_words]/[gc_promoted_words] histograms
    (words allocated, per {!Ig_obs.Obs.with_apply}). [trace] (default
    {!Ig_obs.Tracer.noop}) receives structured events: [Aff_enter] tagged
    [Rpq_support_lost] (a marking lost its last shorter-distance
    predecessor) or [Rpq_dist_decrease] (an inserted edge created a
    marking), [Cert_rewrite] on the [pmark] field, and [Frontier_expand]
    per queue push. The graph is owned by the session afterwards. *)

val create :
  ?grouped:bool ->
  ?obs:Ig_obs.Obs.t ->
  ?trace:Ig_obs.Tracer.t ->
  Ig_graph.Digraph.t ->
  Ig_nfa.Regex.t ->
  t
(** Compile the regex against the graph's interner, then {!init}. *)

val graph : t -> Ig_graph.Digraph.t

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the session was created with. *)

val trace : t -> Ig_obs.Tracer.t
(** The event tracer the session was created with. *)

val add_node : t -> string -> node
(** Add a fresh node; it becomes a new source if its label can start a
    path in [L(Q)]. A pair it adds is reported by the next
    {!apply_batch}. *)

val apply_batch : t -> Ig_graph.Digraph.update list -> delta
(** Apply the batch's net effect and return ΔO since the previous call. *)

val matches : t -> (node * node) list
(** Current [Q(G)]. *)

val n_matches : t -> int

val is_match : t -> node -> node -> bool

val stats : t -> stats
val reset_stats : t -> unit

val check_invariants : t -> unit
(** Test hook: every source's markings equal a fresh product-graph BFS, and
    the match set equals the batch answer. @raise Failure on violation. *)

val distance : t -> node -> node -> int option
(** Length of a shortest matching path witnessing the pair [(u, v)] — the
    [dist] of [v]'s best accepting marking for source [u]. [None] if the
    pair is not a match. A path of length [d] has [d+1] nodes; the (u,u)
    self-match has distance 0. *)

val witness_path : t -> node -> node -> node list option
(** A concrete shortest path [u … v] whose label word is in [L(Q)],
    reconstructed by walking the markings backwards through the product
    graph (the paper's [mpre] chains, derived on demand). *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): the per-source pmark distances (keys
    decoded to [(node, state)]), accepting-entry counts and match total as
    named canonical-text sections (hash-seed independent), for durable
    certificate snapshots. *)
