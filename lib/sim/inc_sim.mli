(** Incremental graph simulation.

    Maintains the greatest simulation relation R under edge updates, in the
    spirit of the semi-bounded algorithms of [17] that the paper's related
    work discusses. A batch moves the graph once, by its net effect
    ({!Ig_graph.Digraph.apply_net}), and is then handled in one pass
    against R as it stood at batch start:

    - {b support}: per-(pattern-edge, node) counters gain one unit for each
      inserted edge between two pairs of R, then lose one for each deleted
      one. Insertions go first, so a counter that reaches 0 stays at 0;
    - {b deletions}: one decremental cascade from the pairs left
      unsupported, the same worklist ({!Sim.cascade}) that {!Sim.prune}
      runs, touching only pairs whose support actually collapses. A pair
      whose lost support an insertion of the same batch restores never
      leaves R;
    - {b insertions} can only grow R. One label-guided product closure
      collects the pairs that could join R: it is seeded with [(x, a)] for
      each inserted [(a, b)] and pattern edge [(x, y)] whose labels fit,
      [a ∉ R(x)], and grows backward over pattern edges and graph
      predecessors carrying the right label, never through R. A
      support-count fixpoint over these
      candidates alone, with R held fixed as support, keeps the pairs that
      join R. R is neither copied nor re-pruned, so a batch whose inserted
      edges no pattern edge's labels fit costs O(|ΔG|·|Q|). (Simulation has
      no locality bound: the closure may still be large, which is the
      paper's point in Section 4.1.) *)

type node = Ig_graph.Digraph.node

type delta = {
  added : (int * node) list;    (** (pattern node, graph node) pairs *)
  removed : (int * node) list;
}

type t

val init :
  ?obs:Ig_obs.Obs.t ->
  Ig_graph.Digraph.t ->
  Ig_iso.Pattern.t ->
  t
(** Runs the batch fixpoint once and keeps the support counters its
    worklist computed; the session owns the graph. [obs]
    (default {!Ig_obs.Obs.noop}) receives exact cost counters:
    - [aff]: relation pairs gained or lost (the measured |AFF|);
    - [cert_rewrites]: the same count, as relation rewrites;
    - [nodes_visited]: pairs popped by the deletion cascade, plus pairs
      entered into the insertion closure;
    - [edges_relaxed]: adjacency entries read — by the cascade's support
      updates, the closure's backward steps, the fixpoint's support counts
      and decrements, and the support bumps of the pairs that join R;
    - [queue_pushes]: pairs queued for removal, by a deletion's support
      update, by the cascade or by the candidate fixpoint;
    - [changed]: |ΔG| (net) + |ΔO|, counted by the graph and by
      {!Ig_graph.Delta_set}.

    Each {!apply_batch} call also records one sample into the
    [apply_latency_s] histogram (monotonic seconds) and the
    [gc_minor_words]/[gc_major_words]/[gc_promoted_words] histograms
    (words allocated, per {!Ig_obs.Obs.with_apply}). A sink created with
    [~events] also records structured events:
    [Aff_enter] tagged [Sim_support_zero] (a pair's support counter hit
    zero in the cascade) or [Sim_revalidated] (a pair joined the greatest
    simulation, in (pattern node, graph node) order per batch),
    [Cert_rewrite] on the per-pattern-node [sim(u)] membership field, and
    [Frontier_expand] per removal push (support update or cascade). *)

val graph : t -> Ig_graph.Digraph.t

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the session was created with. *)

val apply_batch : t -> Ig_graph.Digraph.update list -> delta
(** Apply the batch's net effect and return ΔO. The graph ends as
    {!Ig_graph.Digraph.apply_batch} would leave it, whatever the order of
    updates to the same edge. *)

val relation : t -> Sim.relation
(** The current greatest simulation (do not mutate). *)

val mem : t -> int -> node -> bool
val n_pairs : t -> int

val check_invariants : t -> unit
(** Test hook: relation equals a fresh batch run; counters are exact and
    held for the pairs of R only. @raise Failure on violation. *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): the simulation relation,
    per-pattern-edge support counters and pair total as named canonical-text
    sections (hash-seed independent), for durable certificate snapshots. *)
