(** Incremental graph simulation.

    Maintains the greatest simulation relation under edge updates, in the
    spirit of the semi-bounded algorithms of [17] that the paper's related
    work discusses:

    - {b deletions} propagate lost support through per-(pattern-edge, node)
      counters — the classic decremental cascade, touching only pairs whose
      support actually collapses;
    - {b insertions} can only grow the greatest simulation, and a pair can
      flip only if its support chain reaches the new edge, so the
      revalidation candidates are confined to label-compatible pairs whose
      graph node reaches the inserted edge's tail; the fixpoint reruns on
      [R ∪ candidates] only (still the "auxiliary data may be polynomial in
      |G|" regime of semi-boundedness — simulation has no locality, which
      is exactly the paper's point in Section 4.1). *)

type node = Ig_graph.Digraph.node

type delta = {
  added : (int * node) list;    (** (pattern node, graph node) pairs *)
  removed : (int * node) list;
}

type t

val init :
  ?obs:Ig_obs.Obs.t ->
  ?trace:Ig_obs.Tracer.t ->
  Ig_graph.Digraph.t ->
  Ig_iso.Pattern.t ->
  t
(** Runs the batch fixpoint once; the session owns the graph. [obs]
    (default {!Ig_obs.Obs.noop}) receives cost counters: [aff] (relation
    pairs gained or lost — the measured |AFF|), [cert_rewrites],
    [nodes_visited] (cascade pops + revalidation closure), [edges_relaxed]
    (support rescans), [queue_pushes], and [changed] = |ΔG| + |ΔO|.
    Each outermost {!apply_batch}/{!insert_edge}/{!delete_edge} call also
    records one sample into the [apply_latency_s] histogram (monotonic
    seconds) and the [gc_minor_words]/[gc_major_words]/
    [gc_promoted_words] histograms (words allocated, per
    {!Ig_obs.Obs.with_apply}). [trace] (default {!Ig_obs.Tracer.noop})
    receives structured events:
    [Aff_enter] tagged [Sim_support_zero] (a pair's support counter hit
    zero in the cascade) or [Sim_revalidated] (a pair re-entered the
    greatest simulation), [Cert_rewrite] on the per-pattern-node [sim(u)]
    membership field, and [Frontier_expand] per cascade push. *)

val graph : t -> Ig_graph.Digraph.t
val pattern : t -> Ig_iso.Pattern.t

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the session was created with. *)

val trace : t -> Ig_obs.Tracer.t
(** The event tracer the session was created with. *)

val insert_edge : t -> node -> node -> unit
val delete_edge : t -> node -> node -> unit
val apply_batch : t -> Ig_graph.Digraph.update list -> delta
val flush_delta : t -> delta

val relation : t -> Sim.relation
(** The current greatest simulation (do not mutate). *)

val mem : t -> int -> node -> bool
val n_pairs : t -> int

val check_invariants : t -> unit
(** Test hook: relation equals a fresh batch run; counters are consistent.
    @raise Failure on violation. *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): the simulation relation,
    per-pattern-edge support counters and pair total as named canonical-text
    sections (hash-seed independent), for durable certificate snapshots. *)
