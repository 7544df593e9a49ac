(** IncISO: localizable incremental subgraph isomorphism (paper Section 4
    and Appendix).

    - A deleted edge can only destroy matches whose image contains it: an
      edge→match index makes this a lookup.
    - An inserted edge [(v, w)] can only create matches lying entirely
      within the [d_Q]-neighborhood of [v] and [w] (every match is connected
      and touches the new edge, and [d_Q] is the pattern diameter). The
      batch algorithm (VF2) therefore reruns {e only} on
      [G_{d_Q}(ΔG⁺)], and only matches using at least one inserted edge are
      candidates for addition.

    Batch updates process all deletions, then one VF2 pass over the union
    neighborhood of all insertions (IncISO); the [grouped:false] variant
    reruns per unit insertion (IncISOn, the paper's ablation). Costs are a
    function of [|Q|] and the neighborhood size only, never |G| — the
    localizability claim of Theorem 3. *)

type node = Ig_graph.Digraph.node

type delta = {
  added : Vf2.mapping list;
  removed : Vf2.mapping list;
}

type stats = {
  mutable ball_nodes : int;  (** nodes in explored d_Q-neighborhoods *)
  mutable rematches : int;   (** VF2 invocations *)
}

type t

val init :
  ?grouped:bool ->
  ?obs:Ig_obs.Obs.t ->
  ?trace:Ig_obs.Tracer.t ->
  Ig_graph.Digraph.t ->
  Pattern.t ->
  t
(** Enumerate [Q(G)] once with VF2 and index it. The session owns the graph
    afterwards. [obs] (default {!Ig_obs.Obs.noop}) receives cost counters:
    [aff] (matches created or destroyed — the measured |AFF|),
    [cert_rewrites], [nodes_visited] (d_Q-neighborhood sizes), [rematches]
    (VF2 invocations), and [changed] = |ΔG| + |ΔO|. Each outermost
    {!apply_batch}/{!insert_edge}/{!delete_edge} call also records one
    sample into the [apply_latency_s] histogram (monotonic seconds) and
    the [gc_minor_words]/[gc_major_words]/[gc_promoted_words] histograms
    (words allocated, per {!Ig_obs.Obs.with_apply}). [trace] (default
    {!Ig_obs.Tracer.noop}) receives structured events: [Aff_enter] tagged
    [Iso_match_broken] (a match ran through a deleted edge) or
    [Iso_ball_rematch] (a fresh match from the localized VF2 run),
    [Cert_rewrite] on the [match] field (the mapping's image), and
    [Frontier_expand] per inserted-edge endpoint seeding the d_Q-ball.
    Events from the initial batch enumeration are discarded. *)

val graph : t -> Ig_graph.Digraph.t
val pattern : t -> Pattern.t

val obs : t -> Ig_obs.Obs.t
(** The metrics sink the session was created with. *)

val trace : t -> Ig_obs.Tracer.t
(** The event tracer the session was created with. *)

val add_node : t -> string -> node
(** A fresh node (matches only single-node patterns until edges arrive). *)

val insert_edge : t -> node -> node -> unit
val delete_edge : t -> node -> node -> unit
val apply_batch : t -> Ig_graph.Digraph.update list -> delta
val flush_delta : t -> delta

val matches : t -> Vf2.mapping list
val n_matches : t -> int

val stats : t -> stats
val reset_stats : t -> unit

val check_invariants : t -> unit
(** Test hook: the match set equals a fresh VF2 enumeration and the edge
    index is consistent. @raise Failure on violation. *)

val cert_snapshot : t -> (string * string) list
(** Certificate dump ([cert_snapshot]): every current match (canonical image
    plus pattern-indexed mapping) in {!Vf2.compare_canon} order, as named
    canonical-text sections (hash-seed independent), for durable certificate
    snapshots. *)
