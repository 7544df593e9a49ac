(** {!Oracle.ORACLE} adapters for the five query classes.

    Each adapter pairs an incremental engine with its batch counterpart:

    - KWS: {!Ig_kws.Inc_kws} vs the kdist BFS of {!Ig_kws.Batch};
    - RPQ: {!Ig_rpq.Inc_rpq} vs the NFA-product BFS of {!Ig_rpq.Batch};
    - SCC: {!Ig_scc.Inc_scc} vs a fresh {!Ig_scc.Tarjan} run;
    - Sim: {!Ig_sim.Inc_sim} vs the {!Ig_sim.Sim} fixpoint;
    - ISO: {!Ig_iso.Inc_iso} vs a fresh {!Ig_iso.Vf2} enumeration.

    {!Spec.make} picks the adapter for a query spec and packs an instance
    over a copy of the base graph. *)

module Kws :
  Oracle.ORACLE with type t = Ig_kws.Inc_kws.t and type query = Ig_kws.Batch.query

module Rpq : Oracle.ORACLE with type query = Ig_nfa.Regex.t

module Scc :
  Oracle.ORACLE with type t = Ig_scc.Inc_scc.t and type query = Ig_scc.Inc_scc.config

module Sim :
  Oracle.ORACLE with type t = Ig_sim.Inc_sim.t and type query = Ig_iso.Pattern.t

module Iso :
  Oracle.ORACLE with type t = Ig_iso.Inc_iso.t and type query = Ig_iso.Pattern.t

val of_kws : Ig_kws.Inc_kws.t -> Oracle.packed
(** Pack an already-built KWS engine {e without} copying — the hook tests use
    this to corrupt a certificate entry before handing the engine over. *)

(** {1 Canonical forms}

    Exposed so hand-rolled test oracles (e.g. deliberately buggy engines in
    mutation tests) print answers the same way the real adapters do. *)

val canon_nodes : int list -> string
val canon_pairs : (int * int) list -> string
val canon_comps : int list list -> string

val canon_mappings : Ig_iso.Pattern.t -> Ig_iso.Vf2.mapping list -> string
(** ISO's canonical answer form (sorted match subgraphs) — exposed so the
    CLI's journal replay can digest ISO answers identically. *)
