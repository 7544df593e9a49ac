(** incgraph — incremental graph computations, doable and undoable.

    The public entry point of the library, reproducing Fan, Hu & Tian,
    {e Incremental Graph Computations: Doable and Undoable} (SIGMOD 2017).

    Five query classes are supported, each with a batch algorithm and an
    incremental engine; the first four carry the paper's performance
    guarantees:

    - {!Kws} — keyword search, {e localizable} (cost in the b-neighborhood
      of the updates);
    - {!Iso} — subgraph isomorphism, {e localizable} (d_Q-neighborhood);
    - {!Rpq} — regular path queries, {e bounded relative to} the NFA batch
      algorithm;
    - {!Scc} — strongly connected components, {e bounded relative to}
      Tarjan's algorithm;
    - {!Sim} — graph simulation, semi-bounded, an extension baseline.

    {!Theory} holds the machinery of the paper's impossibility results
    (SSRP, Δ-reductions, the Figure 9 gadget), and {!Workload} the
    generators driving the experimental reproduction.

    Every engine ([Core.<Class>.Inc]) has the same shape: [init] (RPQ:
    [create]) runs the batch algorithm once and owns the graph afterwards,
    [apply_batch] trades ΔG for ΔO, and an accessor reads the current
    answer. |CHANGED| = |ΔG| + |ΔO| is counted in two shared places, not
    per engine: the engine's graph counts each effective edge mutation
    ({!Digraph.instrument}), and the one signed ΔO set
    ({!Ig_graph.Delta_set}) counts what [apply_batch] returns. The substrate modules ({!Digraph}, {!Regex}, …) are re-exported
    so downstream users need only this library. *)

(** {1 Substrate} *)

(** Cost-accounting observability: the metrics registry every incremental
    engine reports into (counters for measured |AFF| and |CHANGED|, scoped
    spans), plus the JSON substrate and the schema-versioned BENCH
    report format built on it. Pass [Obs.create ()] as [?obs] at engine
    creation to enable measurement; the default sink is a no-op.

    The same sink explains what it counts: [Obs.create ~events:capacity ()]
    also keeps a bounded ring of the typed events defined in {!Obs.Tracer}
    (AFF entry with the rule of the paper's pseudocode that fired,
    certificate rewrites with before/after, frontier expansions, spans),
    read back with {!Obs.events}.
    {!Obs.Trace_export} renders snapshots as the human-readable
    explanation [incgraph explain] prints. *)
module Obs : sig
  include module type of struct
    include Ig_obs.Obs
  end

  module Histogram = Ig_obs.Histogram
  module Json = Ig_obs.Json
  module Report = Ig_obs.Report
  module Tracer = Ig_obs.Tracer
  module Trace_export = Ig_obs.Trace_export
  module Slo = Ig_obs.Slo
  module Flight = Ig_obs.Flight
end

module Digraph = Ig_graph.Digraph
module Interner = Ig_graph.Interner
module Traverse = Ig_graph.Traverse
module Io = Ig_graph.Io
module Pqueue = Ig_graph.Pqueue
module Rank = Ig_graph.Rank
module Regex = Ig_nfa.Regex
module Nfa = Ig_nfa.Nfa

(** {1 Query classes} *)

module Rpq : sig
  module Batch = Ig_rpq.Batch
  module Inc = Ig_rpq.Inc_rpq
  module Pgraph = Ig_rpq.Pgraph
end

module Scc : sig
  module Tarjan = Ig_scc.Tarjan
  module Inc = Ig_scc.Inc_scc
end

module Kws : sig
  module Batch = Ig_kws.Batch
  module Inc = Ig_kws.Inc_kws
end

module Iso : sig
  module Pattern = Ig_iso.Pattern
  module Vf2 = Ig_iso.Vf2
  module Inc = Ig_iso.Inc_iso
end

module Sim : sig
  module Batch = Ig_sim.Sim
  module Inc = Ig_sim.Inc_sim
end
(** Graph simulation — the semi-bounded query class of the paper's related
    work [17], included as an extension baseline. *)

(** {1 Theory and workloads} *)

module Theory : sig
  module Ssrp = Ig_theory.Ssrp
  module Reduction = Ig_theory.Reduction
  module Gadget = Ig_theory.Gadget
end

module Workload : sig
  module Generate = Ig_workload.Generate
  module Profiles = Ig_workload.Profiles
  module Updates = Ig_workload.Updates
  module Queries = Ig_workload.Queries
end

module Check : sig
  module Oracle = Ig_check.Oracle
  module Adapters = Ig_check.Adapters
  module Spec = Ig_check.Spec
  module Stream = Ig_check.Stream
  module Shrink = Ig_check.Shrink
  module Harness = Ig_check.Harness
  module Scenarios = Ig_check.Scenarios
  module Durable = Ig_check.Durable
end
(** Differential oracle & fuzzing subsystem: every incremental engine
    cross-checked against its batch counterpart under seeded random update
    streams, with ddmin shrinking of failures (see [incgraph fuzz]);
    {!Check.Durable} extends it with journaled do/undo/crash-recover
    interleavings. *)

(** Durability subsystem: a write-ahead journal of atomic graph ops with a
    checksummed, torn-tail-detecting on-disk format ({!Journal.Record},
    {!Journal.Log}), periodic certificate snapshots bounding recovery
    replay ({!Journal.Snapshot}), and the session-directory store tying
    them together with k-step undo and time travel ({!Journal.Store}). See
    [incgraph journal/replay/snapshot/undo] and DESIGN.md §8.5. *)
module Journal : sig
  module Record = Ig_journal.Record
  module Log = Ig_journal.Journal
  module Snapshot = Ig_journal.Snapshot
  module Store = Ig_journal.Store
end

module Lint = Ig_lint.Lint
(** Determinism & instrumentation linter: a parse-only static-analysis
    pass over the repo's own sources enforcing rules D1–D5 (no
    polymorphic compare in engines, sorted-or-annotated hash iteration,
    no ambient nondeterminism, instrumented update entry points,
    interfaces everywhere). See [incgraph lint] and DESIGN.md §8.4. *)
