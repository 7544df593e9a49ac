module Obs = struct
  include Ig_obs.Obs
  module Histogram = Ig_obs.Histogram
  module Json = Ig_obs.Json
  module Report = Ig_obs.Report
  module Tracer = Ig_obs.Tracer
  module Trace_export = Ig_obs.Trace_export
  module Openmetrics = Ig_obs.Openmetrics
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

module Rpq = struct
  module Batch = Ig_rpq.Batch
  module Inc = Ig_rpq.Inc_rpq
  module Pgraph = Ig_rpq.Pgraph
end

module Scc = struct
  module Tarjan = Ig_scc.Tarjan
  module Inc = Ig_scc.Inc_scc
end

module Kws = struct
  module Batch = Ig_kws.Batch
  module Inc = Ig_kws.Inc_kws
end

module Iso = struct
  module Pattern = Ig_iso.Pattern
  module Vf2 = Ig_iso.Vf2
  module Inc = Ig_iso.Inc_iso
end

module Sim = struct
  module Batch = Ig_sim.Sim
  module Inc = Ig_sim.Inc_sim
end

module Theory = struct
  module Ssrp = Ig_theory.Ssrp
  module Reduction = Ig_theory.Reduction
  module Gadget = Ig_theory.Gadget
end

module Workload = struct
  module Generate = Ig_workload.Generate
  module Profiles = Ig_workload.Profiles
  module Updates = Ig_workload.Updates
  module Queries = Ig_workload.Queries
end

module Check = struct
  module Oracle = Ig_check.Oracle
  module Adapters = Ig_check.Adapters
  module Spec = Ig_check.Spec
  module Stream = Ig_check.Stream
  module Shrink = Ig_check.Shrink
  module Harness = Ig_check.Harness
  module Scenarios = Ig_check.Scenarios
  module Durable = Ig_check.Durable
end

module Journal = struct
  module Record = Ig_journal.Record
  module Log = Ig_journal.Journal
  module Snapshot = Ig_journal.Snapshot
  module Store = Ig_journal.Store
end

module Lint = Ig_lint.Lint

module type SNAPSHOTTABLE = sig
  type t

  val cert_snapshot : t -> (string * string) list
end

module type Session = sig
  type t
  type query
  type answer
  type delta

  val create : Digraph.t -> query -> t
  val update : t -> Digraph.update list -> delta
  val answer : t -> answer
  val graph : t -> Digraph.t
end

module Kws_session = struct
  type t = Ig_kws.Inc_kws.t
  type query = Ig_kws.Batch.query
  type answer = Digraph.node list
  type delta = Ig_kws.Inc_kws.delta

  let create g q = Ig_kws.Inc_kws.init g q
  let update = Ig_kws.Inc_kws.apply_batch
  let answer = Ig_kws.Inc_kws.match_roots
  let graph = Ig_kws.Inc_kws.graph
  let cert_snapshot = Ig_kws.Inc_kws.cert_snapshot
end

module Rpq_session = struct
  type t = Ig_rpq.Inc_rpq.t
  type query = Regex.t
  type answer = (Digraph.node * Digraph.node) list
  type delta = Ig_rpq.Inc_rpq.delta

  let create g q = Ig_rpq.Inc_rpq.create g q
  let update = Ig_rpq.Inc_rpq.apply_batch
  let answer = Ig_rpq.Inc_rpq.matches
  let graph = Ig_rpq.Inc_rpq.graph
  let cert_snapshot = Ig_rpq.Inc_rpq.cert_snapshot
end

module Scc_session = struct
  type t = Ig_scc.Inc_scc.t
  type query = unit
  type answer = Digraph.node list list
  type delta = Ig_scc.Inc_scc.delta

  let create g () = Ig_scc.Inc_scc.init g
  let update = Ig_scc.Inc_scc.apply_batch
  let answer = Ig_scc.Inc_scc.components
  let graph = Ig_scc.Inc_scc.graph
  let cert_snapshot = Ig_scc.Inc_scc.cert_snapshot
end

module Iso_session = struct
  type t = Ig_iso.Inc_iso.t
  type query = Ig_iso.Pattern.t
  type answer = Ig_iso.Vf2.mapping list
  type delta = Ig_iso.Inc_iso.delta

  let create g p = Ig_iso.Inc_iso.init g p
  let update = Ig_iso.Inc_iso.apply_batch
  let answer = Ig_iso.Inc_iso.matches
  let graph = Ig_iso.Inc_iso.graph
  let cert_snapshot = Ig_iso.Inc_iso.cert_snapshot
end

module Sim_session = struct
  type t = Ig_sim.Inc_sim.t
  type query = Ig_iso.Pattern.t
  type answer = (int * Digraph.node) list
  type delta = Ig_sim.Inc_sim.delta

  let create g p = Ig_sim.Inc_sim.init g p
  let update = Ig_sim.Inc_sim.apply_batch
  let answer t = Ig_sim.Sim.pairs (Ig_sim.Inc_sim.relation t)
  let graph = Ig_sim.Inc_sim.graph
  let cert_snapshot = Ig_sim.Inc_sim.cert_snapshot
end
