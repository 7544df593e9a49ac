module Obs = struct
  include Ig_obs.Obs
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
