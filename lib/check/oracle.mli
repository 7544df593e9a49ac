(** Differential-testing oracles (the correctness backbone of the library).

    The paper's guarantees are {e equivalence} claims: after any sequence of
    edge insertions and deletions, an incremental engine must report exactly
    the answer its batch counterpart computes from scratch on the updated
    graph. An {!ORACLE} packages one engine together with that batch
    recomputation behind a uniform face, so a single driver ({!Harness}) can
    cross-check all five query classes under random update streams.

    Answers are compared through a canonical string form: adapters sort and
    print their answer sets, so equality is plain string equality and a
    mismatch is immediately printable in a failure report. *)

module type ORACLE = sig
  type t
  type query

  val name : string
  (** Short identifier used in reports ("kws", "scc", …). *)

  val series : string
  (** The incremental engine's series name in reports and traces
      ("IncKWS", "IncSCC", …). *)

  val init :
    obs:Ig_obs.Obs.t -> trace:Ig_obs.Tracer.t -> Ig_graph.Digraph.t -> query -> t
  (** Build the engine by running the batch algorithm once, reporting to
      [obs] and [trace]. The oracle owns the given graph afterwards —
      callers keep their own pristine copy. *)

  val graph : t -> Ig_graph.Digraph.t
  (** The live graph the engine maintains (updated by {!apply}). *)

  val apply : t -> Ig_graph.Digraph.update -> unit
  (** Apply one unit update incrementally (graph and auxiliary data). *)

  val apply_batch : t -> Ig_graph.Digraph.update list -> int * string
  (** Apply a whole batch through the engine's batch entry point. Returns
      |ΔO| (answer items added plus removed) and a one-line ΔO summary
      such as ["roots +1/-0"]. *)

  val describe : t -> string
  (** The size of the current answer in one line, e.g. ["300 roots"]. *)

  val answer : t -> string
  (** The engine's current answer, canonicalized. *)

  val recompute : t -> string
  (** The batch algorithm's answer on the current graph, canonicalized.
      Must equal {!answer} whenever the engine is correct. *)

  val check_invariants : t -> unit
  (** The engine's own auxiliary-structure validation (certificates:
      kdist lists, pmark entries, num/lowlink + ranks, counters).
      @raise Failure on violation. *)

  val obs : t -> Ig_obs.Obs.t
  (** The engine's metrics sink. Adapters create engines with a live
      registry so the harness can validate the metrics invariants
      alongside the answers. *)

  val trace : t -> Ig_obs.Tracer.t
  (** The engine's event tracer. Adapters create engines with a live
      tracer so failure reports can attach the event log of the failing
      step ({!Harness.failure.trace}). *)

  val cert_snapshot : t -> (string * string) list
  (** The engine's SNAPSHOTTABLE dump (named canonical-text sections),
      feeding the durable journal's certificate snapshots. *)
end

type packed = Packed : (module ORACLE with type t = 'a) * 'a -> packed
(** A first-class oracle instance, ready to drive. *)

val name : packed -> string
val series : packed -> string
val graph : packed -> Ig_graph.Digraph.t
val apply : packed -> Ig_graph.Digraph.update -> unit
val apply_batch : packed -> Ig_graph.Digraph.update list -> int * string
val describe : packed -> string
val answer : packed -> string
val recompute : packed -> string
val check_invariants : packed -> unit
val obs : packed -> Ig_obs.Obs.t
val trace : packed -> Ig_obs.Tracer.t
val cert_snapshot : packed -> (string * string) list

exception Check_failed of string
(** Raised by {!check} and {!check_metrics} with a human-readable
    explanation. *)

val check : packed -> unit
(** The full per-step validation: {!check_invariants}, then compare
    {!answer} against {!recompute}. @raise Check_failed on any violation. *)

val check_metrics : prev:(string * int) list -> packed -> (string * int) list
(** Validate the metrics invariants after a step: counters never decrease
    (relative to the [prev] snapshot), every span opened during the step
    was closed, and every latency/GC histogram the engine recorded
    satisfies {!Ig_obs.Histogram.check_invariants} (bucket totals equal
    the sample count, min ≤ max, sum within [count·min, count·max]).
    Returns the current counter snapshot, to be threaded as [prev] into
    the next call. @raise Check_failed on violation. *)
