(** Differential-testing oracles (the correctness backbone of the library).

    The paper's guarantees are {e equivalence} claims: after any sequence of
    edge insertions and deletions, an incremental engine must report exactly
    the answer its batch counterpart computes from scratch on the updated
    graph. An oracle {!t} packages one live engine together with that batch
    recomputation behind a uniform face, so a single driver ({!Harness}) can
    cross-check all five query classes under random update streams.
    {!Spec.make} builds one per query class.

    Answers are compared through a canonical string form: the answer
    closures sort and print their answer sets, so equality is plain string
    equality and a mismatch is immediately printable in a failure report. *)

type t = {
  name : string;  (** Short identifier used in reports ("kws", "scc", …). *)
  series : string;
      (** The incremental engine's series name in reports and traces
          ("IncKWS", "IncSCC", …). *)
  graph : Ig_graph.Digraph.t;
      (** The live graph the engine maintains (updated by
          [apply_batch]). The oracle owns it — callers keep their own
          pristine copy. *)
  obs : Ig_obs.Obs.t;
      (** The engine's metrics sink, validated by {!check_metrics}. When
          it records events, failure reports attach the event log of the
          failing step ({!Harness.failure.trace}). *)
  apply_batch : Ig_graph.Digraph.update list -> int * int;
      (** Apply a batch through the engine's one entry point (a unit
          update is a singleton batch). Returns ΔO's sizes: the numbers of
          answer items added and removed. Nothing is formatted, so this is
          the step the benchmark times. *)
  delta_line : int * int -> string;
      (** The one-line summary of [apply_batch]'s (added, removed), such as
          ["roots +1/-0"], or SCC's removed-first ["components -54/+3"]. *)
  describe : unit -> string;
      (** The size of the current answer in one line, e.g. ["300 roots"]. *)
  answer : unit -> string;  (** The engine's current answer, canonicalized. *)
  recompute : unit -> string;
      (** The batch algorithm's answer on the current graph, canonicalized.
          Must equal [answer ()] whenever the engine is correct. *)
  check_invariants : unit -> unit;
      (** The engine's own auxiliary-structure validation (certificates:
          kdist lists, pmark entries, num/lowlink + ranks, counters).
          @raise Failure on violation. *)
  cert_snapshot : unit -> (string * string) list;
      (** The engine's certificate dump (named canonical-text sections),
          feeding the durable journal's certificate snapshots. *)
}

exception Check_failed of string
(** Raised by {!check} and {!check_metrics} with a human-readable
    explanation. *)

val check : t -> unit
(** The full per-step validation: [check_invariants], then compare
    [answer] against [recompute]. @raise Check_failed on any violation. *)

val check_metrics : prev:(string * int) list -> t -> (string * int) list
(** Validate the metrics invariants after a step: counters never decrease
    (relative to the [prev] snapshot) and every latency/GC histogram the
    engine recorded satisfies {!Ig_obs.Histogram.check_invariants}
    (bucket totals equal the sample count, min ≤ max, sum within
    [count·min, count·max]).
    Returns the current counter snapshot, to be threaded as [prev] into
    the next call. @raise Check_failed on violation. *)
