(** Query specs: one query of one of the paper's five classes.

    The single place that knows the per-class wiring outside the engines:
    how a query is written as positional command-line arguments (and in a
    journal header), which engine maintains it incrementally behind an
    {!Oracle.t}, and which batch algorithm answers it from scratch. Every
    CLI subcommand, fuzz scenario and journal recovery builds its engine
    through {!of_args} and {!make}, and the Fig. 8 benchmark builds every
    IncX, IncXn and batch column through {!make} and {!batch}, so the
    engine that is fuzzed is the engine that is timed. *)

type t =
  | Kws of Ig_kws.Batch.query
  | Rpq of Ig_nfa.Regex.t
  | Scc
  | Iso of Ig_iso.Pattern.t
  | Sim of Ig_iso.Pattern.t

val of_args : cls:string -> bound:int -> args:string list -> (t, string) result
(** Parse a class name and its positional arguments: keywords for [kws]
    (with hop bound [bound]), one regex for [rpq], none for [scc], and for
    [iso]/[sim] the pattern's node labels followed by its edges as [u-v]
    (e.g. [l1 l2 l3 0-1 1-2]). [bound] is ignored by every class but
    [kws]. A negative [kws] bound, a malformed regex or a malformed
    pattern (no nodes, an endpoint out of range, a disconnected pattern)
    is an [Error], never an exception. *)

val to_args : t -> string * int * string list
(** The inverse of {!of_args}: [(class, bound, args)], with bound [0] for
    the classes that take none. [of_args] on the result rebuilds a query
    with the same answer on every graph (a regex may come back with a
    different grouping of the same language). *)

val header :
  string * int * string list -> Ig_graph.Digraph.t -> Ig_journal.Record.header
(** A journal header for the query written as [(class, bound, args)] over
    the given base graph. *)

val label : t -> string
(** The class as report rows name it: ["KWS"], ["RPQ"], ["SCC"], ["ISO"]
    or ["Sim"]. Its engine's series is ["Inc"] followed by it. *)

type answer = {
  canon : unit -> string;  (** The answer in {!Adapters}' canonical form. *)
  summary : unit -> string;
      (** The answer described in one line, e.g. ["KWS: 300 match roots"]. *)
}
(** A batch algorithm's answer, formatted only when asked. *)

type batch = {
  series : string;
      (** The algorithm's series name: BLINKS, RPQNFA, Tarjan, VF2 or
          SimFix. *)
  run : Ig_graph.Digraph.t -> answer;
      (** Answer the query from scratch on a graph. This is the work the
          benchmark's batch column times: listing Sim's pairs is left to
          the answer. *)
}

val batch : Ig_graph.Digraph.t -> t -> batch
(** The class's batch algorithm, readied against the graph's label
    interner (RPQ compiles its NFA here, outside [run]), so [run] is meant
    for that graph and its copies. *)

val make :
  ?obs:Ig_obs.Obs.t ->
  Ig_graph.Digraph.t ->
  t ->
  Oracle.t
(** Build the class's incremental engine over a copy of the graph (the
    caller's graph is left untouched), reporting to [obs] (default: a
    fresh live registry recording {!Ig_obs.Obs.default_events} events),
    and wrap it as an oracle whose [recompute] runs {!batch}. *)

val kws : Ig_kws.Inc_kws.t -> Oracle.t
(** The KWS oracle over an already-built engine, {e without} copying its
    graph — the hook mutation tests use to corrupt a certificate entry
    before handing the engine over. *)

val scc : Ig_scc.Inc_scc.t -> Oracle.t
(** The SCC oracle over an already-built engine, without copying its
    graph — the hook that the tests and the benchmark use for the DynSCC
    stand-in (an engine built with [~dyn:true], see
    {!Ig_scc.Inc_scc.init}). *)

val run_batch : Ig_graph.Digraph.t -> t -> string
(** Answer the query once with {!batch} and return the answer's
    [summary]. *)
