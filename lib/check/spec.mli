(** Query specs: one query of one of the paper's five classes.

    The single place that knows the per-class wiring outside the engines:
    how a query is written as positional command-line arguments (and in a
    journal header), which engine maintains it incrementally behind an
    {!Oracle.t}, and which batch algorithm answers it from scratch. Every CLI
    subcommand, fuzz scenario and journal recovery builds its engine
    through {!of_args} and {!make}. *)

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

val make :
  ?obs:Ig_obs.Obs.t ->
  ?trace:Ig_obs.Tracer.t ->
  Ig_graph.Digraph.t ->
  t ->
  Oracle.t
(** Build the class's incremental engine over a copy of the graph (the
    caller's graph is left untouched), reporting to [obs] and [trace]
    (default: a fresh live registry and a fresh live tracer), and wrap it
    as an oracle against the class's batch algorithm. *)

val kws : Ig_kws.Inc_kws.t -> Oracle.t
(** The KWS oracle over an already-built engine, {e without} copying its
    graph — the hook mutation tests use to corrupt a certificate entry
    before handing the engine over. *)

val scc : Ig_scc.Inc_scc.t -> Oracle.t
(** The SCC oracle over an already-built engine, without copying its
    graph — the hook tests use to fuzz the IncSCCn and DynSCC
    configurations ({!Ig_scc.Inc_scc.config}). *)

val run_batch : Ig_graph.Digraph.t -> t -> string
(** Answer the query once with the class's batch algorithm and describe
    the answer in one line, e.g. ["KWS: 300 match roots"]. *)
