(** Certificate snapshots: checkpoints that bound recovery replay.

    A snapshot captures the full journaled state at a sequence number: the
    graph (canonical {!Ig_graph.Io} text), its {!Journal.graph_digest},
    the canonical answer digest, and the engine's certificate store as serialized by its
    certificate dump ([cert_snapshot]) — the memoized
    intermediate results that make the computation incremental. Recovery
    starts from the newest intact snapshot at or below the target sequence
    and replays only the journal tail beyond it.

    Snapshots are JSON files ([snapshot-<seq>.json], schema version 2)
    carrying an MD5 checksum over their own canonical serialization; a
    snapshot that fails its checksum, or whose graph text does not parse
    to a graph with the recorded digest, is skipped and recovery falls back to the next older one
    (ultimately [snapshot-0], written at init). Certificate sections are
    evidence for inspection and explainability — recovery correctness is
    carried by the graph/answer digests, since lazily maintained
    certificate stores (e.g. IncSCC's) are history-dependent. *)

type t
(** A snapshot: its sequence number, the graph as canonical
    {!Ig_graph.Io.to_string} text (built in one buffered pass) with its
    {!Journal.graph_digest}, the hex MD5 of the canonical answer ([""] if
    none), the certificate sections, and the graph itself, kept private
    so that {!graph} hands out copies. *)

val tool_name : string
(** ["incgraph-journal-snapshot"] — the dispatch key for validators. *)

val of_state :
  seq:int -> graph:Ig_graph.Digraph.t -> answer_digest:string ->
  certs:(string * string) list -> t
(** Writes [graph]'s text and digest and keeps a {!Ig_graph.Digraph.copy}
    of it. @raise Invalid_argument on a label the text cannot carry. *)

val seq : t -> int

val graph_digest : t -> string
(** {!Journal.graph_digest} of the snapshot's graph. *)

val certs : t -> (string * string) list
(** Named engine certificate sections. *)

val graph : t -> Ig_graph.Digraph.t
(** A fresh graph equal to the snapshot's: a {!Ig_graph.Digraph.copy}
    (O(|V|)) of the graph {!of_state} was given or {!validate} parsed. *)

val to_json : t -> Ig_obs.Json.t
(** Includes the checksum field. *)

val validate : Ig_obs.Json.t -> (t, string) result
(** Structural + checksum validation (used by bench/validate.exe). The
    graph text is parsed once, and its parse must have the recorded
    [graph_digest]. A snapshot of another [schema_version] is rejected
    with ["schema_version V, expected 2"]. *)

val path : dir:string -> seq:int -> string

val save : dir:string -> t -> string
(** Write [snapshot-<seq>.json]; returns the path. *)

val load : path:string -> (t, string) result

val list_seqs : dir:string -> int list
(** Sequence numbers of the snapshot files present, ascending. *)
