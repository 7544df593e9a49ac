(** Certificate snapshots: checkpoints that bound recovery replay.

    A snapshot captures the full journaled state at a sequence number: the
    graph (canonical {!Ig_graph.Io} text), its digest, the canonical answer
    digest, and the engine's certificate store as serialized by its
    certificate dump ([cert_snapshot]) — the memoized
    intermediate results that make the computation incremental. Recovery
    starts from the newest intact snapshot at or below the target sequence
    and replays only the journal tail beyond it.

    Snapshots are JSON files ([snapshot-<seq>.json]) carrying an MD5
    checksum over their own canonical serialization; a snapshot that fails
    its checksum is skipped and recovery falls back to the next older one
    (ultimately [snapshot-0], written at init). Certificate sections are
    evidence for inspection and explainability — recovery correctness is
    carried by the graph/answer digests, since lazily maintained
    certificate stores (e.g. IncSCC's) are history-dependent. *)

type t = {
  seq : int;
  graph_text : string;
      (** canonical {!Ig_graph.Io.to_string} text, byte for byte what
          {!Journal.graph_digest} hashes; built in one buffered pass over
          the graph *)
  graph_digest : string;
  answer_digest : string;  (** hex MD5 of the canonical answer; "" if none *)
  certs : (string * string) list;  (** named engine certificate sections *)
}

val tool_name : string
(** ["incgraph-journal-snapshot"] — the dispatch key for validators. *)

val of_state :
  seq:int -> graph:Ig_graph.Digraph.t -> answer_digest:string ->
  certs:(string * string) list -> t

val graph : t -> Ig_graph.Digraph.t
(** Rebuild the graph from the stored text. *)

val to_json : t -> Ig_obs.Json.t
(** Includes the checksum field. *)

val validate : Ig_obs.Json.t -> (t, string) result
(** Structural + checksum validation (used by bench/validate.exe). *)

val path : dir:string -> seq:int -> string

val save : dir:string -> t -> string
(** Write [snapshot-<seq>.json]; returns the path. *)

val load : path:string -> (t, string) result

val list_seqs : dir:string -> int list
(** Sequence numbers of the snapshot files present, ascending. *)
