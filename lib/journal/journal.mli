(** The append-only delta journal.

    One file per journaled session: the {!Record.magic} bytes, a
    {!Record.header} record, then {!Record.batch} records with contiguous
    sequence numbers. Appends are flushed before the in-memory state
    advances (write-ahead), so after a crash the journal is the truth and
    the engine is rebuilt from it.

    {2 Crash-recovery contract}

    {!scan} never raises on a damaged file tail: decoding stops at the
    first record that is truncated, checksum-corrupt, or out of sequence,
    and everything from that offset on is reported as a {!tail} to be
    dropped ({!repair} truncates it in place). A file without a readable
    magic + header is unusable and reported as [Error] — there is no state
    to recover. Recovery therefore either replays a full prefix of
    committed batches or cleanly drops the torn suffix; it never applies
    half a batch.

    {2 Digests}

    Graph state is identified by {!graph_digest}: a keyed multiset hash
    of the graph's structure, 32 hex characters. Each node contributes a
    term mixed from its id and its label's {e name} (not its interned
    symbol, so a re-parsed graph digests the same), and each edge a term
    mixed from its packed key [u lsl 31 lor v]; the terms are summed in
    two independent 63-bit lanes. The digest therefore depends on the
    labelled nodes and the edge set only, not on the overlay, on
    compaction or on the interning order. Batches record the digest
    before and after, so replay and undo verify the exact graph, not
    merely its size.

    A digest is one pass over the nodes and their successor rows, with
    no text. Because the terms are added, the [post] digest a commit
    writes ahead of its apply ({!graph_digests}) is the [pre] sums less
    the terms of the net deletions of present edges, plus those of the
    net insertions of absent edges: O(|ΔG|) beyond [pre]'s pass, with no
    copy of the graph. The store still re-checks [post] with a full
    {!graph_digest} once the engine has moved. Record checksums, op ids,
    answer digests and the snapshot checksum stay MD5 ({!digest_hex}). *)

type t
(** An open journal, positioned for appending. *)

type tail =
  | Clean
  | Torn of { offset : int; dropped : int; reason : string }
      (** [dropped] bytes starting at [offset] are not part of any
          committed record. *)

type scanned = {
  header : Record.header;
  batches : Record.batch list;  (** committed batches, in seq order *)
  tail : tail;
  valid_bytes : int;  (** prefix length covering magic + committed records *)
}

val graph_digest : Ig_graph.Digraph.t -> string

val graph_digests : Ig_graph.Digraph.t -> Record.op list -> string * string
(** [graph_digests g ops] is [(graph_digest g, post)], where [post] is
    {!graph_digest} of [g] with [ops] applied in order by {!apply_op} (as
    {!Ig_graph.Digraph.apply_net} applies them). [g] is not modified.
    @raise Invalid_argument on node ops (the store journals only edge
    ops) or ops on unknown nodes. *)

val digest_hex : string -> string
(** Hex MD5 of a string. *)

val scan : path:string -> (scanned, string) result
(** Read-only recovery scan; see the crash-recovery contract above. *)

val create : path:string -> Record.header -> t
(** Write magic + header to a fresh file (truncating any existing one).
    Every {!append} fsyncs the file, so committed records survive power
    loss, not just a process crash. *)

val open_append : path:string -> unit -> (t * scanned, string) result
(** Scan, truncate any torn tail in place, and open for appending after
    the last committed record. *)

val instrument : t -> Ig_obs.Obs.t -> unit
(** Attach a registry: every {!append} records [wal_append_latency_s]
    and [wal_fsync_latency_s] histograms and the [journal_bytes] gauge.
    Default is the noop sink. *)

val repair : path:string -> (int, string) result
(** Truncate a torn tail; returns the number of bytes dropped (0 when the
    file was already clean). *)

val chop : path:string -> int -> unit
(** Crash injection for tests and the [--chop] CLI flag: remove the last
    [n] bytes of the file, simulating a torn write. *)

val append : t -> kind:Record.kind -> ops:Record.op list -> pre:string ->
  post:string -> Record.batch
(** Frame and write the next batch (sequence number assigned here),
    flush it to the OS and fsync it before returning. *)

val tip : t -> int
(** Sequence number of the last committed batch; 0 when none. *)

val batches : t -> Record.batch list
(** All committed batches, in seq order (including any appended since
    opening). *)

val header : t -> Record.header
val close : t -> unit

(** {2 Op semantics} *)

val effective_ops :
  Ig_graph.Digraph.t -> Ig_graph.Digraph.update list -> Record.op list
(** The batch's net effect ({!Ig_graph.Digraph.net_effect}) on the live
    graph as atomic ops: a [Tombstone_edge] for each net deletion of a
    present edge, then an [Upsert_edge] for each net insertion of an
    absent edge, as {!Ig_graph.Digraph.apply_net} applies them. Each edge
    appears at most once; updates that cancel (insert then delete of an
    absent edge) drop out, so a batch that cancels out journals nothing.
    Only effective ops are journaled — that is what makes batches
    invertible and replay idempotent. The graph is not modified.
    @raise Invalid_argument if an update names a node [g] lacks. *)

val updates_of_ops : Record.op list -> Ig_graph.Digraph.update list
(** Edge ops as engine updates. @raise Invalid_argument on node ops,
    which cannot be routed through an engine's edge-update entry points. *)

val apply_op : Ig_graph.Digraph.t -> Record.op -> unit
(** Graph-level (engine-free) replay of one op; idempotent. Node upserts
    must arrive in id order ([Invalid_argument] on a gap); tombstoned
    nodes keep their id and lose their incident edges. *)

val invert : Record.op list -> (Record.op list, string) result
(** The compensating op list: inverses in reverse order. [Error] if any
    op is a monotone node op. *)

val plan_undo :
  Record.batch list -> k:int ->
  (Record.op list * string, string) result
(** [plan_undo batches ~k] is the compensating op list rolling back the
    last [k] batches of [batches] (seq order), together with the expected
    graph digest after the rollback (the [pre] of the oldest undone
    batch). [Error] when fewer than [k] batches exist or the range
    contains node upserts. *)
