(** A journaled session directory: write-ahead journal + snapshots.

    Layout: [DIR/journal.igj] (the append-only {!Journal}) next to
    [DIR/snapshot-<seq>.json] files ({!Snapshot}); [snapshot-0] is written
    at {!init} and holds the base state, so recovery always has a floor.

    The store mediates every state change with write-ahead discipline:
    a requested update batch is reduced to its net effect on the live
    graph ({!Journal.effective_ops}), journaled (with before/after
    digests) and flushed, and only then applied to the attached engine;
    the post-apply graph digest is verified against the journaled one. Undo appends a {e compensating}
    batch — the inverses of the last [k] batches' ops in reverse order —
    so the journal stays append-only and undo-of-undo is redo.

    Reattaching after a crash is a two-phase protocol, because only the
    caller knows how to build its engine:

    + {!plan} — read-only: pick the newest intact snapshot at or below
      the target sequence, list the journal batches beyond it, report any
      torn tail;
    + the caller rebuilds its engine over [plan.snapshot]'s graph;
    + {!attach} — repair the torn tail in place, replay the planned
      batches through the engine with per-batch digest verification, and
      open the journal for appending.

    [~as_of] plans recovery to a historical sequence number (time travel);
    such a store attaches read-only, since appending after a rewound
    replay would fork the committed history. *)

type client = {
  apply : Record.op list -> unit;
      (** apply effective ops to the engine (and its graph) *)
  graph : unit -> Ig_graph.Digraph.t;  (** the engine's live graph *)
  answer_digest : unit -> string;
      (** hex digest of the canonical current answer; [""] when the
          caller has none *)
  certs : unit -> (string * string) list;
      (** the engine's certificate dump ([cert_snapshot]) *)
}

val graph_client : Ig_graph.Digraph.t -> client
(** An engine-free client over a bare graph: ops apply via
    {!Journal.apply_op} (this is what graph-only replay and the
    journal-throughput benchmark use). *)

type t

type plan = {
  header : Record.header;
  snapshot : Snapshot.t;  (** recovery starting point *)
  replay : Record.batch list;  (** batches to replay, seq order *)
  dropped : int;  (** torn-tail bytes that will be discarded *)
  tip : int;  (** last committed seq in the journal *)
  cut : int;  (** target seq after replay (= [tip] unless [~as_of]) *)
}

val journal_path : dir:string -> string

val init :
  ?obs:Ig_obs.Obs.t -> dir:string -> header:Record.header ->
  client:client -> unit -> t
(** Create [dir] (and parents) if needed, write [snapshot-0] from the
    client's current state and a fresh journal. The client must be at its
    base state. *)

val plan : ?as_of:int -> ?from_scratch:bool -> dir:string -> unit ->
  (plan, string) result
(** [from_scratch] forces the [snapshot-0] floor even when newer
    snapshots exist (full-replay recovery). Corrupt snapshots are skipped
    in favor of older ones. *)

val attach :
  ?obs:Ig_obs.Obs.t -> dir:string -> plan:plan -> client:client ->
  unit -> (t, string) result
(** The client's engine must be at [plan.snapshot]'s state, which is
    checked with a full digest. Each replayed batch's [pre] must equal the
    digest the graph was last checked to have (the snapshot's, then the
    previous batch's [post]); after its apply the graph is digested again
    and must equal its [post]. *)

val do_batch : t -> Ig_graph.Digraph.update list -> Record.batch option
(** Normalize, journal, apply, verify. [None] when the batch changes
    nothing, its updates cancelling included (nothing journaled).
    @raise Invalid_argument if an update names a node the graph lacks,
    before anything is journaled.
    @raise Failure on digest divergence between the journal and the
    engine, or on a read-only store. *)

val undo : t -> k:int -> (Record.batch, string) result
(** Roll back the last [k] batches with a compensating batch. The
    post-undo graph digest must equal, byte for byte, the journaled [pre]
    of the oldest undone batch. *)

val snapshot : t -> string
(** Write [snapshot-<tip>] from the client's current state; returns the
    path. @raise Failure on a read-only store. *)

val append_unapplied_for_crash_testing :
  t -> Ig_graph.Digraph.update list -> unit
(** Journal a batch {e without} applying it — simulates a crash between
    the write-ahead append and the engine apply. The store must be
    discarded afterwards; recovery replays the journaled batch. *)

val tip : t -> int
val dir : t -> string
val header : t -> Record.header
val batches : t -> Record.batch list
val digest : t -> string
(** Current graph digest of the attached client. *)

val writable : t -> bool
val close : t -> unit
