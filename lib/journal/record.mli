(** Journal records: atomic graph ops and their on-disk framing.

    The durable unit of the journal is a {e record}: a length-prefixed,
    checksummed frame holding either the journal {!header} (written once,
    first) or one applied {!batch} of atomic ops. The frame layout is

    {v u32_be payload_length | payload | 16-byte MD5(payload) v}

    preceded, at file start, by the 8-byte magic {!magic}. A reader that
    hits a frame whose length runs past EOF, whose checksum disagrees, or
    whose payload fails to decode knows the tail is torn and can stop
    cleanly at the last good record — the crash-recovery contract of
    DESIGN.md §8.5.

    Ops follow the snapshot→delta→apply→evidence shape of provenance
    ledgers: upserts and tombstones over edges and nodes, where replaying
    an op a second time is a no-op ({e idempotent replay}). The journal
    only ever stores {e effective} ops (ops that changed the graph when
    first applied), which is what makes every recorded batch invertible:
    the inverse of an effective upsert is a tombstone of the same edge and
    vice versa. Node upserts are monotone (the paper's update model is
    edge-only; nodes are never removed), so they have no inverse — undo
    ranges containing them are rejected upstream. *)

type op =
  | Upsert_edge of int * int  (** add edge [(u, v)]; inverse: tombstone *)
  | Tombstone_edge of int * int  (** remove edge [(u, v)]; inverse: upsert *)
  | Upsert_node of int * string
      (** add node [id] with a label; effective only when [id] is fresh.
          Monotone — not invertible. *)
  | Tombstone_node of int
      (** soft-delete: drop the node's incident edges (the node id itself
          stays allocated, matching the edge-only update model). Always
          expanded into its effective [Tombstone_edge]s before journaling. *)

type kind =
  | Do  (** a forward batch *)
  | Undo of int
      (** a compensating batch rolling back the previous [k] batches;
          undo-of-undo is redo *)

type header = {
  version : int;  (** format version; currently {!format_version} *)
  cls : string;  (** query class ("kws", "rpq", …) or scenario name *)
  bound : int;  (** KWS hop bound; 0 when unused *)
  qargs : string list;  (** class-specific query arguments *)
  base_digest : string;  (** {!Journal.graph_digest} of the base graph *)
}

type batch = {
  seq : int;  (** 1-based, contiguous; assigned by the journal *)
  kind : kind;
  ops : op list;  (** effective ops, in application order *)
  pre : string;  (** graph digest before the batch *)
  post : string;  (** graph digest after the batch *)
}

type payload = Header of header | Batch of batch

val format_version : int
(** [2]. Version 1 journals recorded graph digests as the MD5 of the
    graph's text; {!Journal.scan} rejects them with a version error. *)

val magic : string
(** ["IGJRNL01"] — the 8-byte file magic. *)

val op_to_string : op -> string
(** Canonical one-line rendering (labels escaped), used in op ids and
    inspection output. *)

val op_id : seq:int -> index:int -> op -> string
(** Deterministic op identity: hex MD5 of [(seq, index, op_to_string op)].
    Derived, never stored — two journals that replay the same ops in the
    same positions agree on every op id. *)

val inverse_op : op -> op option
(** [None] exactly on node ops (monotone). *)

val encode_payload : payload -> string

type error = Truncated | Corrupt of string

val frame : string -> string
(** Wrap an encoded payload in the on-disk frame (length + checksum). *)

val read_record : string -> pos:int -> (payload * int, error) result
(** Decode one framed record at [pos]; returns the payload and the
    position one past the frame. [Truncated] when the buffer ends inside
    the frame, [Corrupt] on checksum or decode failure — both are torn
    tails to a scanner, never exceptions. *)
