(** Mutable node-labeled directed graphs.

    This is the substrate shared by every query class in the library: a
    directed graph [G = (V, E, l)] in the sense of the paper (Section 2),
    where nodes carry a label drawn from a finite alphabet and updates are
    edge insertions and deletions.

    Nodes are dense integer identifiers allocated by {!add_node}; labels are
    interned strings (see {!Interner}). Both successor and predecessor
    adjacency are maintained, with O(1) expected edge insertion, deletion and
    membership. Nodes are never removed (the paper's update model is
    edge-only; fresh nodes may arrive together with inserted edges).

    Two backends implement this interface behind {!create}'s [?backend]
    selector; both present identical views through every accessor below
    (adjacency, degrees, labels, membership — the cross-backend battery in
    [test/test_backend.ml] asserts it byte for byte):

    - [`Hashtbl] (the default): per-node hash tables; O(1) expected
      updates; {!iter_succ_sorted} pays a fold-and-sort per call.
    - [`Csr]: flat compressed-sparse-row Bigarrays plus a small sorted
      delta overlay (see {!Csr}); sorted iteration is a merge, sorted by
      construction, and the adjacency lives off the OCaml heap — the
      choice for batch traversals over large graphs. *)

type node = int
type label = Interner.symbol

type update =
  | Insert of node * node  (** [insert e] — add edge [(u, v)]. *)
  | Delete of node * node  (** [delete e] — remove edge [(u, v)]. *)

type edge = node * node

type backend = [ `Hashtbl | `Csr ]

type t

(** {1 Construction} *)

val create : ?hint:int -> ?backend:backend -> unit -> t
(** An empty graph. [hint] pre-sizes internal tables for [hint] nodes (on
    both backends: label/adjacency/degree vectors never reallocate below
    [hint] nodes). [backend] defaults to [`Hashtbl]. *)

val backend : t -> backend

val backend_name : backend -> string
(** ["hashtbl"] / ["csr"] — the CLI's [--backend] vocabulary. *)

val backend_of_string : string -> backend option

val copy : t -> t
(** Deep copy (shares the interner). On the CSR backend this preserves
    pending overlay deltas and shares only the frozen base arrays; the
    copy is fully independent. *)

val convert : backend:backend -> t -> t
(** The same graph rebuilt on the given backend ([g] itself if it already
    is); shares nothing with the original. Node ids, label names and the
    {!nodes_with_label} order are preserved. *)

val compact : t -> unit
(** [`Csr]: fold the delta overlay into fresh base arrays (semantically a
    no-op; O(n + m)). [`Hashtbl]: nothing. *)

val overlay_size : t -> int
(** [`Csr]: live overlay entries pending compaction. [`Hashtbl]: 0. *)

val instrument : obs:Ig_obs.Obs.t -> trace:Ig_obs.Tracer.t -> t -> unit
(** Attach instrumentation sinks to the storage layer. On [`Csr] the
    overlay add/del sizes become gauges and compactions record latency
    and bytes-copied histograms plus a [Compaction] trace event; on
    [`Hashtbl] this is a no-op. {!copy} resets the copy's sinks to noop
    so scratch and oracle copies never pollute the engine's registry. *)

val add_node : t -> string -> node
(** Add a fresh node with the given label string. *)

val add_node_sym : t -> label -> node
(** Add a fresh node with an already-interned label. *)

val add_edge : t -> node -> node -> bool
(** [add_edge g u v] inserts edge [(u,v)]. Returns [false] if it was already
    present (the graph is a simple digraph; parallel edges collapse).
    Self-loops are allowed. *)

val remove_edge : t -> node -> node -> bool
(** Returns [false] if the edge was absent. *)

val apply : t -> update -> bool
(** Apply one unit update; [false] if it was a no-op. *)

val apply_batch : t -> update list -> unit

val net_effect : update list -> edge list * edge list
(** [(deletions, insertions)]: the last update of each edge the batch
    touches, each edge in the order of its first occurrence. No edge
    appears twice, so applying these in any order — deletions first, say —
    leaves a graph as applying the batch in order ({!apply_batch}) would,
    whatever the order of updates to one edge. Entries may be no-ops (an
    insertion of a present edge); the results of {!add_edge} and
    {!remove_edge} tell. A batch that touches each edge once yields its own
    updates. Reads no graph, so it costs one hash probe per update. *)

(** {1 Labels} *)

val interner : t -> Interner.t
val intern_label : t -> string -> label
val label : t -> node -> label
val label_name : t -> node -> string

(** {1 Inspection} *)

val n_nodes : t -> int
val n_edges : t -> int
val mem_node : t -> node -> bool
val mem_edge : t -> node -> node -> bool
val out_degree : t -> node -> int
val in_degree : t -> node -> int

val iter_nodes : (node -> unit) -> t -> unit

val iter_succ : (node -> unit) -> t -> node -> unit
(** Successors in unspecified order — hash-table order on [`Hashtbl]
    (varies with the process hash seed), ascending on [`Csr] (a CSR row
    has no cheaper unordered walk). Use only where the visit order
    provably cannot reach certificates, trace events or user-visible
    output; otherwise use {!iter_succ_sorted}. *)

val iter_pred : (node -> unit) -> t -> node -> unit
(** Predecessor counterpart of {!iter_succ}; same order caveat. *)

val iter_succ_sorted : (node -> unit) -> t -> node -> unit
(** Successors in ascending node order — deterministic across hash seeds.
    Costs an O(d log d) fold-and-sort per call on [`Hashtbl]; on [`Csr]
    it is an O(d) merge of the base row with the overlay, sorted by
    construction. *)

val iter_pred_sorted : (node -> unit) -> t -> node -> unit
(** Predecessors in ascending node order; see {!iter_succ_sorted}. *)

val iter_edges : (node -> node -> unit) -> t -> unit
(** All edges in lexicographic [(u, v)] order (deterministic). *)

val succ_list : t -> node -> node list
(** Successors in ascending node order. *)

val pred_list : t -> node -> node list
(** Predecessors in ascending node order. *)

val edges : t -> (node * node) list
(** All edges in lexicographic [(u, v)] order (deterministic). *)

val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a

val nodes_with_label : t -> label -> node list
(** All nodes carrying the given label (maintained index; O(result)). *)

val pp : Format.formatter -> t -> unit
(** Debug printer: node count, edge count, and the edge list for small
    graphs. *)
