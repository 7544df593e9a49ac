(** Mutable node-labeled directed graphs.

    This is the substrate shared by every query class in the library: a
    directed graph [G = (V, E, l)] in the sense of the paper (Section 2),
    where nodes carry a label drawn from a finite alphabet and updates are
    edge insertions and deletions.

    Nodes are dense integer identifiers allocated by {!add_node}; labels are
    interned strings (see {!Interner}). Nodes are never removed (the paper's
    update model is edge-only; fresh nodes may arrive together with
    inserted edges).

    Successor and predecessor adjacency are stored as flat
    compressed-sparse-row (CSR) Bigarrays, off the OCaml heap, fronted by
    a small per-node overlay of sorted add/tombstone lists that absorbs
    edge insertions and deletions. The overlay invariants are
    [add ∩ base = ∅] and [del ⊆ base]. Membership is an overlay probe
    plus a binary search of the base row; degrees are O(1). Every
    adjacency walk is a merge of the base row with the overlay, so it is
    in ascending node order by construction, whatever the process hash
    seed. The overlay folds into fresh base arrays ([O(n + m)]) when it
    exceeds [max 64 (n_edges/8)] live entries, checked after each
    {!add_edge} and {!remove_edge} and once after each {!apply_net}, and
    on explicit {!compact}. *)

type node = int
type label = Interner.symbol

type update =
  | Insert of node * node  (** [insert e] — add edge [(u, v)]. *)
  | Delete of node * node  (** [delete e] — remove edge [(u, v)]. *)

type edge = node * node

type t

(** {1 Construction} *)

val create : ?hint:int -> unit -> t
(** An empty graph. [hint] pre-sizes the label, degree and overlay
    vectors for [hint] nodes; they never reallocate below it. *)

val backend : t -> [ `Csr ]
(** The one representation, for reports that name it. *)

val backend_name : [ `Csr ] -> string
(** ["csr"]. *)

val copy : t -> t
(** Deep copy (shares the interner): O(n). The frozen base arrays are
    shared (compaction installs fresh ones, never mutates in place), the
    overlay is copied with its pending deltas; the copy is fully
    independent. *)

val compact : t -> unit
(** Fold the delta overlay into fresh base arrays (semantically a no-op;
    O(n + m)). *)

val overlay_size : t -> int
(** Live overlay entries (adds and tombstones, both directions) pending
    compaction; 0 right after {!compact}. *)

val instrument : obs:Ig_obs.Obs.t -> t -> unit
(** Attach an instrumentation sink to the storage layer: every effective
    {!add_edge} and {!remove_edge} counts one unit of |ΔG|
    ({!Ig_obs.Obs.note_changed_input}), the overlay add/del sizes become
    gauges, and compactions record latency and bytes-copied histograms
    plus a [Compaction] event. Only the engines call it, on the graph they
    own. Default is {!Ig_obs.Obs.noop} (a single branch per probe);
    {!copy} resets the copy's sink to noop so scratch and oracle copies
    never pollute the engine's registry. *)

val add_node : t -> string -> node
(** Add a fresh node with the given label string. *)

val add_edge : t -> node -> node -> bool
(** [add_edge g u v] inserts edge [(u,v)]. Returns [false] if it was already
    present (the graph is a simple digraph; parallel edges collapse).
    Self-loops are allowed. *)

val remove_edge : t -> node -> node -> bool
(** Returns [false] if the edge was absent. *)

val load_edges : t -> edge list -> unit
(** [load_edges g es] inserts every edge of [es] into [g] in one pass:
    duplicates collapse and the graph ends compacted. The same graph as
    [add_edge] for each edge, at O(n + m log d) instead of one
    sorted-list insert per edge. [g] must have no edges and an empty
    overlay, as a fresh graph has.
    @raise Invalid_argument if it has either, or if an endpoint is
    unknown. *)

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
    updates. Reads no graph: one probe per update into an open-addressing
    table over packed keys [u lsl 31 lor v], kept per domain, sized to the
    largest batch seen and emptied by walking only the slots the batch
    filled, so a call allocates nothing but its result.
    @raise Invalid_argument ["Digraph: unknown node"] if an endpoint is
    outside [\[0, 2{^31})]. *)

val apply_net : t -> update list -> edge list * edge list
(** [apply_net g us] applies [net_effect us] to [g], deletions first, and
    returns the [(deletions, insertions)] that changed it, in
    {!net_effect}'s order. The graph ends as {!apply_batch} leaves it.
    Compaction is decided once, after the whole batch: applying deletions
    first can push the overlay past the threshold mid-batch even when the
    batch's insertions bring it back, so one call runs at most one
    compaction. Its effective changes count as |ΔG| on the instrumented
    sink, as {!add_edge} and {!remove_edge} count theirs.
    @raise Invalid_argument ["Digraph: unknown node"] if an endpoint is not
    a node of [g]; [g] is then unchanged. *)

(** {1 Labels} *)

val interner : t -> Interner.t
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
(** Successors in ascending node order: an O(d) merge of the base row
    with the overlay. *)

val iter_pred : (node -> unit) -> t -> node -> unit
(** Predecessors in ascending node order; see {!iter_succ}. *)

val iter_edges : (node -> node -> unit) -> t -> unit
(** All edges in lexicographic [(u, v)] order (deterministic). *)

val succ_list : t -> node -> node list
(** Successors in ascending node order. *)

val pred_list : t -> node -> node list
(** Predecessors in ascending node order. *)

val edges : t -> (node * node) list
(** All edges in lexicographic [(u, v)] order (deterministic). *)

val nodes_with_label : t -> label -> node list
(** All nodes carrying the given label (maintained index; O(result)). *)

val pp : Format.formatter -> t -> unit
(** Debug printer: node count, edge count, and the edge list for small
    graphs. *)
