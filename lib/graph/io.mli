(** Plain-text graph serialization.

    Line-oriented format, one record per line:
    - [# ...] comment (ignored)
    - [v <id> <label>] node declaration
    - [e <u> <v>] edge declaration (endpoints must be declared first)

    External ids may be arbitrary non-negative integers; they are remapped to
    the dense internal ids on load. The readers collect the edges while
    parsing and build the adjacency in one pass ({!Digraph.load_edges}),
    so a load hands back flat base arrays with an empty overlay. *)

val to_string : Digraph.t -> string
(** The canonical text of [g]: the header line
    [# incgraph v1: <n> nodes <m> edges], then [v <id> <label>] for every
    node in id order, then [e <u> <v>] for every edge in lexicographic
    order ({!Digraph.iter_edges}), each line ending in ['\n']. This is
    the one writer: {!save}, journal digests and snapshots all use it.
    One buffer, sized from |V| + |E|, per call; integers are written into
    it digit by digit.

    @raise Invalid_argument naming the node if a label is empty or
    contains whitespace (the reader could not parse it back). *)

val save : string -> Digraph.t -> unit
(** Write {!to_string} to a file path. @raise Invalid_argument as
    {!to_string}, before the file is opened. *)

val read : in_channel -> Digraph.t
(** @raise Failure on malformed input, with a line number. *)

val load : string -> Digraph.t

val of_string : string -> Digraph.t
(** Parse from an in-memory string (used by tests). *)
