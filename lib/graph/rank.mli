(** Order-maintenance labels for topological ranks.

    IncSCC (paper Section 5.3) keeps a topological rank [r] on its
    components, the nodes of the contracted graph [Gc], with the invariant
    [r(a) > r(b)] for every contracted edge [(a,b)]. IncSCC does not store
    [Gc]; it reads contracted edges off the graph, so this module only
    orders component ids. Three operations disturb the rank set:

    - {b reallocation} after an edge insertion (Pearce–Kelly style): a set of
      existing labels is permuted among the affected nodes;
    - {b splits} after an intra-component deletion: one node's slot must host
      [k] fresh, internally ordered labels;
    - {b merges}: several nodes collapse into one, freeing labels.

    Labels are sparse [int] keys (OCaml native ints: unboxed, 62 bits) with a configurable gap; when a split
    finds no room in a slot, the whole structure is relabeled (order
    preserved). Callers must treat label values as transient: valid only
    until the next mutating operation. *)

type item = int
(** Caller-chosen identifiers (e.g. component ids). *)

type t

val create : unit -> t

val size : t -> int

val mem : t -> item -> bool

val insert_top : t -> item -> unit
(** Give [item] a label above every existing one.
    @raise Invalid_argument if [item] is already present. *)

val insert_bottom : t -> item -> unit
(** Give [item] a label below every existing one. *)

val remove : t -> item -> unit
(** Retire an item, freeing its label. No-op if absent. *)

val value : t -> item -> int
(** The current label. Transient — see module doc.
    @raise Not_found if the item is not present. *)

val compare_items : t -> item -> item -> int
(** Compare two present items by label. *)

val reassign : t -> item list -> unit
(** [reassign t items] permutes the items' own labels so that, read in list
    order, labels are ascending. The label multiset is unchanged. Used for
    Pearce–Kelly rank reallocation ([reallocRank] in the paper).
    @raise Invalid_argument on duplicates or absent items. *)

val take_labels : t -> item list -> int list
(** [take_labels t items] retires all the items and returns their labels
    sorted ascending. Together with {!give} this supports reallocation
    patterns where some labels are dropped (component merges): the caller
    decides which pool labels go to which survivors.
    @raise Invalid_argument on duplicates or absent items. *)

val give : t -> item -> int -> unit
(** Assign a currently unused label (one just returned by {!take_labels})
    to an absent item.
    @raise Invalid_argument if the item is present or the label in use. *)

val split : t -> item -> parts:item list -> unit
(** [split t x ~parts] retires [x] and labels the fresh [parts] (ascending
    desired order) with distinct labels lying strictly between [x]'s
    neighboring labels, so every order relation with the rest of the
    structure that [x] satisfied is satisfied by each part. Triggers a global
    relabel if the slot is too narrow.
    @raise Invalid_argument if a part is already present or [x] is absent. *)

val check : t -> unit
(** Internal consistency check (for tests): the item→label and label→item
    views agree and labels are unique. @raise Failure on violation. *)
