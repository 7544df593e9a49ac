(** The bounded event ring behind {!Obs}'s structured tracing, and the
    event types it stores.

    Where the {!Obs} counters answer "how much work did an engine do"
    (|AFF|, cert_rewrites, queue_pushes), events answer "why": every node
    that enters AFF is stamped with the {e rule} of the paper's pseudocode
    that put it there, every certificate rewrite records the field and its
    before/after values, and frontier expansions record the propagation
    order. Events land in a bounded ring buffer: when it wraps, the oldest
    events are dropped and counted, so tracing a long soak costs
    O(capacity) memory and the tail — the part that explains a failure —
    is always retained.

    Nothing outside lib/obs holds a ring: a sink created with
    [Obs.create ~events:capacity ()] owns one, and the engines record into
    it through {!Obs}'s probes. Sequence numbers are a logical clock (no
    wall-clock reads), so a trace of a seeded run is bit-for-bit
    deterministic. *)

(** Which case of the paper's algorithms put a node into AFF. *)
type rule =
  | Kws_next_on_deleted
      (** IncKWS− (Fig. 3 lines 1-6): the node's chosen next-pointer path
          ran through a deleted edge. *)
  | Kws_shorter_kdist
      (** IncKWS+ (Fig. 1): an insertion (or a re-settled successor)
          offers a strictly shorter keyword distance. *)
  | Rpq_support_lost
      (** IncRPQ identAff: a product-graph marking lost its last
          distance-(d-1) predecessor. *)
  | Rpq_dist_decrease
      (** IncRPQ settle: a product-graph key gained a marking (or a
          shorter one) through an inserted edge. *)
  | Scc_local_tarjan
      (** IncSCC−: member of a component re-certified by a local Tarjan
          run (possible split). *)
  | Scc_rank_swap
      (** IncSCC+ (Fig. 7 lines 4-9): component inside the affected rank
          region of an order-violating insertion. *)
  | Sim_support_zero  (** IncSim cascade: a pair's support hit zero. *)
  | Sim_revalidated
      (** IncSim insertion: a candidate pair of the batch's closure
          joined the greatest simulation. *)
  | Iso_match_broken
      (** IncISO step (1): a match subgraph used a deleted edge. *)
  | Iso_ball_rematch
      (** IncISO steps (2)-(3): a fresh match found by a VF2 run
          anchored on an inserted edge (the tag keeps its historical
          name; the run stays inside the d_Q-ball without building it). *)

val rule_name : rule -> string
val all_rules : rule list

type event =
  | Aff_enter of { node : int; rule : rule }
      (** [node] enters AFF because [rule] fired. For SCC rank events the
          "node" is a component id (the unit the rank order lives on). *)
  | Cert_rewrite of {
      node : int;
      field : string;
      before : string;
      after : string;
    }
  | Frontier_expand of { node : int }
      (** [node] enqueued for (re)settling — one event per queue push. *)
  | Span_begin of string
  | Span_end of string
  | Compaction of { edges : int; overlay : int }
      (** A CSR overlay was folded into the frozen base: [edges] in the
          rebuilt base, [overlay] overlay entries absorbed. Carries only
          deterministic fields; the latency lives in the Obs histograms. *)
  | Slo_violation of { rule : string; value : float; limit : float }
      (** An armed SLO budget tripped at a flight-recorder snapshot:
          [rule]'s measured [value] exceeded its [limit]. *)

type entry = { seq : int; event : event }

type t
(** A ring; only {!Obs} creates and fills one. *)

val create : int -> t
(** A ring of the given capacity, which the caller has checked is
    positive. *)

val push : t -> event -> unit

val clear : t -> unit
(** Forget buffered events. The logical clock keeps running, so
    snapshots taken across a clear still order globally. *)

type snapshot = {
  entries : entry list;  (** oldest first *)
  drops : int;  (** events lost to wrap-around since the last {!clear} *)
}

val empty_snapshot : snapshot
val snapshot : t -> snapshot
