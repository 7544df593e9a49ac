(* The bounded event ring behind Obs's structured tracing, and its event
   types.

   Where the Obs counters answer "how much work did an engine do" (|AFF|,
   cert_rewrites, queue_pushes), events answer "why": every node that
   enters AFF is stamped with the *rule* of the paper's pseudocode that put
   it there (which line of Figures 1/3/5/7 fired), every certificate
   rewrite records the field and its before/after values, and frontier
   expansions record the propagation order. Events land in a bounded ring
   buffer: when it wraps, the oldest events are dropped and counted, so
   tracing a long soak costs O(capacity) memory and the tail — the part
   that explains a failure — is always retained.

   Only Obs holds a ring: [Obs.create ~events:capacity ()] allocates one
   and the engines record into it through Obs's probes. Sequence numbers
   are a logical clock (no wall-clock reads), so a trace of a seeded run
   is bit-for-bit deterministic. *)

(* Which case of the paper's algorithms put a node into AFF. *)
type rule =
  | Kws_next_on_deleted
      (* IncKWS− (Fig. 3 lines 1-6): the node's chosen next-pointer path
         ran through a deleted edge. *)
  | Kws_shorter_kdist
      (* IncKWS+ (Fig. 1): an insertion (or a re-settled successor) offers
         a strictly shorter keyword distance. *)
  | Rpq_support_lost
      (* IncRPQ identAff: a product-graph marking lost its last
         distance-(d-1) predecessor. *)
  | Rpq_dist_decrease
      (* IncRPQ settle: a product-graph key gained a marking (or a shorter
         one) through an inserted edge. *)
  | Scc_local_tarjan
      (* IncSCC−: member of a component re-certified by a local Tarjan
         run (possible split). *)
  | Scc_rank_swap
      (* IncSCC+ (Fig. 7 lines 4-9): component inside the affected rank
         region of an order-violating insertion. *)
  | Sim_support_zero
      (* IncSim cascade: a match pair's support counter hit zero. *)
  | Sim_revalidated
      (* IncSim insertion: a candidate pair of the batch's closure
         joined the greatest simulation. *)
  | Iso_match_broken
      (* IncISO step (1): a match subgraph used a deleted edge. *)
  | Iso_ball_rematch
      (* IncISO steps (2)-(3): a fresh match found by a VF2 run
         anchored on an inserted edge (the tag keeps its historical
         name; the run stays inside the d_Q-ball without building it). *)

let rule_name = function
  | Kws_next_on_deleted -> "Kws_next_on_deleted"
  | Kws_shorter_kdist -> "Kws_shorter_kdist"
  | Rpq_support_lost -> "Rpq_support_lost"
  | Rpq_dist_decrease -> "Rpq_dist_decrease"
  | Scc_local_tarjan -> "Scc_local_tarjan"
  | Scc_rank_swap -> "Scc_rank_swap"
  | Sim_support_zero -> "Sim_support_zero"
  | Sim_revalidated -> "Sim_revalidated"
  | Iso_match_broken -> "Iso_match_broken"
  | Iso_ball_rematch -> "Iso_ball_rematch"

let all_rules =
  [
    Kws_next_on_deleted;
    Kws_shorter_kdist;
    Rpq_support_lost;
    Rpq_dist_decrease;
    Scc_local_tarjan;
    Scc_rank_swap;
    Sim_support_zero;
    Sim_revalidated;
    Iso_match_broken;
    Iso_ball_rematch;
  ]

type event =
  | Aff_enter of { node : int; rule : rule }
      (* [node] enters AFF because [rule] fired. For SCC rank events the
         "node" is a component id (the unit the rank order lives on). *)
  | Cert_rewrite of { node : int; field : string; before : string; after : string }
  | Frontier_expand of { node : int }
      (* [node] enqueued for (re)settling — one event per queue push. *)
  | Span_begin of string
  | Span_end of string
  | Compaction of { edges : int; overlay : int }
      (* A CSR overlay was folded into the frozen base: [edges] in the
         rebuilt base, [overlay] overlay entries absorbed. Deterministic
         fields only — the compaction latency goes to the Obs histograms,
         so traces stay byte-identical across runs. *)
  | Slo_violation of { rule : string; value : float; limit : float }
      (* An armed SLO budget tripped at a flight-recorder snapshot:
         [rule]'s measured [value] exceeded its [limit]. *)

type entry = { seq : int; event : event }

type t = {
  cap : int;
  ring : entry array;
  mutable len : int;   (* live entries, <= cap *)
  mutable head : int;  (* next write position *)
  mutable next_seq : int;
  mutable dropped : int;
}

let create capacity =
  {
    cap = capacity;
    ring = Array.make capacity { seq = 0; event = Span_begin "" };
    len = 0;
    head = 0;
    next_seq = 0;
    dropped = 0;
  }

let push b event =
  b.ring.(b.head) <- { seq = b.next_seq; event };
  b.next_seq <- b.next_seq + 1;
  b.head <- (b.head + 1) mod b.cap;
  if b.len < b.cap then b.len <- b.len + 1 else b.dropped <- b.dropped + 1

(* Forget buffered events (the logical clock keeps running, so snapshots
   taken across a clear still order globally). Used to scope a trace to
   one update: clear, apply, snapshot. *)
let clear b =
  b.len <- 0;
  b.head <- 0;
  b.dropped <- 0

(* ---- snapshots ----------------------------------------------------------- *)

type snapshot = { entries : entry list; (* oldest first *) drops : int }

let empty_snapshot = { entries = []; drops = 0 }

let snapshot b =
  let start = (b.head - b.len + (2 * b.cap)) mod b.cap in
  let acc = ref [] in
  for i = b.len - 1 downto 0 do
    acc := b.ring.((start + i) mod b.cap) :: !acc
  done;
  { entries = !acc; drops = b.dropped }
