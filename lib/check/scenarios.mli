(** Ready-made fuzzing scenarios: a base graph, a sampled query, an oracle
    factory, and the focus edges the stream driver keeps toggling.

    Base graphs and queries come from the {!Ig_workload} generators (the
    paper's Section 6 setup, scaled down so a from-scratch recomputation per
    step stays affordable); the {!gadget} scenario instead instantiates the
    Fig. 9 two-cycle counterexample of {!Ig_theory.Gadget} and focuses the
    stream on its Δ1/Δ2 bridge edges — the exact shape the paper's RPQ
    unboundedness proof is built on. *)

type t = {
  name : string;
  base : Ig_graph.Digraph.t;  (** pristine base graph — never mutated *)
  focus : (Ig_graph.Digraph.node * Ig_graph.Digraph.node) list;
  make : unit -> Oracle.t;
      (** deterministic factory: [Spec.make base spec], a fresh engine over
          a fresh copy of [base], suitable for {!Harness.run}'s shrinking
          replays *)
  spec : Spec.t;
      (** the sampled query; {!Spec.to_args} is what journal headers
          record so [incgraph replay] can rebuild the same engine *)
}

type size = { nodes : int; edges : int; labels : int }

val default_size : size
(** 28 nodes / 80 edges / 4 labels — small enough that per-step batch
    recomputation keeps tier-1 fuzzing fast, dense enough to exercise
    merges, splits and bounce-backs. *)

val kws :
  rng:Random.State.t -> ?size:size -> unit -> t
val rpq :
  rng:Random.State.t -> ?size:size -> unit -> t
val scc :
  rng:Random.State.t -> ?size:size -> unit -> t
val sim :
  rng:Random.State.t -> ?size:size -> unit -> t
val iso :
  rng:Random.State.t -> ?size:size -> unit -> t

val gadget : ?cycle:int -> unit -> t
(** RPQ over the Fig. 9 gadget (default [cycle = 4]); focus edges are Δ1,
    Δ2 and the cycle edges adjacent to them. *)

val all :
  rng:Random.State.t -> ?size:size -> unit -> t list
(** The five generator-based scenarios plus {!gadget}. *)

val by_name :
  rng:Random.State.t -> ?size:size -> string -> t option
(** Look up one scenario ("kws" | "rpq" | "scc" | "sim" | "iso" |
    "gadget"). *)
