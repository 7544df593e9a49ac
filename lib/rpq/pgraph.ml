module Digraph = Ig_graph.Digraph
module Nfa = Ig_nfa.Nfa

type node = Digraph.node
type state = Nfa.state
type key = int

type t = { g : Digraph.t; a : Nfa.t; ns : int }

let make g a = { g; a; ns = Nfa.n_states a }

let graph p = p.g
let nfa p = p.a

let key p v s = (v * p.ns) + s
let node_of p k = k / p.ns
let state_of p k = k mod p.ns

let initial_states p u = Nfa.next p.a (Nfa.start p.a) (Digraph.label p.g u)

let is_source p u = initial_states p u <> []

let sources p =
  let acc = ref [] in
  Digraph.iter_nodes (fun u -> if is_source p u then acc := u :: !acc) p.g;
  List.rev !acc

let succ_keys_of_edge p s w = Nfa.next p.a s (Digraph.label p.g w)

(* Product adjacency is iterated in sorted graph-node order: Inc_rpq's
   visit order leaks into trace events, so it must not depend on the
   hash seed. The NFA state lists are deterministic by construction. *)
let iter_succ p k f =
  let v = node_of p k and s = state_of p k in
  Digraph.iter_succ
    (fun w -> List.iter (fun s' -> f (key p w s')) (succ_keys_of_edge p s w))
    p.g v

let iter_pred p k f =
  let w = node_of p k and s' = state_of p k in
  let lw = Digraph.label p.g w in
  Digraph.iter_pred
    (fun v -> List.iter (fun s -> f (key p v s)) (Nfa.prev p.a s' lw))
    p.g w

let is_accepting p k = Nfa.is_accepting p.a (state_of p k)
