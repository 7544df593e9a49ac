module Digraph = Ig_graph.Digraph

(* ---- canonical answer forms -------------------------------------------- *)

let canon_nodes ns =
  let ns = List.sort_uniq compare ns in
  "{" ^ String.concat " " (List.map string_of_int ns) ^ "}"

let canon_pairs ps =
  let ps = List.sort_uniq compare ps in
  "{"
  ^ String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) ps)
  ^ "}"

let canon_comps cs =
  let cs = List.sort compare (List.map (List.sort compare) cs) in
  String.concat ""
    (List.map
       (fun c -> "[" ^ String.concat " " (List.map string_of_int c) ^ "]")
       cs)

(* A match subgraph: sorted image nodes plus sorted image edges (the VF2
   canon), printed. *)
let canon_mappings p ms =
  let cs = List.sort_uniq compare (List.map (Ig_iso.Vf2.canon_of p) ms) in
  String.concat ""
    (List.map
       (fun (ns, es) ->
         Printf.sprintf "[%s|%s]"
           (String.concat " " (List.map string_of_int ns))
           (String.concat " "
              (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) es)))
       cs)

let apply_edge ~ins ~del = function
  | Digraph.Insert (u, v) -> ins u v
  | Digraph.Delete (u, v) -> del u v

(* |ΔO| and the "<noun> +added/-removed" summary line. *)
let delta_line noun added removed =
  let a = List.length added and r = List.length removed in
  (a + r, Printf.sprintf "%s +%d/-%d" noun a r)

(* ---- KWS ---------------------------------------------------------------- *)

module Kws = struct
  module I = Ig_kws.Inc_kws

  type t = I.t
  type query = Ig_kws.Batch.query

  let name = "kws"
  let series = "IncKWS"
  let init ~obs ~trace g q = I.init ~obs ~trace g q
  let graph = I.graph
  let apply t = apply_edge ~ins:(I.insert_edge t) ~del:(I.delete_edge t)

  let apply_batch t us =
    let d = I.apply_batch t us in
    delta_line "roots" d.I.added d.I.removed

  let describe t = Printf.sprintf "%d roots" (List.length (I.match_roots t))
  let answer t = canon_nodes (I.match_roots t)
  let recompute t = canon_nodes (Ig_kws.Batch.run (I.graph t) (I.query t))
  let check_invariants = I.check_invariants
  let obs = I.obs
  let trace = I.trace
  let cert_snapshot = I.cert_snapshot
end

(* ---- RPQ ---------------------------------------------------------------- *)

module Rpq = struct
  module I = Ig_rpq.Inc_rpq

  type t = { s : I.t; q : Ig_nfa.Regex.t }
  type query = Ig_nfa.Regex.t

  let name = "rpq"
  let series = "IncRPQ"
  let init ~obs ~trace g q = { s = I.create ~obs ~trace g q; q }
  let graph t = I.graph t.s

  let apply t =
    apply_edge ~ins:(I.insert_edge t.s) ~del:(I.delete_edge t.s)

  let apply_batch t us =
    let d = I.apply_batch t.s us in
    delta_line "pairs" d.I.added d.I.removed

  let describe t = Printf.sprintf "%d pairs" (List.length (I.matches t.s))
  let answer t = canon_pairs (I.matches t.s)
  let recompute t = canon_pairs (Ig_rpq.Batch.run_query (graph t) t.q)
  let check_invariants t = I.check_invariants t.s
  let obs t = I.obs t.s
  let trace t = I.trace t.s
  let cert_snapshot t = I.cert_snapshot t.s
end

(* ---- SCC ---------------------------------------------------------------- *)

module Scc = struct
  module I = Ig_scc.Inc_scc

  type t = I.t
  type query = I.config

  let name = "scc"
  let series = "IncSCC"
  let init ~obs ~trace g config = I.init ~config ~obs ~trace g
  let graph = I.graph
  let apply t = apply_edge ~ins:(I.insert_edge t) ~del:(I.delete_edge t)

  (* Components are reported removed-first: a merge reads "-k/+1". *)
  let apply_batch t us =
    let d = I.apply_batch t us in
    let r = List.length d.I.removed and a = List.length d.I.added in
    (a + r, Printf.sprintf "components -%d/+%d" r a)

  let describe t =
    Printf.sprintf "%d components" (List.length (I.components t))
  let answer t = canon_comps (I.components t)
  let recompute t = canon_comps (Ig_scc.Tarjan.scc (I.graph t))
  let check_invariants = I.check_invariants
  let obs = I.obs
  let trace = I.trace
  let cert_snapshot = I.cert_snapshot
end

(* ---- Sim ---------------------------------------------------------------- *)

module Sim = struct
  module I = Ig_sim.Inc_sim

  type t = I.t
  type query = Ig_iso.Pattern.t

  let name = "sim"
  let series = "IncSim"
  let init ~obs ~trace g p = I.init ~obs ~trace g p
  let graph = I.graph
  let apply t = apply_edge ~ins:(I.insert_edge t) ~del:(I.delete_edge t)

  let apply_batch t us =
    let d = I.apply_batch t us in
    delta_line "pairs" d.I.added d.I.removed

  let describe t =
    Printf.sprintf "%d pairs" (List.length (Ig_sim.Sim.pairs (I.relation t)))
  let answer t = canon_pairs (Ig_sim.Sim.pairs (I.relation t))

  let recompute t =
    canon_pairs (Ig_sim.Sim.pairs (Ig_sim.Sim.run (I.pattern t) (I.graph t)))

  let check_invariants = I.check_invariants
  let obs = I.obs
  let trace = I.trace
  let cert_snapshot = I.cert_snapshot
end

(* ---- ISO ---------------------------------------------------------------- *)

module Iso = struct
  module I = Ig_iso.Inc_iso

  type t = I.t
  type query = Ig_iso.Pattern.t

  let name = "iso"
  let series = "IncISO"
  let init ~obs ~trace g p = I.init ~obs ~trace g p
  let graph = I.graph
  let apply t = apply_edge ~ins:(I.insert_edge t) ~del:(I.delete_edge t)

  let apply_batch t us =
    let d = I.apply_batch t us in
    delta_line "matches" d.I.added d.I.removed

  let describe t = Printf.sprintf "%d matches" (List.length (I.matches t))
  let answer t = canon_mappings (I.pattern t) (I.matches t)

  let recompute t =
    canon_mappings (I.pattern t) (Ig_iso.Vf2.find_all (I.graph t) (I.pattern t))

  let check_invariants = I.check_invariants
  let obs = I.obs
  let trace = I.trace
  let cert_snapshot = I.cert_snapshot
end

let of_kws t = Oracle.Packed ((module Kws), t)
