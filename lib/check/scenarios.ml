module Digraph = Ig_graph.Digraph
module G = Ig_workload.Generate
module Q = Ig_workload.Queries

type t = {
  name : string;
  base : Digraph.t;
  focus : (Digraph.node * Digraph.node) list;
  make : unit -> Oracle.t;
  spec : Spec.t;
}

let v ?(focus = []) name base spec =
  { name; base; focus; make = (fun () -> Spec.make base spec); spec }

type size = { nodes : int; edges : int; labels : int }

let default_size = { nodes = 28; edges = 80; labels = 4 }

let base_graph ~rng { nodes; edges; labels } =
  let g = G.uniform ~rng ~nodes ~edges ~labels () in
  (* A couple of planted chorded cycles so SCC merges/splits and long
     matching paths actually occur at this scale. *)
  G.plant_local_sccs ~rng g ~count:2 ~size:(max 3 (nodes / 6));
  g

let kws ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  v "kws" base (Spec.Kws (Q.kws ~rng base ~m:2 ~b:2))

let rpq ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  v "rpq" base (Spec.Rpq (Q.rpq ~rng base ~size:3))

let scc ~rng ?(size = default_size) () =
  v "scc" (base_graph ~rng size) Spec.Scc

(* A pattern for Sim/ISO: sampled from the graph when possible (guaranteeing
   initial matches), else a hand-rolled 2-node chain over graph labels. *)
let pattern ~rng g ~labels =
  match Q.iso ~rng g ~nodes:3 ~edges:3 with
  | Some p -> p
  | None ->
      let l i = "l" ^ string_of_int (i mod labels) in
      Ig_iso.Pattern.create ~labels:[ l 0; l 1 ] ~edges:[ (0, 1) ]

let sim ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  v "sim" base (Spec.Sim (pattern ~rng base ~labels:size.labels))

let iso ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  v "iso" base (Spec.Iso (pattern ~rng base ~labels:size.labels))

let edge_of = function
  | Digraph.Insert (u, v) | Digraph.Delete (u, v) -> (u, v)

let gadget ?(cycle = 4) () =
  let gd = Ig_theory.Gadget.make ~cycle in
  let base = gd.Ig_theory.Gadget.graph in
  let d1 = edge_of gd.Ig_theory.Gadget.delta1
  and d2 = edge_of gd.Ig_theory.Gadget.delta2 in
  (* Δ1 bridges the cycles, Δ2 reaches the sink; also keep the cycle edges
     at their endpoints in play so the stream can break and restore the
     cycles themselves. *)
  let near =
    match (gd.Ig_theory.Gadget.v_nodes, gd.Ig_theory.Gadget.u_nodes) with
    | v0 :: v1 :: _, u0 :: u1 :: _ -> [ (v0, v1); (u0, u1) ]
    | _ -> []
  in
  v ~focus:(d1 :: d2 :: near) "gadget" base
    (Spec.Rpq gd.Ig_theory.Gadget.query)

let all ~rng ?(size = default_size) () =
  [
    kws ~rng ~size ();
    rpq ~rng ~size ();
    scc ~rng ~size ();
    sim ~rng ~size ();
    iso ~rng ~size ();
    gadget ();
  ]

let by_name ~rng ?(size = default_size) = function
  | "kws" -> Some (kws ~rng ~size ())
  | "rpq" -> Some (rpq ~rng ~size ())
  | "scc" -> Some (scc ~rng ~size ())
  | "sim" -> Some (sim ~rng ~size ())
  | "iso" -> Some (iso ~rng ~size ())
  | "gadget" -> Some (gadget ())
  | _ -> None
