module Digraph = Ig_graph.Digraph
module Pattern = Ig_iso.Pattern

type t =
  | Kws of Ig_kws.Batch.query
  | Rpq of Ig_nfa.Regex.t
  | Scc
  | Iso of Pattern.t
  | Sim of Pattern.t

(* Labels then edges: l1 l2 l3 0-1 1-2 2-0. *)
let pattern_of_args which args =
  let labels, edges =
    List.partition (fun s -> not (String.contains s '-')) args
  in
  let parse_edge s =
    match List.map int_of_string_opt (String.split_on_char '-' s) with
    | [ Some a; Some b ] -> Some (a, b)
    | _ -> None
  in
  let es = List.filter_map parse_edge edges in
  if List.length es <> List.length edges then
    Error (which ^ " edges look like 0-1 1-2")
  else
    match Pattern.create ~labels ~edges:es with
    | p -> Ok p
    | exception Invalid_argument msg ->
        Error (Printf.sprintf "bad %s pattern: %s" which msg)

let of_args ~cls ~bound ~args =
  match (cls, args) with
  | "scc", [] -> Ok Scc
  | "scc", _ -> Error "scc takes no query arguments"
  | "kws", (_ :: _ as keywords) -> Ok (Kws { Ig_kws.Batch.keywords; bound })
  | "kws", [] -> Error "kws needs keyword arguments"
  | "rpq", [ expr ] -> (
      match Ig_nfa.Regex.parse expr with
      | Ok q -> Ok (Rpq q)
      | Error e -> Error ("bad regex: " ^ e))
  | "rpq", _ -> Error "rpq needs exactly one regex argument"
  | "iso", (_ :: _) -> Result.map (fun p -> Iso p) (pattern_of_args cls args)
  | "sim", (_ :: _) -> Result.map (fun p -> Sim p) (pattern_of_args cls args)
  | ("iso" | "sim"), [] -> Error (cls ^ " needs labels and edges")
  | c, _ -> Error (Printf.sprintf "unknown query class %S" c)

(* Labels in node order, then edges as "u-v". *)
let pattern_args p =
  List.init (Pattern.n_nodes p) (Pattern.label p)
  @ List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (Pattern.edges p)

let to_args = function
  | Kws q -> ("kws", q.Ig_kws.Batch.bound, q.Ig_kws.Batch.keywords)
  | Rpq q -> ("rpq", 0, [ Ig_nfa.Regex.to_string q ])
  | Scc -> ("scc", 0, [])
  | Iso p -> ("iso", 0, pattern_args p)
  | Sim p -> ("sim", 0, pattern_args p)

let header (cls, bound, qargs) base =
  {
    Ig_journal.Record.version = Ig_journal.Record.format_version;
    cls;
    bound;
    qargs;
    base_digest = Ig_journal.Journal.graph_digest base;
  }

let make ?(obs = Ig_obs.Obs.create ()) ?(trace = Ig_obs.Tracer.create ()) g
    spec =
  let module A = Adapters in
  let g = Digraph.copy g in
  match spec with
  | Kws q -> Oracle.Packed ((module A.Kws), A.Kws.init ~obs ~trace g q)
  | Rpq q -> Oracle.Packed ((module A.Rpq), A.Rpq.init ~obs ~trace g q)
  | Scc ->
      Oracle.Packed
        ((module A.Scc), A.Scc.init ~obs ~trace g Ig_scc.Inc_scc.inc_config)
  | Iso p -> Oracle.Packed ((module A.Iso), A.Iso.init ~obs ~trace g p)
  | Sim p -> Oracle.Packed ((module A.Sim), A.Sim.init ~obs ~trace g p)

let run_batch g = function
  | Kws q ->
      Printf.sprintf "KWS: %d match roots" (List.length (Ig_kws.Batch.run g q))
  | Rpq q ->
      Printf.sprintf "RPQ: %d match pairs"
        (List.length (Ig_rpq.Batch.run_query g q))
  | Scc ->
      let comps = Ig_scc.Tarjan.scc g in
      let giant = List.fold_left (fun a c -> max a (List.length c)) 0 comps in
      Printf.sprintf "SCC: %d components (largest %d)" (List.length comps) giant
  | Iso p ->
      Printf.sprintf "ISO: %d matches" (List.length (Ig_iso.Vf2.find_all g p))
  | Sim p ->
      Printf.sprintf "SIM: %d relation pairs"
        (List.length (Ig_sim.Sim.pairs (Ig_sim.Sim.run p g)))
