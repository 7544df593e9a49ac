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
  | "kws", _ when bound < 0 ->
      Error (Printf.sprintf "kws bound must be >= 0, got %d" bound)
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

(* |ΔO| and the "<noun> +added/-removed" summary line. *)
let delta_line noun added removed =
  let a = List.length added and r = List.length removed in
  (a + r, Printf.sprintf "%s +%d/-%d" noun a r)

let count noun xs = Printf.sprintf "%d %s" (List.length xs) noun

module A = Adapters

let kws t =
  let module I = Ig_kws.Inc_kws in
  {
    Oracle.name = "kws";
    series = "IncKWS";
    graph = I.graph t;
    obs = I.obs t;
    apply_batch =
      (fun us ->
        let d = I.apply_batch t us in
        delta_line "roots" d.I.added d.I.removed);
    describe = (fun () -> count "roots" (I.match_roots t));
    answer = (fun () -> A.canon_nodes (I.match_roots t));
    recompute =
      (fun () -> A.canon_nodes (Ig_kws.Batch.run (I.graph t) (I.query t)));
    check_invariants = (fun () -> I.check_invariants t);
    cert_snapshot = (fun () -> I.cert_snapshot t);
  }

let scc t =
  let module I = Ig_scc.Inc_scc in
  {
    Oracle.name = "scc";
    series = "IncSCC";
    graph = I.graph t;
    obs = I.obs t;
    (* Components are reported removed-first: a merge reads "-k/+1". *)
    apply_batch =
      (fun us ->
        let d = I.apply_batch t us in
        let r = List.length d.I.removed and a = List.length d.I.added in
        (a + r, Printf.sprintf "components -%d/+%d" r a));
    describe = (fun () -> count "components" (I.components t));
    answer = (fun () -> A.canon_comps (I.components t));
    recompute = (fun () -> A.canon_comps (Ig_scc.Tarjan.scc (I.graph t)));
    check_invariants = (fun () -> I.check_invariants t);
    cert_snapshot = (fun () -> I.cert_snapshot t);
  }

let make ?(obs = Ig_obs.Obs.create ~events:Ig_obs.Obs.default_events ()) g
    spec =
  let g = Digraph.copy g in
  match spec with
  | Kws q -> kws (Ig_kws.Inc_kws.init ~obs g q)
  | Rpq q ->
      let module I = Ig_rpq.Inc_rpq in
      let t = I.create ~obs g q in
      {
        Oracle.name = "rpq";
        series = "IncRPQ";
        graph = g;
        obs;
        apply_batch =
          (fun us ->
            let d = I.apply_batch t us in
            delta_line "pairs" d.I.added d.I.removed);
        describe = (fun () -> count "pairs" (I.matches t));
        answer = (fun () -> A.canon_pairs (I.matches t));
        recompute = (fun () -> A.canon_pairs (Ig_rpq.Batch.run_query g q));
        check_invariants = (fun () -> I.check_invariants t);
        cert_snapshot = (fun () -> I.cert_snapshot t);
      }
  | Scc -> scc (Ig_scc.Inc_scc.init ~obs g)
  | Iso p ->
      let module I = Ig_iso.Inc_iso in
      let t = I.init ~obs g p in
      {
        Oracle.name = "iso";
        series = "IncISO";
        graph = g;
        obs;
        apply_batch =
          (fun us ->
            let d = I.apply_batch t us in
            delta_line "matches" d.I.added d.I.removed);
        describe = (fun () -> count "matches" (I.matches t));
        answer = (fun () -> A.canon_mappings p (I.matches t));
        recompute = (fun () -> A.canon_mappings p (Ig_iso.Vf2.find_all g p));
        check_invariants = (fun () -> I.check_invariants t);
        cert_snapshot = (fun () -> I.cert_snapshot t);
      }
  | Sim p ->
      let module I = Ig_sim.Inc_sim in
      let t = I.init ~obs g p in
      let pairs () = Ig_sim.Sim.pairs (I.relation t) in
      {
        Oracle.name = "sim";
        series = "IncSim";
        graph = g;
        obs;
        apply_batch =
          (fun us ->
            let d = I.apply_batch t us in
            delta_line "pairs" d.I.added d.I.removed);
        describe = (fun () -> count "pairs" (pairs ()));
        answer = (fun () -> A.canon_pairs (pairs ()));
        recompute =
          (fun () -> A.canon_pairs (Ig_sim.Sim.pairs (Ig_sim.Sim.run p g)));
        check_invariants = (fun () -> I.check_invariants t);
        cert_snapshot = (fun () -> I.cert_snapshot t);
      }

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
