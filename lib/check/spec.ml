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

(* The class as report rows name it; its engine's series is "Inc" ^ it. *)
let label = function
  | Kws _ -> "KWS"
  | Rpq _ -> "RPQ"
  | Scc -> "SCC"
  | Iso _ -> "ISO"
  | Sim _ -> "Sim"

module A = Adapters

type answer = { canon : unit -> string; summary : unit -> string }
type batch = { series : string; run : Digraph.t -> answer }

let sized fmt xs = Printf.sprintf fmt (List.length xs)

let batch g spec =
  (* [run]'s answer, canonicalized or summarized only when asked. *)
  let algo series canon summary run =
    let answer x =
      { canon = (fun () -> canon x); summary = (fun () -> summary x) }
    in
    { series; run = (fun g -> answer (run g)) }
  in
  match spec with
  | Kws q ->
      algo "BLINKS" A.canon_nodes (sized "KWS: %d match roots") (fun g ->
          Ig_kws.Batch.run g q)
  | Rpq q ->
      let a = Ig_nfa.Nfa.compile (Digraph.interner g) q in
      algo "RPQNFA" A.canon_pairs (sized "RPQ: %d match pairs") (fun g ->
          Ig_rpq.Batch.run g a)
  | Scc ->
      let summary comps =
        let giant = List.fold_left (fun a c -> max a (List.length c)) 0 comps in
        Printf.sprintf "SCC: %d components (largest %d)" (List.length comps)
          giant
      in
      algo "Tarjan" A.canon_comps summary Ig_scc.Tarjan.scc
  | Iso p ->
      algo "VF2" (A.canon_mappings p) (sized "ISO: %d matches") (fun g ->
          Ig_iso.Vf2.find_all g p)
  | Sim p ->
      let pairs = Ig_sim.Sim.pairs in
      algo "SimFix"
        (fun r -> A.canon_pairs (pairs r))
        (fun r -> sized "SIM: %d relation pairs" (pairs r))
        (Ig_sim.Sim.run p)

let run_batch g spec = ((batch g spec).run g).summary ()

(* The oracle over one engine of [spec]'s class on [graph]: [apply] is the
   engine's batch entry point reduced to ΔO's sizes, [current] its answer
   and [canon] the answer's canonical form, which [spec]'s batch algorithm
   must reproduce. *)
let oracle spec ~graph ~obs ~noun ~apply ~current ~canon ~check ~certs =
  let b = batch graph spec in
  {
    Oracle.name = String.lowercase_ascii (label spec);
    series = "Inc" ^ label spec;
    graph;
    obs;
    apply_batch = apply;
    delta_line = (fun (a, r) -> Printf.sprintf "%s +%d/-%d" noun a r);
    describe =
      (fun () -> Printf.sprintf "%d %s" (List.length (current ())) noun);
    answer = (fun () -> canon (current ()));
    recompute = (fun () -> (b.run graph).canon ());
    check_invariants = check;
    cert_snapshot = certs;
  }

let sizes added removed = (List.length added, List.length removed)

let kws t =
  let module I = Ig_kws.Inc_kws in
  oracle
    (Kws (I.query t))
    ~graph:(I.graph t) ~obs:(I.obs t) ~noun:"roots"
    ~apply:(fun us ->
      let d = I.apply_batch t us in
      sizes d.I.added d.I.removed)
    ~current:(fun () -> I.match_roots t)
    ~canon:A.canon_nodes
    ~check:(fun () -> I.check_invariants t)
    ~certs:(fun () -> I.cert_snapshot t)

let scc t =
  let module I = Ig_scc.Inc_scc in
  let o =
    oracle Scc ~graph:(I.graph t) ~obs:(I.obs t) ~noun:"components"
      ~apply:(fun us ->
        let d = I.apply_batch t us in
        sizes d.I.added d.I.removed)
      ~current:(fun () -> I.components t)
      ~canon:A.canon_comps
      ~check:(fun () -> I.check_invariants t)
      ~certs:(fun () -> I.cert_snapshot t)
  in
  (* Components are reported removed-first: a merge reads "-k/+1". *)
  {
    o with
    delta_line = (fun (a, r) -> Printf.sprintf "components -%d/+%d" r a);
  }

let make ?(obs = Ig_obs.Obs.create ~events:Ig_obs.Obs.default_events ()) g
    spec =
  let graph = Digraph.copy g in
  match spec with
  | Kws q -> kws (Ig_kws.Inc_kws.init ~obs graph q)
  | Scc -> scc (Ig_scc.Inc_scc.init ~obs graph)
  | Rpq q ->
      let module I = Ig_rpq.Inc_rpq in
      let t = I.create ~obs graph q in
      oracle spec ~graph ~obs ~noun:"pairs"
        ~apply:(fun us ->
          let d = I.apply_batch t us in
          sizes d.I.added d.I.removed)
        ~current:(fun () -> I.matches t)
        ~canon:A.canon_pairs
        ~check:(fun () -> I.check_invariants t)
        ~certs:(fun () -> I.cert_snapshot t)
  | Iso p ->
      let module I = Ig_iso.Inc_iso in
      let t = I.init ~obs graph p in
      oracle spec ~graph ~obs ~noun:"matches"
        ~apply:(fun us ->
          let d = I.apply_batch t us in
          sizes d.I.added d.I.removed)
        ~current:(fun () -> I.matches t)
        ~canon:(A.canon_mappings p)
        ~check:(fun () -> I.check_invariants t)
        ~certs:(fun () -> I.cert_snapshot t)
  | Sim p ->
      let module I = Ig_sim.Inc_sim in
      let t = I.init ~obs graph p in
      oracle spec ~graph ~obs ~noun:"pairs"
        ~apply:(fun us ->
          let d = I.apply_batch t us in
          sizes d.I.added d.I.removed)
        ~current:(fun () -> Ig_sim.Sim.pairs (I.relation t))
        ~canon:A.canon_pairs
        ~check:(fun () -> I.check_invariants t)
        ~certs:(fun () -> I.cert_snapshot t)
