module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer
module Delta_set = Ig_graph.Delta_set

type node = Digraph.node

type delta = { added : Vf2.mapping list; removed : Vf2.mapping list }

type t = {
  g : Digraph.t;
  p : Pattern.t;
  obs : Obs.t;
  anchors : ((int * int) * Vf2.plan) list;
      (* one matching order per pattern edge, in pattern-edge order *)
  matches : (Vf2.canon, Vf2.mapping) Hashtbl.t;
  edge_index : (node * node, (Vf2.canon, unit) Hashtbl.t) Hashtbl.t;
  delta : (Vf2.canon, Vf2.mapping) Delta_set.t; (* matches gained/lost *)
}

let graph t = t.g
let obs t = t.obs

let image_edges t m =
  List.map (fun (u, v) -> (m.(u), m.(v))) (Pattern.edges t.p)

let show_mapping m =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list m)) ^ "]"

let add_match t c m =
  if not (Hashtbl.mem t.matches c) then begin
    Hashtbl.replace t.matches c m;
    List.iter
      (fun e ->
        let set =
          match Hashtbl.find_opt t.edge_index e with
          | Some s -> s
          | None ->
              let s = Hashtbl.create 4 in
              Hashtbl.replace t.edge_index e s;
              s
        in
        Hashtbl.replace set c ())
      (image_edges t m);
    (* Counted in bulk by [process_inserts]: init adds matches too, and
       those are not |AFF|. *)
    if Obs.tracing t.obs then begin
      Obs.emit t.obs
        (Tracer.Aff_enter { node = m.(0); rule = Tracer.Iso_ball_rematch });
      Obs.cert_rewrite t.obs ~node:m.(0) ~field:"match" ~before:"absent"
        ~after:(show_mapping m)
    end;
    Delta_set.gain t.delta c m
  end

(* A match broken by a deleted edge: it enters AFF and leaves the store. *)
let remove_match t c =
  match Hashtbl.find_opt t.matches c with
  | None -> ()
  | Some m ->
      Obs.aff_enter t.obs ~node:m.(0) ~rule:Tracer.Iso_match_broken;
      if Obs.tracing t.obs then
        Obs.cert_rewrite t.obs ~node:m.(0) ~field:"match"
          ~before:(show_mapping m) ~after:"removed";
      Hashtbl.remove t.matches c;
      List.iter
        (fun e ->
          match Hashtbl.find_opt t.edge_index e with
          | Some s ->
              Hashtbl.remove s c;
              if Hashtbl.length s = 0 then Hashtbl.remove t.edge_index e
          | None -> ())
        (image_edges t m);
      Delta_set.lose t.delta c m

let process_delete t e =
  match Hashtbl.find_opt t.edge_index e with
  | None -> ()
  | Some set ->
      (* Sorted: the removal order reaches the trace. *)
      let cs =
        List.map fst (Obs.sorted_bindings ~compare:Vf2.compare_canon set)
      in
      Obs.add t.obs Obs.K.cert_rewrites (List.length cs);
      List.iter (remove_match t) cs

(* Edge-anchored re-match (paper steps (2)-(3)): every new match maps some
   pattern edge (x, y) onto a net-inserted edge (v, w), and the pattern is
   weakly connected, so VF2 with x ↦ v, y ↦ w fixed, extended through
   adjacency only, finds each new match from each of its new edges
   ([add_match] dedupes). No ball is built: an extension never leaves the
   d_Q-neighbourhood of (v, w), and an edge no pattern edge's labels fit
   costs one comparison per pattern edge. *)
let process_inserts t edges =
  if edges <> [] && t.anchors <> [] then begin
    let sym = Vf2.symbols t.g t.p in
    let before = Hashtbl.length t.matches and runs = ref 0 in
    let work = { Vf2.visited = 0; relaxed = 0 } in
    List.iter
      (fun (v, w) ->
        let lv = Digraph.label t.g v and lw = Digraph.label t.g w in
        List.iter
          (fun ((x, y), plan) ->
            if sym.(x) = lv && sym.(y) = lw && (x <> y || v = w) then begin
              incr runs;
              (* Counted as one of [rematches], not a queue push. *)
              if Obs.tracing t.obs then
                Obs.emit t.obs (Tracer.Frontier_expand { node = v });
              Vf2.iter_matches ~anchor:(plan, (v, w)) ~work t.g t.p
                (fun m -> add_match t (Vf2.canon_of t.p m) m)
            end)
          t.anchors)
      edges;
    Obs.add t.obs Obs.K.rematches !runs;
    Obs.add t.obs Obs.K.nodes_visited work.visited;
    Obs.add t.obs Obs.K.edges_relaxed work.relaxed;
    let fresh = Hashtbl.length t.matches - before in
    Obs.add t.obs Obs.K.aff fresh;
    Obs.add t.obs Obs.K.cert_rewrites fresh
  end

(* The graph takes ΔG's net effect first (paper step (1)); [process_delete]
   reads only the edge index, so it may run after the graph has moved. *)
let process t updates =
  let dels, inss = Digraph.apply_net t.g updates in
  List.iter (process_delete t) dels;
  process_inserts t inss

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  Obs.with_span t.obs "iso.process" (fun () -> process t updates);
  (* Canon order: the delta lists are consumer-visible. *)
  let added, removed =
    Delta_set.flush t.delta ~obs:t.obs ~compare:Vf2.compare_canon
  in
  { added = List.map snd added; removed = List.map snd removed }

let init ?(obs = Obs.noop) g p =
  Digraph.instrument ~obs g;
  let t =
    {
      g;
      p;
      obs;
      anchors = List.map (fun e -> (e, Vf2.plan p e)) (Pattern.edges p);
      matches = Hashtbl.create 256;
      edge_index = Hashtbl.create 256;
      delta = Delta_set.create ();
    }
  in
  List.iter
    (fun m -> add_match t (Vf2.canon_of p m) m)
    (Vf2.find_all g p);
  Delta_set.clear t.delta;
  (* The initial batch match is not an update: its events (one Aff_enter
     per pre-existing match) are not provenance, so drop them. *)
  Obs.clear_events obs;
  t

(* Canon order: user-visible. *)
let matches t =
  List.map snd (Obs.sorted_bindings ~compare:Vf2.compare_canon t.matches)

let n_matches t = Hashtbl.length t.matches

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let fresh = Vf2.find_all t.g t.p in
  if List.length fresh <> Hashtbl.length t.matches then
    fail "%d matches, expected %d" (Hashtbl.length t.matches)
      (List.length fresh);
  List.iter
    (fun m ->
      let c = Vf2.canon_of t.p m in
      if not (Hashtbl.mem t.matches c) then fail "match missing")
    fresh;
  (* Index consistency. Order-free: each check is independent. *)
  (Hashtbl.iter [@lint.allow "D2"])
    (fun _ m ->
      List.iter
        (fun e ->
          match Hashtbl.find_opt t.edge_index e with
          | Some s when Hashtbl.mem s (Vf2.canon_of t.p m) -> ()
          | _ -> fail "edge index missing an entry")
        (image_edges t m))
    t.matches;
  (Hashtbl.iter [@lint.allow "D2"])
    (fun e s ->
      (Hashtbl.iter [@lint.allow "D2"])
        (fun c () ->
          if not (Hashtbl.mem t.matches c) then
            fail "edge index references dead match";
          ignore e)
        s)
    t.edge_index

(* Canonical text dump of the match store: one line per match, canonical
   image first, then the pattern-indexed mapping. Sorted by Vf2's canon
   order so the bytes are hash-seed independent. *)
let cert_snapshot t =
  let buf = Buffer.create 256 in
  List.iter
    (fun ((ns, es), mapping) ->
      Buffer.add_string buf "nodes";
      List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) ns;
      Buffer.add_string buf " edges";
      List.iter
        (fun (u, v) -> Buffer.add_string buf (Printf.sprintf " %d-%d" u v))
        es;
      Buffer.add_string buf " map";
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v))
        mapping;
      Buffer.add_char buf '\n')
    (Obs.sorted_bindings ~compare:Vf2.compare_canon t.matches);
  [
    ("matches", Buffer.contents buf);
    ("count", Printf.sprintf "%d\n" (Hashtbl.length t.matches));
  ]
