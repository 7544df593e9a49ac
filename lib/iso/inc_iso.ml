module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer

type node = Digraph.node

type delta = { added : Vf2.mapping list; removed : Vf2.mapping list }

type stats = { mutable rematches : int }

type t = {
  g : Digraph.t;
  p : Pattern.t;
  obs : Obs.t;
  trace : Tracer.t;
  grouped : bool;
  anchors : ((int * int) * Vf2.plan) list;
      (* one matching order per pattern edge, in pattern-edge order *)
  matches : (Vf2.canon, Vf2.mapping) Hashtbl.t;
  edge_index : (node * node, (Vf2.canon, unit) Hashtbl.t) Hashtbl.t;
  gained : (Vf2.canon, Vf2.mapping) Hashtbl.t;
  lost : (Vf2.canon, Vf2.mapping) Hashtbl.t;
  st : stats;
}

let graph t = t.g
let pattern t = t.p
let stats t = t.st
let obs t = t.obs
let trace t = t.trace

let reset_stats t = t.st.rematches <- 0

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
    if Tracer.enabled t.trace then begin
      Tracer.aff_enter t.trace ~node:m.(0) ~rule:Tracer.Iso_ball_rematch;
      Tracer.cert_rewrite t.trace ~node:m.(0) ~field:"match" ~before:"absent"
        ~after:(show_mapping m)
    end;
    if Hashtbl.mem t.lost c then Hashtbl.remove t.lost c
    else Hashtbl.replace t.gained c m
  end

let remove_match t c =
  match Hashtbl.find_opt t.matches c with
  | None -> ()
  | Some m ->
      Hashtbl.remove t.matches c;
      List.iter
        (fun e ->
          match Hashtbl.find_opt t.edge_index e with
          | Some s ->
              Hashtbl.remove s c;
              if Hashtbl.length s = 0 then Hashtbl.remove t.edge_index e
          | None -> ())
        (image_edges t m);
      if Hashtbl.mem t.gained c then Hashtbl.remove t.gained c
      else Hashtbl.replace t.lost c m

let flush_delta t =
  (* Canon order: the delta lists are consumer-visible. *)
  let added =
    List.map snd (Obs.sorted_bindings ~compare:Vf2.compare_canon t.gained)
  in
  let removed =
    List.map snd (Obs.sorted_bindings ~compare:Vf2.compare_canon t.lost)
  in
  Obs.note_changed_output t.obs (List.length added + List.length removed);
  Hashtbl.reset t.gained;
  Hashtbl.reset t.lost;
  { added; removed }

let process_delete t e =
  match Hashtbl.find_opt t.edge_index e with
  | None -> ()
  | Some set ->
      (* Sorted: the removal order reaches the trace. *)
      let cs =
        List.map fst (Obs.sorted_bindings ~compare:Vf2.compare_canon set)
      in
      let n = List.length cs in
      Obs.add t.obs Obs.K.aff n;
      Obs.add t.obs Obs.K.cert_rewrites n;
      List.iter
        (fun c ->
          (if Tracer.enabled t.trace then
             match Hashtbl.find_opt t.matches c with
             | Some m ->
                 Tracer.aff_enter t.trace ~node:m.(0)
                   ~rule:Tracer.Iso_match_broken;
                 Tracer.cert_rewrite t.trace ~node:m.(0) ~field:"match"
                   ~before:(show_mapping m) ~after:"removed"
             | None -> ());
          remove_match t c)
        cs

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
              Tracer.frontier_expand t.trace ~node:v;
              Vf2.iter_matches ~anchor:(plan, (v, w)) ~work t.g t.p
                (fun m -> add_match t (Vf2.canon_of t.p m) m)
            end)
          t.anchors)
      edges;
    t.st.rematches <- t.st.rematches + !runs;
    Obs.add t.obs "rematches" !runs;
    Obs.add t.obs Obs.K.nodes_visited work.visited;
    Obs.add t.obs Obs.K.edges_relaxed work.relaxed;
    let fresh = Hashtbl.length t.matches - before in
    Obs.add t.obs Obs.K.aff fresh;
    Obs.add t.obs Obs.K.cert_rewrites fresh
  end

let insert t (u, v) =
  let fresh = Digraph.add_edge t.g u v in
  if fresh then Obs.note_changed_input t.obs 1;
  fresh

(* [net_effect] makes the batch's order immaterial: deletions first (paper
   step (1)), then insertions, with the graph ending as [Digraph.apply_batch]
   would leave it. *)
let process t updates =
  let dels, inss = Digraph.net_effect updates in
  List.iter
    (fun (u, v) ->
      if Digraph.remove_edge t.g u v then begin
        Obs.note_changed_input t.obs 1;
        process_delete t (u, v)
      end)
    dels;
  if t.grouped then process_inserts t (List.filter (insert t) inss)
  else List.iter (fun e -> if insert t e then process_inserts t [ e ]) inss

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  Obs.with_span t.obs "iso.process" (fun () ->
      Tracer.with_span t.trace "iso.process" (fun () -> process t updates));
  flush_delta t

let add_node t label =
  let v = Digraph.add_node t.g label in
  if Pattern.n_nodes t.p = 1 && Pattern.label t.p 0 = label then begin
    if Pattern.n_edges t.p = 0 then
      add_match t (Vf2.canon_of t.p [| v |]) [| v |]
    (* A single node with a self-loop pattern needs the loop edge, which
       does not exist yet. *)
  end;
  v

let init ?(grouped = true) ?(obs = Obs.noop) ?(trace = Tracer.noop) g p =
  Digraph.instrument ~obs ~trace g;
  let t =
    {
      g;
      p;
      obs;
      trace;
      grouped;
      anchors = List.map (fun e -> (e, Vf2.plan p e)) (Pattern.edges p);
      matches = Hashtbl.create 256;
      edge_index = Hashtbl.create 256;
      gained = Hashtbl.create 64;
      lost = Hashtbl.create 64;
      st = { rematches = 0 };
    }
  in
  List.iter
    (fun m -> add_match t (Vf2.canon_of p m) m)
    (Vf2.find_all g p);
  Hashtbl.reset t.gained;
  (* The initial batch match is not an update: its events (one Aff_enter
     per pre-existing match) are not provenance, so drop them. *)
  Tracer.clear t.trace;
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
