module Digraph = Ig_graph.Digraph
module Nfa = Ig_nfa.Nfa
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer
module Delta_set = Ig_graph.Delta_set

type node = Digraph.node
type key = Pgraph.key

type delta = { added : (node * node) list; removed : (node * node) list }

module PQ = Ig_graph.Pqueue.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Int.hash
end)

(* Per-source state: the pmark_e distances, plus the per-node count of
   accepting-state entries (a node is a match for this source iff its count
   is positive). *)
type source_state = {
  marks : (key, int) Hashtbl.t;
  accs : (node, int) Hashtbl.t;
}

type t = {
  p : Pgraph.t;
  obs : Obs.t;
  srcs : (node, source_state) Hashtbl.t;
  at_node : (node, (node, int) Hashtbl.t) Hashtbl.t;
      (* v -> sources holding an entry at v (with entry counts): the paper
         stores markings per node (v.pmark(u)), so an updated edge touches
         only the sources that actually reach it — this index realizes that
         without scanning every source. *)
  delta : (node * node, unit) Delta_set.t; (* matches gained/lost *)
  mutable n_matches : int;
}

let graph t = Pgraph.graph t.p
let obs t = t.obs

let bump_at_node t u v dir =
  let h =
    match Hashtbl.find_opt t.at_node v with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace t.at_node v h;
        h
  in
  let c = dir + Option.value ~default:0 (Hashtbl.find_opt h u) in
  if c > 0 then Hashtbl.replace h u c else Hashtbl.remove h u

let add_entry t u ss k d =
  if not (Hashtbl.mem ss.marks k) then
    bump_at_node t u (Pgraph.node_of t.p k) 1;
  Hashtbl.replace ss.marks k d;
  if Pgraph.is_accepting t.p k then begin
    let v = Pgraph.node_of t.p k in
    let c = 1 + Option.value ~default:0 (Hashtbl.find_opt ss.accs v) in
    Hashtbl.replace ss.accs v c;
    if c = 1 then begin
      t.n_matches <- t.n_matches + 1;
      Delta_set.gain t.delta (u, v) ()
    end
  end

let remove_entry t u ss k =
  if Hashtbl.mem ss.marks k then bump_at_node t u (Pgraph.node_of t.p k) (-1);
  Hashtbl.remove ss.marks k;
  if Pgraph.is_accepting t.p k then begin
    let v = Pgraph.node_of t.p k in
    let c = Option.value ~default:0 (Hashtbl.find_opt ss.accs v) - 1 in
    if c > 0 then Hashtbl.replace ss.accs v c
    else begin
      Hashtbl.remove ss.accs v;
      t.n_matches <- t.n_matches - 1;
      Delta_set.lose t.delta (u, v) ()
    end
  end

let compare_pair (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

let is_initial t u k =
  Pgraph.node_of t.p k = u
  && List.mem (Pgraph.state_of t.p k) (Pgraph.initial_states t.p u)

(* One Ramalingam–Reps pass for source [u]. The graph has already been
   updated; [dels]/[inss] are the unit updates that actually took effect. *)
let process_source t u ss ~dels ~inss =
  let p = t.p in
  (* Phase A: identAff. *)
  let affected = Hashtbl.create 16 in
  let stack = Stack.create () in
  List.iter
    (fun (v, w) ->
      (* Heads of deleted product edges are the initial candidates. *)
      for s = 0 to Nfa.n_states (Pgraph.nfa p) - 1 do
        if Hashtbl.mem ss.marks (Pgraph.key p v s) then
          List.iter
            (fun s' ->
              let k = Pgraph.key p w s' in
              if Hashtbl.mem ss.marks k then Stack.push k stack)
            (Pgraph.succ_keys_of_edge p s w)
      done)
    dels;
  while not (Stack.is_empty stack) do
    let k = Stack.pop stack in
    Obs.incr t.obs Obs.K.nodes_visited;
    if
      (not (Hashtbl.mem affected k))
      && Hashtbl.mem ss.marks k
      && not (is_initial t u k)
    then begin
      let d = Hashtbl.find ss.marks k in
      let supported = ref false in
      Pgraph.iter_pred p k (fun k' ->
          Obs.incr t.obs Obs.K.edges_relaxed;
          if
            (not !supported)
            && (not (Hashtbl.mem affected k'))
            &&
            match Hashtbl.find_opt ss.marks k' with
            | Some d' -> d' + 1 = d
            | None -> false
          then supported := true);
      if not !supported then begin
        Hashtbl.replace affected k ();
        Obs.aff_enter t.obs ~node:(Pgraph.node_of p k)
          ~rule:Tracer.Rpq_support_lost;
        (* Successors may have lost their support through [k]. *)
        Pgraph.iter_succ p k (fun k'' ->
            if Hashtbl.mem ss.marks k'' then Stack.push k'' stack)
      end
    end
  done;
  (* Phase B: remove affected entries; enqueue their potential distances
     computed from unaffected in-neighbors. Iterated in key order: the
     frontier_expand events and queue insertions must be seed-stable. *)
  let q = PQ.create () in
  List.iter
    (fun (k, ()) ->
      let best = ref max_int in
      Pgraph.iter_pred p k (fun k' ->
          Obs.incr t.obs Obs.K.edges_relaxed;
          if not (Hashtbl.mem affected k') then
            match Hashtbl.find_opt ss.marks k' with
            | Some d' -> if d' + 1 < !best then best := d' + 1
            | None -> ());
      remove_entry t u ss k;
      if !best < max_int then begin
        Obs.frontier_expand t.obs ~node:(Pgraph.node_of p k);
        PQ.insert q k !best
      end)
    (Obs.sorted_bindings ~compare:Int.compare affected);
  (* Phase C: insertions with unaffected tails. *)
  List.iter
    (fun (v, w) ->
      for s = 0 to Nfa.n_states (Pgraph.nfa p) - 1 do
        match Hashtbl.find_opt ss.marks (Pgraph.key p v s) with
        | None -> ()
        | Some dv ->
            List.iter
              (fun s' ->
                let kw = Pgraph.key p w s' in
                let cand = dv + 1 in
                match Hashtbl.find_opt ss.marks kw with
                | Some d when d <= cand -> ()
                | _ ->
                    Obs.frontier_expand t.obs ~node:w;
                    PQ.insert q kw cand)
              (Pgraph.succ_keys_of_edge p s w)
      done)
    inss;
  (* Phase D: settle exact distances in increasing order. *)
  let rec fix () =
    match PQ.pull_min q with
    | None -> ()
    | Some (k, d) ->
        Obs.incr t.obs Obs.K.nodes_visited;
        let relax () =
          Pgraph.iter_succ p k (fun k' ->
              Obs.incr t.obs Obs.K.edges_relaxed;
              match Hashtbl.find_opt ss.marks k' with
              | Some d'' when d'' <= d + 1 -> ()
              | _ ->
                  Obs.frontier_expand t.obs ~node:(Pgraph.node_of p k');
                  PQ.insert q k' (d + 1))
        in
        (match Hashtbl.find_opt ss.marks k with
        | Some d' when d' <= d -> () (* stale queue entry *)
        | Some d' ->
            if Obs.tracing t.obs then
              Obs.cert_rewrite t.obs ~node:(Pgraph.node_of p k)
                ~field:(Printf.sprintf "pmark(src=%d,state=%d)" u
                          (Pgraph.state_of p k))
                ~before:(Printf.sprintf "dist=%d" d')
                ~after:(Printf.sprintf "dist=%d" d);
            Hashtbl.replace ss.marks k d;
            Obs.incr t.obs Obs.K.cert_rewrites;
            relax ()
        | None ->
            if Obs.tracing t.obs then begin
              (* A marking born outside AFF: an inserted edge extended the
                 reach of source [u] — the distance-decrease rule. Its
                 work is counted as a rewrite below, not as |AFF|. *)
              if not (Hashtbl.mem affected k) then
                Obs.emit t.obs
                  (Tracer.Aff_enter
                     {
                       node = Pgraph.node_of p k;
                       rule = Tracer.Rpq_dist_decrease;
                     });
              Obs.cert_rewrite t.obs ~node:(Pgraph.node_of p k)
                ~field:(Printf.sprintf "pmark(src=%d,state=%d)" u
                          (Pgraph.state_of p k))
                ~before:"absent"
                ~after:(Printf.sprintf "dist=%d" d)
            end;
            add_entry t u ss k d;
            Obs.incr t.obs Obs.K.cert_rewrites;
            relax ());
        fix ()
  in
  fix ()

(* Only sources with a marking at the tail of an updated edge can be
   affected: a deleted product edge lies on a path from u only if u reaches
   (v, s) for some s, and an inserted edge extends only such paths. Each
   relevant source receives just the updates whose tail it marks, so a
   batch costs Σ_u |ΔG restricted to u's reach|, not |sources| × |ΔG|. *)
let process_all t ~dels ~inss =
  Obs.with_span t.obs "rpq.process" @@ fun () ->
  let per_source = Hashtbl.create 16 in
  let note side (v, w) =
    match Hashtbl.find_opt t.at_node v with
    | None -> ()
    | Some h ->
        (* Order-free: fills per-source buckets; the per-source update
           lists keep the caller's update order. *)
        (Hashtbl.iter [@lint.allow "D2"])
          (fun u _ ->
            let dels, inss =
              match Hashtbl.find_opt per_source u with
              | Some lists -> lists
              | None ->
                  let lists = (ref [], ref []) in
                  Hashtbl.replace per_source u lists;
                  lists
            in
            let target = match side with `D -> dels | `I -> inss in
            target := (v, w) :: !target)
          h
  in
  List.iter (note `D) dels;
  List.iter (note `I) inss;
  (* Sources in ascending order: their processing order is trace-visible. *)
  List.iter
    (fun (u, (dels, inss)) ->
      process_source t u (Hashtbl.find t.srcs u) ~dels:!dels ~inss:!inss)
    (Obs.sorted_bindings ~compare:Int.compare per_source)

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  let dels, inss = Digraph.apply_net (graph t) updates in
  process_all t ~dels ~inss;
  let added, removed =
    Delta_set.flush t.delta ~obs:t.obs ~compare:compare_pair
  in
  { added = List.map fst added; removed = List.map fst removed }

let init ?(obs = Obs.noop) g a =
  Digraph.instrument ~obs g;
  let p = Pgraph.make g a in
  let t =
    {
      p;
      obs;
      srcs = Hashtbl.create 64;
      at_node = Hashtbl.create 256;
      delta = Delta_set.create ();
      n_matches = 0;
    }
  in
  List.iter
    (fun u ->
      let ss = { marks = Hashtbl.create 16; accs = Hashtbl.create 8 } in
      Hashtbl.replace t.srcs u ss;
      (* Order-free: entry insertions commute; nothing is traced here. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun k d -> add_entry t u ss k d)
        (Batch.source_marks p u))
    (Pgraph.sources p);
  Delta_set.clear t.delta;
  t

let create ?obs g q =
  init ?obs g (Nfa.compile (Digraph.interner g) q)

let matches t =
  (* User-visible answer: lexicographic (source, target) order. *)
  List.concat_map
    (fun (u, ss) ->
      List.map
        (fun (v, _) -> (u, v))
        (Obs.sorted_bindings ~compare:Int.compare ss.accs))
    (Obs.sorted_bindings ~compare:Int.compare t.srcs)

let n_matches t = t.n_matches

let is_match t u v =
  match Hashtbl.find_opt t.srcs u with
  | None -> false
  | Some ss -> Hashtbl.mem ss.accs v

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let g = graph t in
  (* Every source is registered, and no non-source is. *)
  Digraph.iter_nodes
    (fun u ->
      let reg = Hashtbl.mem t.srcs u and src = Pgraph.is_source t.p u in
      if reg <> src then fail "source registration wrong at node %d" u)
    g;
  let total = ref 0 in
  (Hashtbl.iter [@lint.allow "D2"])
    (fun u ss ->
      let fresh = Batch.source_marks t.p u in
      if Hashtbl.length fresh <> Hashtbl.length ss.marks then
        fail "source %d: %d marks, expected %d" u (Hashtbl.length ss.marks)
          (Hashtbl.length fresh);
      (Hashtbl.iter [@lint.allow "D2"])
        (fun k d ->
          match Hashtbl.find_opt ss.marks k with
          | Some d' when d' = d -> ()
          | Some d' ->
              fail "source %d: key %d dist %d, expected %d" u k d' d
          | None -> fail "source %d: key %d missing" u k)
        fresh;
      (* Accepting counts consistent with marks. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v c ->
          let real = ref 0 in
          (Hashtbl.iter [@lint.allow "D2"])
            (fun k _ ->
              if Pgraph.node_of t.p k = v && Pgraph.is_accepting t.p k then
                incr real)
            ss.marks;
          if !real <> c then fail "source %d: acc count at %d is %d not %d" u v c !real;
          total := !total + if c > 0 then 1 else 0)
        ss.accs)
    t.srcs;
  if !total <> t.n_matches then
    fail "n_matches %d, expected %d" t.n_matches !total;
  (* The node -> sources index counts exactly the live entries. *)
  let expect = Hashtbl.create 64 in
  (Hashtbl.iter [@lint.allow "D2"])
    (fun u ss ->
      (Hashtbl.iter [@lint.allow "D2"])
        (fun k _ ->
          let key = (Pgraph.node_of t.p k, u) in
          Hashtbl.replace expect key
            (1 + Option.value ~default:0 (Hashtbl.find_opt expect key)))
        ss.marks)
    t.srcs;
  let total_idx = ref 0 in
  (Hashtbl.iter [@lint.allow "D2"])
    (fun v h ->
      (Hashtbl.iter [@lint.allow "D2"])
        (fun u c ->
          incr total_idx;
          if Option.value ~default:0 (Hashtbl.find_opt expect (v, u)) <> c
          then fail "at_node index wrong at (%d, %d)" v u)
        h)
    t.at_node;
  if !total_idx <> Hashtbl.length expect then fail "at_node index size wrong"

let best_accepting t u v =
  match Hashtbl.find_opt t.srcs u with
  | None -> None
  | Some ss ->
      let best = ref None in
      (* |S| is tiny (|Q|+1): scan the states at v. *)
      for s = 0 to Nfa.n_states (Pgraph.nfa t.p) - 1 do
        let k = Pgraph.key t.p v s in
        if Pgraph.is_accepting t.p k then
          match Hashtbl.find_opt ss.marks k with
          | Some d -> (
              match !best with
              | Some (d', _) when d' <= d -> ()
              | _ -> best := Some (d, k))
          | None -> ()
      done;
      !best

let distance t u v = Option.map fst (best_accepting t u v)

let witness_path t u v =
  match (best_accepting t u v, Hashtbl.find_opt t.srcs u) with
  | Some (d0, k0), Some ss ->
      (* Walk mpre chains: a predecessor at distance d-1 always exists. *)
      let rec back k d acc =
        if d = 0 then Some (Pgraph.node_of t.p k :: acc)
        else begin
          let prev = ref None in
          Pgraph.iter_pred t.p k (fun k' ->
              if !prev = None then
                match Hashtbl.find_opt ss.marks k' with
                | Some d' when d' = d - 1 -> prev := Some k'
                | _ -> ());
          match !prev with
          | None -> None (* impossible on consistent markings *)
          | Some k' -> back k' (d - 1) (Pgraph.node_of t.p k :: acc)
        end
      in
      back k0 d0 []
  | _ -> None

(* Canonical text dump of the per-source markings. Product-graph keys are
   decoded to (node, state) pairs so the sections survive key-encoding
   changes; sorted iteration keeps the bytes hash-seed independent. *)
let cert_snapshot t =
  let pm = Buffer.create 256 in
  let ac = Buffer.create 128 in
  List.iter
    (fun (u, ss) ->
      List.iter
        (fun (k, d) ->
          Buffer.add_string pm
            (Printf.sprintf "src%d v%d s%d dist=%d\n" u
               (Pgraph.node_of t.p k) (Pgraph.state_of t.p k) d))
        (Obs.sorted_bindings ~compare:Int.compare ss.marks);
      List.iter
        (fun (v, c) ->
          Buffer.add_string ac (Printf.sprintf "src%d v%d %d\n" u v c))
        (Obs.sorted_bindings ~compare:Int.compare ss.accs))
    (Obs.sorted_bindings ~compare:Int.compare t.srcs);
  [
    ("pmark", Buffer.contents pm);
    ("accs", Buffer.contents ac);
    ("matches", Printf.sprintf "%d\n" t.n_matches);
  ]
