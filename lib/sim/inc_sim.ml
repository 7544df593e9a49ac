module Digraph = Ig_graph.Digraph
module Pattern = Ig_iso.Pattern
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer
module Delta_set = Ig_graph.Delta_set

type node = Digraph.node

type delta = { added : (int * node) list; removed : (int * node) list }

type t = {
  g : Digraph.t;
  p : Pattern.t;
  obs : Obs.t;
  r : Sim.relation;
  cnt : (node, int) Hashtbl.t array; (* per pattern edge id, for v ∈ r.(u) *)
  out_edges : (int * int) list array;
  in_edges : (int * int) list array;
  delta : (int * node, unit) Delta_set.t; (* pairs gained/lost *)
  mutable n_pairs : int;
}

let graph t = t.g
let obs t = t.obs
let relation t = t.r
let mem t u v = Sim.mem t.r u v
let n_pairs t = t.n_pairs

let compare_pair (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

(* A pair the cascade removed from R: ΔO, provenance and counters. *)
let removed t u v =
  t.n_pairs <- t.n_pairs - 1;
  Delta_set.lose t.delta (u, v) ();
  Obs.aff_enter t.obs ~node:v ~rule:Tracer.Sim_support_zero;
  Obs.incr t.obs Obs.K.cert_rewrites;
  if Obs.tracing t.obs then
    Obs.cert_rewrite t.obs ~node:v
      ~field:(Printf.sprintf "sim(%d)" u)
      ~before:"member" ~after:"removed"

(* One unit of support, [d] = ±1, for every pattern edge (u, u') that the
   graph edge (a, b) carries between (u, a) and (u', b) in R. A counter
   that reaches 0 queues its pair. *)
let support t doomed d (a, b) =
  Array.iteri
    (fun u ls ->
      if Hashtbl.mem t.r.(u) a then
        List.iter
          (fun (e, u') ->
            if Hashtbl.mem t.r.(u') b then begin
              let c = Hashtbl.find t.cnt.(e) a + d in
              Hashtbl.replace t.cnt.(e) a c;
              if c = 0 then begin
                Obs.frontier_expand t.obs ~node:a;
                Stack.push (u, a) doomed
              end
            end)
          ls)
    t.out_edges

(* The pairs a batch of insertions can add to R. Seeds are (x, a) for an
   inserted (a, b) and a pattern edge (x, y) whose labels fit, with a ∉
   R(x); the closure grows backward from (u, v) to (pu, p) over a pattern
   edge (pu, u) and a graph predecessor p of v that carries pu's label and
   is not in R(pu). This is exact. R is now the largest simulation on the
   new graph inside R_0, the relation at batch start. Let X be the pairs of
   the new greatest simulation outside R and outside the closure. None of
   their support edges is new (they would be seeds) and none of their
   supports is in the closure (they would have been reached), so R_0 ∪ X
   is a simulation on the graph before the batch, and X ⊆ R_0. R ∪ X is
   then a simulation on the new graph inside R_0, so X ⊆ R: X is empty.
   Returns the candidate sets per pattern node, or [None] without seeds. *)
let closure t inss =
  let sym = Ig_iso.Vf2.symbols t.g t.p in
  let cand = ref None and visited = ref 0 and relaxed = ref 0 in
  let stack = Stack.create () in
  let add u v =
    let c =
      match !cand with
      | Some c -> c
      | None ->
          let c =
            Array.init (Pattern.n_nodes t.p) (fun _ -> Hashtbl.create 16)
          in
          cand := Some c;
          c
    in
    if not (Hashtbl.mem c.(u) v) then begin
      Hashtbl.replace c.(u) v ();
      incr visited;
      Stack.push (u, v) stack
    end
  in
  List.iter
    (fun (a, b) ->
      let la = Digraph.label t.g a and lb = Digraph.label t.g b in
      Array.iteri
        (fun x ls ->
          if sym.(x) = la && not (Hashtbl.mem t.r.(x) a) then
            List.iter (fun (_, y) -> if sym.(y) = lb then add x a) ls)
        t.out_edges)
    inss;
  while not (Stack.is_empty stack) do
    let u, v = Stack.pop stack in
    List.iter
      (fun (_, pu) ->
        Digraph.iter_pred
          (fun p ->
            incr relaxed;
            if Digraph.label t.g p = sym.(pu) && not (Hashtbl.mem t.r.(pu) p)
            then add pu p)
          t.g v)
      t.in_edges.(u)
  done;
  Obs.add t.obs Obs.K.nodes_visited !visited;
  Obs.add t.obs Obs.K.edges_relaxed !relaxed;
  !cand

(* The support-count fixpoint over the candidates alone, with R fixed as
   support (insertions never remove a pair from R). Prunes [cand] in place
   to the pairs that join R and returns their support counters, which are
   already counted against the final relation. A pair leaves [cand] when it
   is queued, so it is queued and propagated once: the counters do not
   depend on the visit order. *)
let fixpoint t cand =
  let ccnt = Array.init (Pattern.n_edges t.p) (fun _ -> Hashtbl.create 16) in
  let member u w = Hashtbl.mem t.r.(u) w || Hashtbl.mem cand.(u) w in
  let doomed = ref [] and relaxed = ref 0 and pushes = ref 0 in
  Array.iteri
    (fun u set ->
      (* Order-free: every count is taken against the full candidate set. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          List.iter
            (fun (e, u') ->
              let c = ref 0 in
              Digraph.iter_succ
                (fun w ->
                  incr relaxed;
                  if member u' w then incr c)
                t.g v;
              Hashtbl.replace ccnt.(e) v !c;
              if !c = 0 then doomed := (u, v) :: !doomed)
            t.out_edges.(u))
        set)
    cand;
  let stack = Stack.create () in
  let queue u v =
    if Hashtbl.mem cand.(u) v then begin
      Hashtbl.remove cand.(u) v;
      incr pushes;
      Stack.push (u, v) stack
    end
  in
  List.iter (fun (u, v) -> queue u v) !doomed;
  while not (Stack.is_empty stack) do
    let u, v = Stack.pop stack in
    List.iter
      (fun (e, tp) ->
        Digraph.iter_pred
          (fun p ->
            incr relaxed;
            if Hashtbl.mem cand.(tp) p then begin
              let c = Hashtbl.find ccnt.(e) p - 1 in
              Hashtbl.replace ccnt.(e) p c;
              if c = 0 then queue tp p
            end)
          t.g v)
      t.in_edges.(u)
  done;
  Obs.add t.obs Obs.K.edges_relaxed !relaxed;
  Obs.add t.obs Obs.K.queue_pushes !pushes;
  ccnt

(* Survivors join R. Their own counters come from the fixpoint; each one
   also supports its predecessors already in R. *)
let merge t survivors ccnt =
  let joined =
    List.concat
      (List.init (Pattern.n_nodes t.p) (fun u ->
           (* Sorted: revalidation order reaches the trace. *)
           List.map (fun (v, ()) -> (u, v))
             (Obs.sorted_bindings ~compare:Int.compare survivors.(u))))
  in
  let relaxed = ref 0 in
  List.iter
    (fun (u, v) ->
      List.iter
        (fun (e, tp) ->
          Digraph.iter_pred
            (fun p ->
              incr relaxed;
              if Hashtbl.mem t.r.(tp) p then
                Hashtbl.replace t.cnt.(e) p (Hashtbl.find t.cnt.(e) p + 1))
            t.g v)
        t.in_edges.(u))
    joined;
  Obs.add t.obs Obs.K.edges_relaxed !relaxed;
  List.iter
    (fun (u, v) ->
      Hashtbl.replace t.r.(u) v ();
      List.iter
        (fun (e, _) -> Hashtbl.replace t.cnt.(e) v (Hashtbl.find ccnt.(e) v))
        t.out_edges.(u);
      t.n_pairs <- t.n_pairs + 1;
      Delta_set.gain t.delta (u, v) ();
      Obs.aff_enter t.obs ~node:v ~rule:Tracer.Sim_revalidated;
      Obs.incr t.obs Obs.K.cert_rewrites;
      if Obs.tracing t.obs then
        Obs.cert_rewrite t.obs ~node:v
          ~field:(Printf.sprintf "sim(%d)" u)
          ~before:"absent" ~after:"member")
    joined

(* Support moves against R as it stood at batch start. Insertions add
   theirs before deletions take theirs away, so a counter that reaches 0
   stays there and its pair leaves R in the one cascade. *)
let process t updates =
  let dels, inss = Digraph.apply_net t.g updates in
  let doomed = Stack.create () in
  List.iter (support t doomed 1) inss;
  List.iter (support t doomed (-1)) dels;
  Sim.cascade ~obs:t.obs ~on_remove:(removed t) (t.out_edges, t.in_edges) t.g
    t.r t.cnt doomed;
  if inss <> [] then
    match closure t inss with
    | None -> ()
    | Some cand -> merge t cand (fixpoint t cand)

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  Obs.with_span t.obs "sim.process" (fun () -> process t updates);
  (* Pair order: the delta lists are consumer-visible. *)
  let added, removed =
    Delta_set.flush t.delta ~obs:t.obs ~compare:compare_pair
  in
  { added = List.map fst added; removed = List.map fst removed }

(* The counters of the prune that computed R are exact for R. *)
let init ?(obs = Obs.noop) g p =
  Digraph.instrument ~obs g;
  let r = Sim.candidates p g in
  let cnt = Sim.prune p g r in
  let out_edges, in_edges = Sim.edge_index p in
  {
    g;
    p;
    obs;
    r;
    cnt;
    out_edges;
    in_edges;
    delta = Delta_set.create ();
    n_pairs = Array.fold_left (fun n set -> n + Hashtbl.length set) 0 r;
  }

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let fresh = Sim.run t.p t.g in
  Array.iteri
    (fun u set ->
      if Hashtbl.length set <> Hashtbl.length t.r.(u) then
        fail "pattern node %d: %d members, expected %d" u
          (Hashtbl.length t.r.(u))
          (Hashtbl.length set);
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          if not (Hashtbl.mem t.r.(u) v) then fail "missing pair (%d, %d)" u v)
        set)
    fresh;
  (* Counter consistency. *)
  Array.iteri
    (fun u set ->
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          List.iter
            (fun (e, u') ->
              let real = Sim.support_count t.g t.r u' v in
              match Hashtbl.find_opt t.cnt.(e) v with
              | Some c when c = real -> ()
              | Some c -> fail "cnt(%d, %d) = %d, expected %d" e v c real
              | None -> fail "cnt(%d, %d) missing" e v)
            t.out_edges.(u))
        set;
      List.iter
        (fun (e, _) ->
          if Hashtbl.length t.cnt.(e) <> Hashtbl.length set then
            fail "cnt(%d) holds pairs outside R" e)
        t.out_edges.(u))
    t.r;
  let total = Array.fold_left (fun acc s -> acc + Hashtbl.length s) 0 t.r in
  if total <> t.n_pairs then fail "n_pairs %d, expected %d" t.n_pairs total

(* Canonical text dump of the simulation relation and support counters,
   hash-seed independent via sorted iteration. *)
let cert_snapshot t =
  let rel = Buffer.create 256 in
  Array.iteri
    (fun u h ->
      List.iter
        (fun (v, ()) -> Buffer.add_string rel (Printf.sprintf "u%d v%d\n" u v))
        (Obs.sorted_bindings ~compare:Int.compare h))
    t.r;
  let cnt = Buffer.create 256 in
  Array.iteri
    (fun e h ->
      List.iter
        (fun (v, c) ->
          Buffer.add_string cnt (Printf.sprintf "e%d v%d %d\n" e v c))
        (Obs.sorted_bindings ~compare:Int.compare h))
    t.cnt;
  [
    ("rel", Buffer.contents rel);
    ("cnt", Buffer.contents cnt);
    ("pairs", Printf.sprintf "%d\n" t.n_pairs);
  ]
