module Digraph = Ig_graph.Digraph
module Pattern = Ig_iso.Pattern
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer

type node = Digraph.node

type delta = { added : (int * node) list; removed : (int * node) list }

type t = {
  g : Digraph.t;
  p : Pattern.t;
  obs : Obs.t;
  trace : Tracer.t;
  r : Sim.relation;
  cnt : (node, int) Hashtbl.t array; (* per pattern edge id, for v ∈ r.(u) *)
  out_edges : (int * int) list array;
  in_edges : (int * int) list array;
  gained : (int * node, unit) Hashtbl.t;
  lost : (int * node, unit) Hashtbl.t;
  mutable n_pairs : int;
}

let graph t = t.g
let pattern t = t.p
let obs t = t.obs
let trace t = t.trace
let relation t = t.r
let mem t u v = Sim.mem t.r u v
let n_pairs t = t.n_pairs

let note_gain t u v =
  t.n_pairs <- t.n_pairs + 1;
  if Hashtbl.mem t.lost (u, v) then Hashtbl.remove t.lost (u, v)
  else Hashtbl.replace t.gained (u, v) ()

let note_lose t u v =
  t.n_pairs <- t.n_pairs - 1;
  if Hashtbl.mem t.gained (u, v) then Hashtbl.remove t.gained (u, v)
  else Hashtbl.replace t.lost (u, v) ()

let compare_pair (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

let flush_delta t =
  (* Pair order: the delta lists are consumer-visible. *)
  let added = List.map fst (Obs.sorted_bindings ~compare:compare_pair t.gained) in
  let removed = List.map fst (Obs.sorted_bindings ~compare:compare_pair t.lost) in
  Obs.note_changed_output t.obs (List.length added + List.length removed);
  Hashtbl.reset t.gained;
  Hashtbl.reset t.lost;
  { added; removed }

let support_count t u' v = Sim.support_count t.g t.r u' v

(* Decremental cascade: remove pairs whose support hit zero. *)
let cascade t doomed =
  let stack = Stack.create () in
  List.iter (fun x -> Stack.push x stack) doomed;
  while not (Stack.is_empty stack) do
    let u, v = Stack.pop stack in
    Obs.incr t.obs Obs.K.nodes_visited;
    if Hashtbl.mem t.r.(u) v then begin
      Hashtbl.remove t.r.(u) v;
      List.iter (fun (e, _) -> Hashtbl.remove t.cnt.(e) v) t.out_edges.(u);
      note_lose t u v;
      Obs.incr t.obs Obs.K.aff;
      Obs.incr t.obs Obs.K.cert_rewrites;
      if Tracer.enabled t.trace then begin
        Tracer.aff_enter t.trace ~node:v ~rule:Tracer.Sim_support_zero;
        Tracer.cert_rewrite t.trace ~node:v
          ~field:(Printf.sprintf "sim(%d)" u)
          ~before:"member" ~after:"removed"
      end;
      List.iter
        (fun (e, tp) ->
          Digraph.iter_pred
            (fun pnode ->
              Obs.incr t.obs Obs.K.edges_relaxed;
              if Hashtbl.mem t.r.(tp) pnode then begin
                match Hashtbl.find_opt t.cnt.(e) pnode with
                | Some c ->
                    Hashtbl.replace t.cnt.(e) pnode (c - 1);
                    if c - 1 = 0 then begin
                      Obs.incr t.obs Obs.K.queue_pushes;
                      Tracer.frontier_expand t.trace ~node:pnode;
                      Stack.push (tp, pnode) stack
                    end
                | None -> ()
              end)
            t.g v)
        t.in_edges.(u)
    end
  done

let delete t (a, b) =
  if Digraph.remove_edge t.g a b then begin
    Obs.note_changed_input t.obs 1;
    let doomed = ref [] in
    (* Pattern edges whose support ran through the deleted graph edge. *)
    Array.iteri
      (fun u ls ->
        List.iter
          (fun (e, u') ->
            if Hashtbl.mem t.r.(u') b && Hashtbl.mem t.r.(u) a then begin
              match Hashtbl.find_opt t.cnt.(e) a with
              | Some c ->
                  Hashtbl.replace t.cnt.(e) a (c - 1);
                  if c - 1 = 0 then doomed := (u, a) :: !doomed
              | None -> ()
            end)
          ls)
      t.out_edges;
    cascade t !doomed
  end

let bump cnt v =
  Hashtbl.replace cnt v (1 + Option.value ~default:0 (Hashtbl.find_opt cnt v))

(* The pairs a batch of insertions can add to R. Seeds are (x, a) for an
   inserted (a, b) and a pattern edge (x, y) whose labels fit, with a ∉
   R(x); the closure grows backward from (u, v) to (pu, p) over a pattern
   edge (pu, u) and a graph predecessor p of v that carries pu's label and
   is not in R(pu). This is exact: the pairs of the new greatest simulation
   outside R and outside the closure, together with R, would form a
   simulation on the graph before the insertions (none of their support
   edges is new, or they would be seeds), so they are already in R.
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
              if Hashtbl.mem t.r.(tp) p then bump t.cnt.(e) p)
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
      note_gain t u v;
      Obs.incr t.obs Obs.K.aff;
      Obs.incr t.obs Obs.K.cert_rewrites;
      if Tracer.enabled t.trace then begin
        Tracer.aff_enter t.trace ~node:v ~rule:Tracer.Sim_revalidated;
        Tracer.cert_rewrite t.trace ~node:v
          ~field:(Printf.sprintf "sim(%d)" u)
          ~before:"absent" ~after:"member"
      end)
    joined

(* One pass per batch over its net effect: the deletions' cascades, then
   all insertions, one closure and one fixpoint. *)
let process t updates =
  let dels, inss = Digraph.net_effect updates in
  List.iter (delete t) dels;
  let inss = List.filter (fun (a, b) -> Digraph.add_edge t.g a b) inss in
  if inss <> [] then begin
    List.iter
      (fun (a, b) ->
        Obs.note_changed_input t.obs 1;
        (* Existing pairs gain support through the new edge. *)
        Array.iteri
          (fun u ls ->
            List.iter
              (fun (e, u') ->
                if Hashtbl.mem t.r.(u') b && Hashtbl.mem t.r.(u) a then
                  bump t.cnt.(e) a)
              ls)
          t.out_edges)
      inss;
    match closure t inss with
    | None -> ()
    | Some cand -> merge t cand (fixpoint t cand)
  end

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  Obs.with_span t.obs "sim.process" (fun () ->
      Tracer.with_span t.trace "sim.process" (fun () -> process t updates));
  flush_delta t

let init ?(obs = Obs.noop) ?(trace = Tracer.noop) g p =
  Digraph.instrument ~obs ~trace g;
  let r = Sim.run p g in
  let out_edges, in_edges = Sim.edge_index p in
  let cnt =
    Array.init (Pattern.n_edges p) (fun _ -> Hashtbl.create 32)
  in
  let t =
    {
      g;
      p;
      obs;
      trace;
      r;
      cnt;
      out_edges;
      in_edges;
      gained = Hashtbl.create 32;
      lost = Hashtbl.create 32;
      n_pairs = 0;
    }
  in
  Array.iteri
    (fun u set ->
      (* Order-free: counter setup commutes. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          t.n_pairs <- t.n_pairs + 1;
          List.iter
            (fun (e, u') -> Hashtbl.replace cnt.(e) v (support_count t u' v))
            out_edges.(u))
        set)
    r;
  t

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
              let real = support_count t u' v in
              match Hashtbl.find_opt t.cnt.(e) v with
              | Some c when c = real -> ()
              | Some c -> fail "cnt(%d, %d) = %d, expected %d" e v c real
              | None -> fail "cnt(%d, %d) missing" e v)
            t.out_edges.(u))
        set)
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
