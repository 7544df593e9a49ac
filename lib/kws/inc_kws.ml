module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer
module Delta_set = Ig_graph.Delta_set

type node = Digraph.node

type delta = { added : node list; removed : node list }

module PQ = Ig_graph.Pqueue.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Int.hash
end)

type t = {
  g : Digraph.t;
  mutable q : Batch.query;
  obs : Obs.t;
  kd : (node, Batch.entry) Hashtbl.t array;
  mcount : (node, int) Hashtbl.t; (* node -> #keywords within bound *)
  mutable n_matches : int;
  delta : (node, unit) Delta_set.t; (* match roots gained/lost *)
}

let graph t = t.g
let query t = t.q
let obs t = t.obs

let m t = Array.length t.kd
let bound t = t.q.Batch.bound

let set_entry t i v e =
  let kd = t.kd.(i) in
  if not (Hashtbl.mem kd v) then begin
    let c = 1 + Option.value ~default:0 (Hashtbl.find_opt t.mcount v) in
    Hashtbl.replace t.mcount v c;
    if c = m t then begin
      t.n_matches <- t.n_matches + 1;
      Delta_set.gain t.delta v ()
    end
  end;
  Hashtbl.replace kd v e

let remove_entry t i v =
  let kd = t.kd.(i) in
  if Hashtbl.mem kd v then begin
    Hashtbl.remove kd v;
    let c = Option.value ~default:0 (Hashtbl.find_opt t.mcount v) - 1 in
    if c > 0 then Hashtbl.replace t.mcount v c else Hashtbl.remove t.mcount v;
    if c = m t - 1 then begin
      t.n_matches <- t.n_matches - 1;
      Delta_set.lose t.delta v ()
    end
  end

let flush_delta t =
  let added, removed =
    Delta_set.flush t.delta ~obs:t.obs ~compare:Int.compare
  in
  { added = List.map fst added; removed = List.map fst removed }

(* One combined deletion/insertion pass for keyword [i] (paper IncKWS;
   with singleton update lists it degenerates to IncKWS+ / IncKWS−). The
   graph has already been updated. *)
let process_keyword t i ~dels ~inss =
  let kd = t.kd.(i) in
  let b = bound t in
  (* Phase 1 (IncKWS− lines 1-6): nodes whose chosen path used a deleted
     edge, found backward through the next-pointer tree. *)
  let affected = Hashtbl.create 16 in
  let stack = Stack.create () in
  List.iter
    (fun (v, w) ->
      match Hashtbl.find_opt kd v with
      | Some e when e.Batch.next = w -> Stack.push v stack
      | _ -> ())
    dels;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    Obs.incr t.obs Obs.K.nodes_visited;
    if (not (Hashtbl.mem affected v)) && Hashtbl.mem kd v then begin
      Hashtbl.replace affected v ();
      Obs.aff_enter t.obs ~node:v ~rule:Tracer.Kws_next_on_deleted;
      Digraph.iter_pred
        (fun u ->
          match Hashtbl.find_opt kd u with
          | Some e when e.Batch.next = v && not (Hashtbl.mem affected u) ->
              Stack.push u stack
          | _ -> ())
        t.g v
    end
  done;
  (* Phase 2 (lines 7-9): potential distances from unaffected successors.
     Iterated in node order: the frontier_expand events and the queue
     insertion sequence must not depend on the hash seed. *)
  let q = PQ.create () in
  List.iter
    (fun (v, ()) ->
      let best = ref max_int in
      Digraph.iter_succ
        (fun w ->
          Obs.incr t.obs Obs.K.edges_relaxed;
          if not (Hashtbl.mem affected w) then
            match Hashtbl.find_opt kd w with
            | Some e when e.Batch.dist + 1 < !best -> best := e.Batch.dist + 1
            | _ -> ())
        t.g v;
      remove_entry t i v;
      if !best <= b then begin
        Obs.frontier_expand t.obs ~node:v;
        PQ.insert q v !best
      end)
    (Obs.sorted_bindings ~compare:Int.compare affected);
  (* Insertions with unaffected endpoints (IncKWS phase (b)). *)
  List.iter
    (fun (v, w) ->
      if not (Hashtbl.mem affected v || Hashtbl.mem affected w) then
        match Hashtbl.find_opt kd w with
        | Some ew ->
            let cand = ew.Batch.dist + 1 in
            if
              cand <= b
              &&
              match Hashtbl.find_opt kd v with
              | Some ev -> ev.Batch.dist > cand
              | None -> true
            then begin
              Obs.frontier_expand t.obs ~node:v;
              PQ.insert q v cand
            end
        | None -> ())
    inss;
  (* Phase 3 (lines 10-14): settle exact values in increasing order. *)
  let rec fix () =
    match PQ.pull_min q with
    | None -> ()
    | Some (v, d) ->
        Obs.incr t.obs Obs.K.nodes_visited;
        let stale =
          match Hashtbl.find_opt kd v with
          | Some e -> e.Batch.dist <= d
          | None -> false
        in
        if not stale then begin
          (* The witness successor on a shortest path, smallest id. *)
          let next = ref (-1) in
          Digraph.iter_succ
            (fun w ->
              Obs.incr t.obs Obs.K.edges_relaxed;
              match Hashtbl.find_opt kd w with
              | Some e when e.Batch.dist = d - 1 && (!next = -1 || w < !next)
                ->
                  next := w
              | _ -> ())
            t.g v;
          assert (!next >= 0);
          if Obs.tracing t.obs then begin
            (* Entries absent from [affected] are reached through an
               insertion or an improved successor — Fig. 1's rule. Their
               work is counted as a rewrite below, not as |AFF|. *)
            if not (Hashtbl.mem affected v) then
              Obs.emit t.obs
                (Tracer.Aff_enter
                   { node = v; rule = Tracer.Kws_shorter_kdist });
            let show = function
              | Some e ->
                  Printf.sprintf "dist=%d next=%d" e.Batch.dist e.Batch.next
              | None -> "absent"
            in
            Obs.cert_rewrite t.obs ~node:v
              ~field:(Printf.sprintf "kdist[%d]" i)
              ~before:(show (Hashtbl.find_opt kd v))
              ~after:(Printf.sprintf "dist=%d next=%d" d !next)
          end;
          set_entry t i v { Batch.dist = d; next = !next };
          Obs.incr t.obs Obs.K.cert_rewrites;
          Digraph.iter_pred
            (fun u ->
              Obs.incr t.obs Obs.K.edges_relaxed;
              let cand = d + 1 in
              if
                cand <= b
                &&
                match Hashtbl.find_opt kd u with
                | Some e -> e.Batch.dist > cand
                | None -> true
              then begin
                Obs.frontier_expand t.obs ~node:u;
                PQ.insert q u cand
              end)
            t.g v
        end;
        fix ()
  in
  fix ()

let process_all t ~dels ~inss =
  Obs.with_span t.obs "kws.process" (fun () ->
      for i = 0 to m t - 1 do
        process_keyword t i ~dels ~inss
      done)

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  let dels, inss = Digraph.apply_net t.g updates in
  process_all t ~dels ~inss;
  flush_delta t

let init ?(obs = Obs.noop) g q =
  Digraph.instrument ~obs g;
  let kd = Batch.kdist_maps g q in
  let t =
    {
      g;
      q;
      obs;
      kd;
      mcount = Hashtbl.create 256;
      n_matches = 0;
      delta = Delta_set.create ();
    }
  in
  Array.iter
    (fun map ->
      (* Order-free: commutative counting. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v _ ->
          Hashtbl.replace t.mcount v
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.mcount v)))
        map)
    kd;
  (Hashtbl.iter [@lint.allow "D2"])
    (fun _ c -> if c = Array.length kd then t.n_matches <- t.n_matches + 1)
    t.mcount;
  t

(* Change the hop bound in place (the paper's Remark in Section 4.2).

   Raising b: the nodes where propagation previously stopped are exactly the
   entries at distance b (relaxation is cut only when a candidate distance
   would exceed the bound), so they are the "breakpoints" the paper
   describes, derivable from the kdist lists with no extra snapshot state.
   Seeding the settle loop from their unentered predecessors continues the
   propagation under the larger bound.

   Lowering b: entries beyond the new bound are simply dropped. *)
let set_bound t b' =
  let b = bound t in
  if b' > b then
    for i = 0 to m t - 1 do
      let kd = t.kd.(i) in
      let q = PQ.create () in
      (* Breakpoints: frontier entries at the old bound, in node order so
         queue insertions are seed-stable. *)
      List.iter
        (fun (v, e) ->
          if e.Batch.dist = b then
            Digraph.iter_pred
              (fun u -> if not (Hashtbl.mem kd u) then PQ.insert q u (b + 1))
              t.g v)
        (Obs.sorted_bindings ~compare:Int.compare kd);
      t.q <- { t.q with Batch.bound = b' };
      let rec fix () =
        match PQ.pull_min q with
        | None -> ()
        | Some (v, d) ->
            if not (Hashtbl.mem kd v) then begin
              let next = ref (-1) in
              Digraph.iter_succ
                (fun w ->
                  match Hashtbl.find_opt kd w with
                  | Some e when e.Batch.dist = d - 1 && (!next = -1 || w < !next)
                    ->
                      next := w
                  | _ -> ())
                t.g v;
              assert (!next >= 0);
              set_entry t i v { Batch.dist = d; next = !next };
              Obs.incr t.obs Obs.K.cert_rewrites;
              Digraph.iter_pred
                (fun u ->
                  if d + 1 <= b' && not (Hashtbl.mem kd u) then
                    PQ.insert q u (d + 1))
                t.g v
            end;
            fix ()
      in
      fix ()
    done
  else if b' < b then begin
    t.q <- { t.q with Batch.bound = b' };
    Array.iteri
      (fun i kd ->
        let doomed =
          (* Order-free: removals commute; the delta is flushed sorted. *)
          (Hashtbl.fold [@lint.allow "D2"])
            (fun v e acc -> if e.Batch.dist > b' then v :: acc else acc)
            kd []
        in
        List.iter (fun v -> remove_entry t i v) doomed)
      t.kd
  end;
  flush_delta t

let match_roots t =
  (* User-visible answer: ascending node order. *)
  List.filter_map
    (fun (v, c) -> if c = m t then Some v else None)
    (Obs.sorted_bindings ~compare:Int.compare t.mcount)

let n_matches t = t.n_matches

let is_match_root t v =
  Option.value ~default:0 (Hashtbl.find_opt t.mcount v) = m t

let kdist t v i = Hashtbl.find_opt t.kd.(i) v

let match_tree t r = if is_match_root t r then Batch.tree_of t.kd r else []

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let fresh = Batch.kdist_maps t.g t.q in
  Array.iteri
    (fun i fm ->
      let im = t.kd.(i) in
      if Hashtbl.length fm <> Hashtbl.length im then
        fail "keyword %d: %d entries, expected %d" i (Hashtbl.length im)
          (Hashtbl.length fm);
      (* Order-free: pure membership checks. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v (fe : Batch.entry) ->
          match Hashtbl.find_opt im v with
          | None -> fail "keyword %d: node %d missing" i v
          | Some ie ->
              if ie.Batch.dist <> fe.Batch.dist then
                fail "keyword %d node %d: dist %d, expected %d" i v
                  ie.Batch.dist fe.Batch.dist;
              (* next must be a valid shortest-path successor. *)
              if ie.Batch.dist > 0 then begin
                if not (Digraph.mem_edge t.g v ie.Batch.next) then
                  fail "keyword %d node %d: next %d is not a successor" i v
                    ie.Batch.next;
                match Hashtbl.find_opt im ie.Batch.next with
                | Some e' when e'.Batch.dist = ie.Batch.dist - 1 -> ()
                | _ -> fail "keyword %d node %d: next not on shortest path" i v
              end)
        fm)
    fresh;
  (* Root bookkeeping. *)
  let count = ref 0 in
  (* Order-free: commutative counting. *)
  (Hashtbl.iter [@lint.allow "D2"])
    (fun v c ->
      let real =
        Array.fold_left
          (fun acc map -> acc + if Hashtbl.mem map v then 1 else 0)
          0 t.kd
      in
      if real <> c then fail "mcount at %d: %d, expected %d" v c real;
      if c = m t then incr count)
    t.mcount;
  if !count <> t.n_matches then
    fail "n_matches %d, expected %d" t.n_matches !count

let corrupt_certificate_for_testing t =
  (* Raw mutation, bypassing [set_entry] on purpose: the point is to plant
     an inconsistency the validation layers must catch. *)
  let rec go i =
    if i >= m t then false
    else
      let kd = t.kd.(i) in
      (* Deterministic victim: the smallest node id with an entry. *)
      match Obs.sorted_bindings ~compare:Int.compare kd with
      | (v, e) :: _ ->
          Hashtbl.replace kd v { e with Batch.dist = e.Batch.dist + 1 };
          true
      | [] -> go (i + 1)
  in
  go 0

let match_cost t r =
  if not (is_match_root t r) then None
  else
    Some
      (Array.fold_left
         (fun acc kd -> acc + (Hashtbl.find kd r).Batch.dist)
         0 t.kd)

(* Canonical text dump of the auxiliary structure, one section per store.
   Sorted iteration keeps the bytes independent of the process hash seed. *)
let cert_snapshot t =
  let kd = Buffer.create 256 in
  Array.iteri
    (fun i h ->
      List.iter
        (fun (v, e) ->
          Buffer.add_string kd
            (Printf.sprintf "k%d v%d dist=%d next=%d\n" i v e.Batch.dist
               e.Batch.next))
        (Obs.sorted_bindings ~compare:Int.compare h))
    t.kd;
  let mc = Buffer.create 64 in
  List.iter
    (fun (v, c) -> Buffer.add_string mc (Printf.sprintf "v%d %d\n" v c))
    (Obs.sorted_bindings ~compare:Int.compare t.mcount);
  [
    ("kdist", Buffer.contents kd);
    ("mcount", Buffer.contents mc);
    ("matches", Printf.sprintf "%d\n" t.n_matches);
  ]
