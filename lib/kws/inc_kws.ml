module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer

type node = Digraph.node

type delta = {
  added : node list;
  removed : node list;
  rewired : (node * int) list;
}

type stats = { mutable affected : int; mutable settled : int }

module PQ = Ig_graph.Pqueue.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Int.hash
end)

type t = {
  g : Digraph.t;
  mutable q : Batch.query;
  grouped : bool;
  obs : Obs.t;
  trace : Tracer.t;
  syms : Ig_graph.Interner.symbol array; (* keyword symbols, query order *)
  kd : (node, Batch.entry) Hashtbl.t array;
  mcount : (node, int) Hashtbl.t; (* node -> #keywords within bound *)
  mutable n_matches : int;
  gained : (node, unit) Hashtbl.t;
  lost : (node, unit) Hashtbl.t;
  rewired : (node * int, unit) Hashtbl.t;
  st : stats;
}

let graph t = t.g
let query t = t.q
let stats t = t.st
let obs t = t.obs
let trace t = t.trace

let reset_stats t =
  t.st.affected <- 0;
  t.st.settled <- 0

let m t = Array.length t.kd
let bound t = t.q.Batch.bound

let note_gain t v =
  t.n_matches <- t.n_matches + 1;
  if Hashtbl.mem t.lost v then Hashtbl.remove t.lost v
  else Hashtbl.replace t.gained v ()

let note_lose t v =
  t.n_matches <- t.n_matches - 1;
  if Hashtbl.mem t.gained v then Hashtbl.remove t.gained v
  else Hashtbl.replace t.lost v ()

let set_entry t i v e =
  let kd = t.kd.(i) in
  if not (Hashtbl.mem kd v) then begin
    let c = 1 + Option.value ~default:0 (Hashtbl.find_opt t.mcount v) in
    Hashtbl.replace t.mcount v c;
    if c = m t then note_gain t v
  end;
  Hashtbl.replace kd v e

let remove_entry t i v =
  let kd = t.kd.(i) in
  if Hashtbl.mem kd v then begin
    Hashtbl.remove kd v;
    let c = Option.value ~default:0 (Hashtbl.find_opt t.mcount v) - 1 in
    if c > 0 then Hashtbl.replace t.mcount v c else Hashtbl.remove t.mcount v;
    if c = m t - 1 then note_lose t v
  end

let compare_rewired (v1, i1) (v2, i2) =
  match Int.compare v1 v2 with 0 -> Int.compare i1 i2 | c -> c

let flush_delta t =
  let added = List.map fst (Obs.sorted_bindings ~compare:Int.compare t.gained) in
  let removed = List.map fst (Obs.sorted_bindings ~compare:Int.compare t.lost) in
  let rewired =
    List.map fst (Obs.sorted_bindings ~compare:compare_rewired t.rewired)
  in
  Obs.note_changed_output t.obs (List.length added + List.length removed);
  Hashtbl.reset t.gained;
  Hashtbl.reset t.lost;
  Hashtbl.reset t.rewired;
  { added; removed; rewired }

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
      t.st.affected <- t.st.affected + 1;
      Obs.incr t.obs Obs.K.aff;
      Tracer.aff_enter t.trace ~node:v ~rule:Tracer.Kws_next_on_deleted;
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
        Obs.incr t.obs Obs.K.queue_pushes;
        Tracer.frontier_expand t.trace ~node:v;
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
              Obs.incr t.obs Obs.K.queue_pushes;
              Tracer.frontier_expand t.trace ~node:v;
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
          if Tracer.enabled t.trace then begin
            (* Entries absent from [affected] are reached through an
               insertion or an improved successor — Fig. 1's rule. *)
            if not (Hashtbl.mem affected v) then
              Tracer.aff_enter t.trace ~node:v ~rule:Tracer.Kws_shorter_kdist;
            let show = function
              | Some e ->
                  Printf.sprintf "dist=%d next=%d" e.Batch.dist e.Batch.next
              | None -> "absent"
            in
            Tracer.cert_rewrite t.trace ~node:v
              ~field:(Printf.sprintf "kdist[%d]" i)
              ~before:(show (Hashtbl.find_opt kd v))
              ~after:(Printf.sprintf "dist=%d next=%d" d !next)
          end;
          set_entry t i v { Batch.dist = d; next = !next };
          Hashtbl.replace t.rewired (v, i) ();
          t.st.settled <- t.st.settled + 1;
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
                Obs.incr t.obs Obs.K.queue_pushes;
                Tracer.frontier_expand t.trace ~node:u;
                PQ.insert q u cand
              end)
            t.g v
        end;
        fix ()
  in
  fix ()

let process_all t ~dels ~inss =
  Obs.with_span t.obs "kws.process" (fun () ->
      Tracer.with_span t.trace "kws.process" (fun () ->
          for i = 0 to m t - 1 do
            process_keyword t i ~dels ~inss
          done))

(* Apply the batch's net effect: an edge inserted then deleted in one batch
   (or the reverse) is no update at all, and the graph ends as
   [Digraph.apply_batch] leaves it. *)
let apply_net t updates =
  let g = t.g in
  let dels, inss = Digraph.net_effect updates in
  let dels = List.filter (fun (u, v) -> Digraph.remove_edge g u v) dels in
  let inss = List.filter (fun (u, v) -> Digraph.add_edge g u v) inss in
  let n = List.length dels + List.length inss in
  if n > 0 then Obs.note_changed_input t.obs n;
  (dels, inss)

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  if t.grouped then begin
    let dels, inss = apply_net t updates in
    process_all t ~dels ~inss
  end
  else
    List.iter
      (fun up ->
        match apply_net t [ up ] with
        | [], [] -> ()
        | dels, inss -> process_all t ~dels ~inss)
      updates;
  flush_delta t

let add_node t label =
  let v = Digraph.add_node t.g label in
  let sym = Digraph.label t.g v in
  Array.iteri
    (fun i ks ->
      if ks = sym then set_entry t i v { Batch.dist = 0; next = -1 })
    t.syms;
  v

let init ?(grouped = true) ?(obs = Obs.noop) ?(trace = Tracer.noop) g q =
  Digraph.instrument ~obs ~trace g;
  let kd = Batch.kdist_maps g q in
  let t =
    {
      g;
      q;
      grouped;
      obs;
      trace;
      syms =
        Array.of_list
          (List.map (Digraph.intern_label g) q.Batch.keywords);
      kd;
      mcount = Hashtbl.create 256;
      n_matches = 0;
      gained = Hashtbl.create 64;
      lost = Hashtbl.create 64;
      rewired = Hashtbl.create 64;
      st = { affected = 0; settled = 0 };
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
              t.st.settled <- t.st.settled + 1;
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
