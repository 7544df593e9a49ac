module Digraph = Ig_graph.Digraph
module Rank = Ig_graph.Rank
module Vec = Ig_graph.Vec
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer
module Delta_set = Ig_graph.Delta_set

type node = Digraph.node
type comp = int

(* Member sets as ropes: merging components of any size is O(1), and the
   linear costs (iteration) land only where the paper's AFF already pays
   them (local Tarjan runs, output extraction). *)
type members = Leaf of node list | Cat of members * members

let rec iter_members f = function
  | Leaf ns -> List.iter f ns
  | Cat (a, b) ->
      iter_members f a;
      iter_members f b

let members_to_list ms =
  let acc = ref [] in
  iter_members (fun v -> acc := v :: !acc) ms;
  !acc

type delta = { removed : node list list; added : node list list }

type t = {
  g : Digraph.t;
  dyn : bool; (* the DynSCC stand-in: reachability checks, no fast path *)
  obs : Obs.t;
  certs : Tarjan.cert Vec.t; (* per node *)
  comp_of : comp Vec.t;      (* per node *)
  (* Per node: its edges that leave (enter) its component. The contracted
     graph Gc is not stored; a closure reads it off G through [comp_of],
     and these counters let it skip members with no edge out of (into)
     their component. *)
  ext_out : int Vec.t;
  ext_in : int Vec.t;
  members : (comp, members) Hashtbl.t;
  msize : (comp, int) Hashtbl.t;
  rank : Rank.t;
  dirty : (comp, unit) Hashtbl.t;
  mutable next_comp : comp;
  (* ΔO, keyed by shape: (id, size). A merge keeps the id of one part and
     only grows it, so the shape a batch starts from and the one it ends
     with are distinct keys, and each carries its (immutable) members. *)
  delta : (comp * int, members) Delta_set.t;
}

let graph t = t.g
let obs t = t.obs

let cert t v = Vec.get t.certs v

let comp_of t v = Vec.get t.comp_of v

let bump vec v k = Vec.set vec v (Vec.get vec v + k)

(* Edge (u, v) starts (k = 1) or stops (k = -1) crossing components. *)
let bump_ext t u v k =
  bump t.ext_out u k;
  bump t.ext_in v k

let find_live tbl c =
  match Hashtbl.find_opt tbl c with
  | Some x -> x
  | None -> invalid_arg "Inc_scc: retired component"

let members_of t c = find_live t.members c
let size_of t c = find_live t.msize c

(* Allocate a component holding the node list [ms]; updates per-node
   ownership (used at init and splits, where the list is within AFF
   anyway). The caller is responsible for ranks, external degrees and
   ΔO. *)
let alloc_comp t ms =
  let c = t.next_comp in
  t.next_comp <- c + 1;
  Hashtbl.replace t.members c (Leaf ms);
  Hashtbl.replace t.msize c (List.length ms);
  List.iter (fun v -> Vec.set t.comp_of v c) ms;
  c

let compare_shape (c1, s1) (c2, s2) =
  match Int.compare c1 c2 with 0 -> Int.compare s1 s2 | c -> c

(* ΔO entries for component [c] in its current shape. *)
let gain_comp t c = Delta_set.gain t.delta (c, size_of t c) (members_of t c)
let lose_comp t c = Delta_set.lose t.delta (c, size_of t c) (members_of t c)

(* Retire a component: ownership of members must already have moved. Ranks
   are managed at call sites (reassign_within / split consume them). *)
let retire_comp t c =
  lose_comp t c;
  Hashtbl.remove t.members c;
  Hashtbl.remove t.msize c;
  Hashtbl.remove t.dirty c

(* Recompute the certificate of component [c] by a local Tarjan run on its
   induced subgraph; returns the sub-components sinks-first. *)
let local_tarjan t c =
  let ms = members_to_list (members_of t c) in
  let n = List.length ms in
  (* Counted in one add: the component may be the giant one, and every
     member enters AFF by the same rule. *)
  Obs.add t.obs Obs.K.aff n;
  if Obs.tracing t.obs then
    List.iter
      (fun v ->
        Obs.emit t.obs
          (Tracer.Aff_enter { node = v; rule = Tracer.Scc_local_tarjan }))
      ms;
  Obs.add t.obs Obs.K.cert_rewrites n;
  let work = { Ig_graph.Traverse.visited = 0; relaxed = 0 } in
  let groups =
    Tarjan.run_with_cert ~work t.g
      ~restrict:(fun v -> comp_of t v = c)
      ~nodes:ms
      ~cert:(cert t)
  in
  Obs.add t.obs Obs.K.nodes_visited work.visited;
  Obs.add t.obs Obs.K.edges_relaxed work.relaxed;
  if Obs.tracing t.obs then
    Obs.cert_rewrite t.obs ~node:c ~field:"certificate"
      ~before:(Printf.sprintf "comp=%d size=%d" c n)
      ~after:(Printf.sprintf "parts=%d" (List.length groups));
  groups

(* ---- Splits (IncSCC−, slow path) ------------------------------------- *)

(* Re-certify component [c] (after intra-component deletions and/or when
   dirty) and split it if strong connectivity broke. *)
let recert_or_split t c =
  match local_tarjan t c with
  | [] -> assert false
  | [ _ ] -> Hashtbl.remove t.dirty c
  | parts_members ->
      (* Fresh ids, all at least [first]: an edge of [c] now crosses
         components iff it joins two different parts. *)
      let first = t.next_comp in
      let parts = List.map (fun ms -> alloc_comp t ms) parts_members in
      let relaxed = ref 0 in
      List.iter
        (List.iter (fun m ->
             let p = comp_of t m in
             Digraph.iter_succ
               (fun w ->
                 incr relaxed;
                 let d = comp_of t w in
                 if d <> p && d >= first then bump_ext t m w 1)
               t.g m))
        parts_members;
      Obs.add t.obs Obs.K.edges_relaxed !relaxed;
      List.iter (gain_comp t) parts;
      (* [parts] is sinks-first, which is ascending rank order. *)
      Rank.split t.rank c ~parts;
      Obs.add t.obs Obs.K.rank_moves (List.length parts);
      retire_comp t c

(* ---- Insertions (IncSCC+) -------------------------------------------- *)

(* Merge components in time proportional to the smaller sides: the id of
   the component with the most members is reused, and the others' members
   move into it, so a chain of merges into a hub costs the sum of the
   small sides, not |hub| per step. Returns the surviving id. *)
let merge_comps t cs =
  let big =
    List.fold_left
      (fun b c -> if size_of t c > size_of t b then c else b)
      (List.hd cs) cs
  in
  let others = List.filter (fun c -> c <> big) cs in
  let in_set = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace in_set c ()) cs;
  (* Edges between merged components stop crossing. Each is seen once:
     from its source when that is on a smaller side, else (the source is
     in [big]) from its target; members with no such edge are skipped.
     Ownership moves only afterwards. *)
  let relaxed = ref 0 in
  List.iter
    (fun c ->
      iter_members
        (fun m ->
          if Vec.get t.ext_out m > 0 then
            Digraph.iter_succ
              (fun w ->
                incr relaxed;
                let d = comp_of t w in
                if d <> c && Hashtbl.mem in_set d then bump_ext t m w (-1))
              t.g m;
          if Vec.get t.ext_in m > 0 then
            Digraph.iter_pred
              (fun a ->
                incr relaxed;
                if comp_of t a = big then bump_ext t a m (-1))
              t.g m)
        (members_of t c))
    others;
  Obs.add t.obs Obs.K.edges_relaxed !relaxed;
  let rope =
    List.fold_left
      (fun acc c -> Cat (acc, members_of t c))
      (members_of t big) others
  in
  (* ΔO: the old shape of [big] leaves (cancelling its gain if this batch
     made it), the merged shape enters. *)
  lose_comp t big;
  Hashtbl.replace t.msize big
    (List.fold_left (fun n c -> n + size_of t c) (size_of t big) others);
  Hashtbl.replace t.members big rope;
  gain_comp t big;
  List.iter
    (fun c ->
      iter_members (fun m -> Vec.set t.comp_of m big) (members_of t c);
      retire_comp t c)
    others;
  Hashtbl.replace t.dirty big ();
  big

(* Rank-windowed closure over Gc, read off G: a component's contracted
   successors (predecessors) are the components of its members' G ones.
   Every member's external degree is read (one [nodes_visited] each); only
   members with an edge leaving (entering) the component are scanned. A
   contracted edge is followed only when it respects the ranks (forward
   c→d when r(d) < r(c), backward when r(d) > r(c)) and leads to a rank
   strictly inside the window that [bound] closes: above it forward,
   below it backward. So an insertion of this batch that still violates
   the ranks, already in G but not yet resolved, is never followed. Also
   reports whether [start] has a contracted edge into [target]. *)
let cclosure t ~dir ~bound ?(target = -1) start =
  let ext, iter, fwd =
    match dir with
    | `F -> (t.ext_out, Digraph.iter_succ, true)
    | `B -> (t.ext_in, Digraph.iter_pred, false)
  in
  let seen = Hashtbl.create 16 in
  let stack = Stack.create () in
  let hit = ref false and relaxed = ref 0 and read = ref 0 in
  (* The popped component and its rank; the scans below read them, so no
     closure is allocated per pop. *)
  let cur = ref start and r_cur = ref 0 and next = ref [] in
  let see w =
    incr relaxed;
    let d = comp_of t w in
    if d <> !cur then next := d :: !next
  in
  let scan m =
    incr read;
    if Vec.get ext m > 0 then iter see t.g m
  in
  let visit d =
    if not (Hashtbl.mem seen d) then begin
      let r = Rank.value t.rank d in
      if if fwd then bound < r && r < !r_cur else !r_cur < r && r < bound
      then begin
        Hashtbl.replace seen d ();
        (* "node" here is a component id — the unit ranks live on. *)
        Obs.frontier_expand t.obs ~node:d;
        Stack.push d stack
      end
    end
  in
  Hashtbl.replace seen start ();
  Stack.push start stack;
  while not (Stack.is_empty stack) do
    let c = Stack.pop stack in
    cur := c;
    r_cur := Rank.value t.rank c;
    next := [];
    iter_members scan (members_of t c);
    if c = start && List.mem target !next then hit := true;
    (* Sorted: the expansion order reaches the trace via frontier_expand. *)
    List.iter visit (List.sort_uniq Int.compare !next)
  done;
  Obs.add t.obs Obs.K.nodes_visited !read;
  Obs.add t.obs Obs.K.edges_relaxed !relaxed;
  (seen, !hit)

(* Restore the rank invariant after inserting contracted edge (cu, cv) with
   r(cu) < r(cv): paper Fig. 7 lines 4-9.

   affr (DFSf) is the forward closure from cv among ranks > r(cu); affl
   (DFSb) is the backward closure from cu among ranks < r(cv). Both follow
   only the contracted edges that respect the ranks; the batch's other
   violating insertions are skipped here and resolved at their own turn.
   Ranks strictly decrease along every followed edge, so affr ⊆ (r(cu),
   r(cv)] and affl ⊆ [r(cu), r(cv)), and the components that must merge
   are exactly those on a cv ⇝ cu path of followed edges: (affr ∩ affl) ∪
   {cu, cv}, nonempty iff affr ∩ affl ≠ ∅ or the edge (cv, cu) exists.

   Rank reallocation follows the paper's reallocRank: the region's existing
   labels are reassigned ascending, first to affr sorted by previous rank,
   then to affl sorted by previous rank. Keeping each side's previous
   relative order is what makes every affr label weakly decrease and every
   affl label weakly increase, which is the Pearce–Kelly argument that no
   edge that respected the ranks before can become violated. *)
let resolve_violation t cu cv =
  let r_cu = Rank.value t.rank cu and r_cv = Rank.value t.rank cv in
  let affr, direct_back_edge = cclosure t ~dir:`F ~bound:r_cu ~target:cu cv in
  let affl, _ = cclosure t ~dir:`B ~bound:r_cv cu in
  let elements tbl =
    List.map fst (Obs.sorted_bindings ~compare:Int.compare tbl)
  in
  let by_old_rank = List.sort (Rank.compare_items t.rank) in
  let affr_l = elements affr and affl_l = elements affl in
  let inter = List.filter (fun c -> Hashtbl.mem affl c) affr_l in
  let region_size = Hashtbl.length affr + Hashtbl.length affl in
  Obs.add t.obs Obs.K.rank_moves region_size;
  Obs.incr t.obs Obs.K.violations;
  (* |AFF| counts the region with multiplicity (|affr| + |affl|); the
     provenance names each component once. *)
  List.iter
    (fun c -> Obs.aff_enter t.obs ~node:c ~rule:Tracer.Scc_rank_swap)
    affr_l;
  List.iter
    (fun c ->
      if Hashtbl.mem affr c then Obs.incr t.obs Obs.K.aff
      else Obs.aff_enter t.obs ~node:c ~rule:Tracer.Scc_rank_swap)
    affl_l;
  if inter = [] && not direct_back_edge then begin
    if Obs.tracing t.obs then
      Obs.cert_rewrite t.obs ~node:cu ~field:"rank"
        ~before:(Printf.sprintf "r(cu)=%d r(cv)=%d" r_cu r_cv)
        ~after:(Printf.sprintf "reallocated region=%d" region_size);
    (* No cycle: pure reallocation. *)
    let order = by_old_rank affr_l @ by_old_rank affl_l in
    Rank.reassign t.rank order
  end
  else begin
    if Obs.tracing t.obs then
      Obs.cert_rewrite t.obs ~node:cu ~field:"rank"
        ~before:(Printf.sprintf "r(cu)=%d r(cv)=%d" r_cu r_cv)
        ~after:(Printf.sprintf "cycle-merged region=%d" region_size);
    let merge_set = Hashtbl.create 8 in
    List.iter (fun c -> Hashtbl.replace merge_set c ()) (cu :: cv :: inter);
    let to_merge =
      List.map fst (Obs.sorted_bindings ~compare:Int.compare merge_set)
    in
    let pool =
      affr_l @ List.filter (fun c -> not (Hashtbl.mem affr c)) affl_l
    in
    let rest cs =
      by_old_rank (List.filter (fun c -> not (Hashtbl.mem merge_set c)) cs)
    in
    let affr_rest = rest affr_l and affl_rest = rest affl_l in
    let m = merge_comps t to_merge in
    (* affr keeps the smallest labels (weakly decreasing), affl the largest
       (weakly increasing); the merged component sits in between — any
       leftover label works for it since all its external neighbors lie
       outside the pool's window. Labels freed by the merge are dropped. *)
    let labels = Array.of_list (Rank.take_labels t.rank pool) in
    let n = Array.length labels in
    let nr = List.length affr_rest and nl = List.length affl_rest in
    List.iteri (fun i c -> Rank.give t.rank c labels.(i)) affr_rest;
    Rank.give t.rank m labels.(nr);
    List.iteri (fun i c -> Rank.give t.rank c labels.(n - nl + i)) affl_rest
  end

(* ---- Deletions (IncSCC−) --------------------------------------------- *)

(* The recorded run stays valid iff the deleted intra-component edge is
   neither the tree arc into [v] nor the lowlink witness of [u]. *)
let cert_survives_delete t u v =
  let cv = cert t v in
  if cv.parent = u then false
  else
    match (cert t u).witness with Tarjan.Wdirect w -> w <> v | _ -> true

(* After deleting intra-component edge (u,v), the component stays strongly
   connected iff [u] still reaches [v] inside it (paper IncSCC−: the
   reachability check). Early-exits as soon as [v] is found; the walk is
   counted like any other search. DynSCC's check: one unbudgeted forward
   walk per deleted edge. *)
let still_connected t c u v =
  let work = { Ig_graph.Traverse.visited = 0; relaxed = 0 } in
  let r =
    Ig_graph.Traverse.reaches ~within:(fun x -> comp_of t x = c) ~work t.g u v
  in
  Obs.add t.obs Obs.K.nodes_visited work.visited;
  Obs.add t.obs Obs.K.edges_relaxed work.relaxed;
  r

(* IncSCC's check: [u] reaches [v] inside [c], by a bidirectional search,
   forward over successors from [u] and backward over predecessors from
   [v], each step expanding the smaller frontier. Every expanded node
   spends one unit of [budget]; a spent budget or a frontier that runs dry
   answers [false]. *)
let detour t c budget u v =
  u = v
  ||
  let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
  Hashtbl.replace fwd u ();
  Hashtbl.replace bwd v ();
  let visited = ref 0 and relaxed = ref 0 in
  let expand iter own other frontier =
    List.fold_left
      (fun next x ->
        if !budget = 0 then next
        else begin
          decr budget;
          incr visited;
          let next = ref next in
          iter
            (fun w ->
              incr relaxed;
              if comp_of t w = c && not (Hashtbl.mem own w) then begin
                if Hashtbl.mem other w then raise_notrace Exit;
                Hashtbl.replace own w ();
                next := w :: !next
              end)
            t.g x;
          !next
        end)
      [] frontier
  in
  let rec meet ff bf =
    if ff = [] || bf = [] || !budget = 0 then false
    else if List.compare_lengths ff bf <= 0 then
      meet (expand Digraph.iter_succ fwd bwd ff) bf
    else meet ff (expand Digraph.iter_pred bwd fwd bf)
  in
  let r = try meet [ u ] [ v ] with Exit -> true in
  Obs.add t.obs Obs.K.nodes_visited !visited;
  Obs.add t.obs Obs.K.edges_relaxed !relaxed;
  r

(* [c], strongly connected at batch start, still is after its deletions
   [dels] if every (u, v) of them has a detour u ⇝ v inside [c] in the
   current graph: each deleted edge on an old path between two members
   can be replaced by its detour. A deletion that leaves [u] with no edge
   into [c], or [v] with none from it, is a certain split, found from the
   degrees before any search runs. The searches share a budget of |c|
   expanded nodes, so re-proving costs at most about what the local
   Tarjan run it tries to avoid does. *)
let reproved t c dels =
  let into_c u = Digraph.out_degree t.g u > Vec.get t.ext_out u
  and from_c v = Digraph.in_degree t.g v > Vec.get t.ext_in v in
  List.for_all (fun (u, v) -> u = v || (into_c u && from_c v)) dels
  &&
  let budget = ref (size_of t c) in
  List.for_all (fun (u, v) -> detour t c budget u v) dels

(* ---- Batch updates (IncSCC) ------------------------------------------ *)

(* [apply_batch] applies G ⊕ ΔG first, in one [Digraph.apply_net] call;
   the phases below only read G. Each effective update is classified against the
   components at batch start, and an inter-component one moves its
   endpoints' external degrees at once, so the degree pre-check of
   [reproved] and the upkeep of merges and splits read counts that match
   G. An intra-component insertion needs nothing else: the recorded
   certificate is a Tarjan run over the edges present when it was
   computed, and that edge subset still proves the component strongly
   connected. Later deletions of *other* edges keep it valid, and deleting
   the new edge itself can never split (the certificate does not use
   it). *)
let process t ~dels ~inss =
  (* (a) Intra-component phase: group the deletions by component, then
     run local Tarjan at most once per affected component. Its searches
     read only the component's members, so the inter-component edges
     already in G never reach them. Each class is processed newest first. *)
  let del_by_comp = Hashtbl.create 8 in
  List.iter
    (fun (u, v) ->
      let c = comp_of t u in
      if c <> comp_of t v then bump_ext t u v (-1)
      else
        let cur = Option.value ~default:[] (Hashtbl.find_opt del_by_comp c) in
        Hashtbl.replace del_by_comp c ((u, v) :: cur))
    (List.rev dels);
  let inss = List.rev inss in
  List.iter
    (fun (u, v) -> if comp_of t u <> comp_of t v then bump_ext t u v 1)
    inss;
  (* [c] was strongly connected at batch start, so the reachability checks
     may run on the post-batch graph (see [reproved]). A clean certificate
     still proves the deletions it does not use, so only the others are
     checked; a stale one proves nothing. When every check succeeds, [c]
     keeps its members, ranks and ΔO, and its certificate, which no longer
     reflects reality, is marked dirty. Sorted: recert order reaches the
     trace via local Tarjan's aff_enter. *)
  List.iter
    (fun (c, dels) ->
      if t.dyn then
        if List.for_all (fun (u, v) -> still_connected t c u v) dels then
          Hashtbl.replace t.dirty c ()
        else recert_or_split t c
      else
        let unproved =
          if Hashtbl.mem t.dirty c then dels
          else List.filter (fun (u, v) -> not (cert_survives_delete t u v)) dels
        in
        if unproved = [] || reproved t c unproved then begin
          let fast = List.length dels - List.length unproved in
          if fast > 0 then Obs.add t.obs Obs.K.fast_deletes fast;
          if unproved <> [] then Hashtbl.replace t.dirty c ()
        end
        else recert_or_split t c)
    (Obs.sorted_bindings ~compare:Int.compare del_by_comp);
  (* (b) Inter-component phase: each insertion that violates the ranks at
     its turn restores them (the closures skip those still waiting). Equal
     components mean an earlier insertion merged them, and an insertion
     that a split made inter-component was ordered by local Tarjan. *)
  List.iter
    (fun (u, v) ->
      let cu = comp_of t u and cv = comp_of t v in
      if cu <> cv && Rank.compare_items t.rank cu cv < 0 then
        resolve_violation t cu cv)
    inss

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  let dels, inss = Digraph.apply_net t.g updates in
  Obs.with_span t.obs "scc.process" (fun () -> process t ~dels ~inss);
  (* Component-id order: the delta lists are consumer-visible. *)
  let added, removed =
    Delta_set.flush t.delta ~obs:t.obs ~compare:compare_shape
  in
  let members = List.map (fun (_, ms) -> members_to_list ms) in
  { removed = members removed; added = members added }

(* ---- Construction and queries ----------------------------------------- *)

let init ?(dyn = false) ?(obs = Obs.noop) g =
  Digraph.instrument ~obs g;
  let n = Digraph.n_nodes g in
  let certs = Vec.create () in
  for _ = 1 to n do
    ignore (Vec.push certs (Tarjan.fresh_cert ()))
  done;
  let per_node x = if n = 0 then Vec.create () else Vec.make n x in
  let t =
    {
      g;
      dyn;
      obs;
      certs;
      comp_of = per_node (-1);
      ext_out = per_node 0;
      ext_in = per_node 0;
      members = Hashtbl.create 64;
      msize = Hashtbl.create 64;
      rank = Rank.create ();
      dirty = Hashtbl.create 16;
      next_comp = 0;
      delta = Delta_set.create ();
    }
  in
  (* Root order is free in Tarjan; descending ids make the initial ranks
     anti-correlate with node ids wherever the graph leaves the order
     unconstrained. On hierarchy-shaped graphs (whose edges mostly agree
     with some global order) this keeps re-inserted edges rank-consistent,
     so IncSCC+ rarely needs an affected-region search at all. *)
  let groups =
    Tarjan.run_with_cert g
      ~restrict:(fun _ -> true)
      ~nodes:(List.init n (fun i -> n - 1 - i))
      ~cert:(cert t)
  in
  (* Sinks first: inserting each at the top gives ascending ranks, so
     r decreases along contracted edges, as in the paper. *)
  List.iter
    (fun ms ->
      let c = alloc_comp t ms in
      Rank.insert_top t.rank c)
    groups;
  Digraph.iter_edges
    (fun u v -> if comp_of t u <> comp_of t v then bump_ext t u v 1)
    g;
  t

let components t =
  (* Component-id order: user-visible. *)
  List.map
    (fun (_, ms) -> members_to_list ms)
    (Obs.sorted_bindings ~compare:Int.compare t.members)

let n_components t = Hashtbl.length t.members

let component_of t v = members_to_list (members_of t (comp_of t v))

let same_component t u v = comp_of t u = comp_of t v

(* ---- Invariant checking (tests) --------------------------------------- *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Ownership tables agree. Order-free: each check is independent. *)
  (Hashtbl.iter [@lint.allow "D2"])
    (fun c ms ->
      iter_members
        (fun v ->
          if comp_of t v <> c then fail "node %d not owned by component %d" v c)
        ms;
      let n = ref 0 in
      iter_members (fun _ -> incr n) ms;
      if !n <> size_of t c then fail "component %d size drifted" c)
    t.members;
  Digraph.iter_nodes
    (fun v ->
      if not (Hashtbl.mem t.members (comp_of t v)) then
        fail "node %d owned by retired component" v)
    t.g;
  (* Components match a from-scratch run. *)
  let norm comps =
    List.sort
      (List.compare Int.compare)
      (List.map (fun ms -> List.sort Int.compare ms) comps)
  in
  if norm (components t) <> norm (Tarjan.scc t.g) then
    fail "components disagree with batch Tarjan";
  (* External degrees match the graph, and ranks strictly decrease along
     contracted edges. *)
  let n = Digraph.n_nodes t.g in
  let out = Array.make n 0 and inn = Array.make n 0 in
  Digraph.iter_edges
    (fun u v ->
      let cu = comp_of t u and cv = comp_of t v in
      if cu <> cv then begin
        out.(u) <- out.(u) + 1;
        inn.(v) <- inn.(v) + 1;
        if Rank.compare_items t.rank cu cv <= 0 then
          fail "rank invariant violated on (%d,%d)" cu cv
      end)
    t.g;
  for v = 0 to n - 1 do
    if Vec.get t.ext_out v <> out.(v) || Vec.get t.ext_in v <> inn.(v) then
      fail "external degrees of node %d drifted" v
  done

(* Live components, ascending rank (sinks first). *)
let by_rank t =
  List.sort (Rank.compare_items t.rank)
    (List.map fst (Obs.sorted_bindings ~compare:Int.compare t.members))

let contracted t =
  let comps = by_rank t in
  let gc = Digraph.create ~hint:(List.length comps) () in
  let index = Hashtbl.create 64 in
  let members =
    Array.of_list
      (List.map
         (fun c ->
           Hashtbl.replace index c (Digraph.add_node gc "scc");
           members_to_list (members_of t c))
         comps)
  in
  let es = ref [] in
  Digraph.iter_edges
    (fun u v ->
      let cu = comp_of t u and cv = comp_of t v in
      if cu <> cv then
        es := (Hashtbl.find index cu, Hashtbl.find index cv) :: !es)
    t.g;
  Digraph.load_edges gc !es;
  (gc, members)

(* Canonical text dump of the live state. The cert section is documented
   evidence, not a correctness carrier: lazily maintained Tarjan certs are
   history-dependent, so recovery re-derives them by replay rather than
   trusting these bytes. Sorted iteration keeps the dump hash-seed
   independent. The contracted edges are not dumped: they follow from the
   comp section and the graph. *)
let cert_snapshot t =
  let n = Ig_graph.Digraph.n_nodes t.g in
  let comp = Buffer.create 128 in
  for v = 0 to n - 1 do
    Buffer.add_string comp (Printf.sprintf "v%d c%d\n" v (comp_of t v))
  done;
  let cb = Buffer.create 256 in
  for v = 0 to n - 1 do
    let c = cert t v in
    let w =
      match c.Tarjan.witness with
      | Tarjan.Wself -> "self"
      | Tarjan.Wtree x -> Printf.sprintf "tree:%d" x
      | Tarjan.Wdirect x -> Printf.sprintf "direct:%d" x
    in
    Buffer.add_string cb
      (Printf.sprintf "v%d num=%d low=%d parent=%d witness=%s\n" v
         c.Tarjan.num c.Tarjan.lowlink c.Tarjan.parent w)
  done;
  let rk = Buffer.create 64 in
  List.iter
    (fun c -> Buffer.add_string rk (Printf.sprintf "c%d\n" c))
    (by_rank t);
  [
    ("comp", Buffer.contents comp);
    ("cert", Buffer.contents cb);
    ("ranks", Buffer.contents rk);
  ]
