module Digraph = Ig_graph.Digraph
module Rank = Ig_graph.Rank
module Vec = Ig_graph.Vec
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer

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

type config = {
  eager_cert : bool;
  delete_fast_path : bool;
  group_batch : bool;
}

let inc_config = { eager_cert = false; delete_fast_path = true; group_batch = true }
let incn_config = { eager_cert = false; delete_fast_path = true; group_batch = false }
let dyn_config = { eager_cert = false; delete_fast_path = false; group_batch = false }

type delta = { removed : node list list; added : node list list }

type stats = {
  mutable cert_nodes : int;
  mutable rank_moves : int;
  mutable fast_deletes : int;
  mutable violations : int;
}

type t = {
  g : Digraph.t;
  cfg : config;
  obs : Obs.t;
  trace : Tracer.t;
  certs : Tarjan.cert Vec.t; (* per node *)
  comp_of : comp Vec.t;      (* per node *)
  members : (comp, members) Hashtbl.t;
  msize : (comp, int) Hashtbl.t;
  (* Union-find over component ids: merges link old ids to the new one
     instead of rewriting per-node ownership (which would cost O(|scc|)). *)
  dsu : (comp, comp) Hashtbl.t;
  csucc : (comp, (comp, int) Hashtbl.t) Hashtbl.t;
  cpred : (comp, (comp, int) Hashtbl.t) Hashtbl.t;
  rank : Rank.t;
  dirty : (comp, unit) Hashtbl.t;
  mutable next_comp : comp;
  born : (comp, unit) Hashtbl.t;
  died : (comp, node list) Hashtbl.t;
  st : stats;
}

let graph t = t.g
let config t = t.cfg
let stats t = t.st
let obs t = t.obs
let trace t = t.trace

let reset_stats t =
  t.st.cert_nodes <- 0;
  t.st.rank_moves <- 0;
  t.st.fast_deletes <- 0;
  t.st.violations <- 0

let cert t v = Vec.get t.certs v

let rec dsu_find t c =
  match Hashtbl.find_opt t.dsu c with
  | None -> c
  | Some p ->
      let root = dsu_find t p in
      if root <> p then Hashtbl.replace t.dsu c root;
      root

let comp_of t v = dsu_find t (Vec.get t.comp_of v)

let members_of t c =
  match Hashtbl.find_opt t.members c with
  | Some ms -> ms
  | None -> invalid_arg "Inc_scc: retired component"

let size_of t c =
  match Hashtbl.find_opt t.msize c with
  | Some n -> n
  | None -> invalid_arg "Inc_scc: retired component"

let adj tbl c =
  match Hashtbl.find_opt tbl c with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      Hashtbl.replace tbl c h;
      h

let cadd t cu cv k =
  let bump tbl a b =
    let h = adj tbl a in
    Hashtbl.replace h b (k + Option.value ~default:0 (Hashtbl.find_opt h b))
  in
  bump t.csucc cu cv;
  bump t.cpred cv cu

let cremove t cu cv k =
  let drop tbl a b =
    let h = adj tbl a in
    let n = Option.value ~default:0 (Hashtbl.find_opt h b) - k in
    if n > 0 then Hashtbl.replace h b n else Hashtbl.remove h b
  in
  drop t.csucc cu cv;
  drop t.cpred cv cu

(* Allocate a component holding the node list [ms]; updates per-node
   ownership (used at init, splits and node creation, where the list is
   within AFF anyway). The caller is responsible for ranks and contracted
   adjacency. *)
let alloc_comp t ms =
  let c = t.next_comp in
  t.next_comp <- c + 1;
  Hashtbl.replace t.members c (Leaf ms);
  Hashtbl.replace t.msize c (List.length ms);
  List.iter (fun v -> Vec.set t.comp_of v c) ms;
  Hashtbl.replace t.born c ();
  c

(* Retire a component: ownership of members must already have moved. Ranks
   are managed at call sites (reassign_within / split consume them). *)
let retire_comp t c =
  let ms = members_of t c in
  Hashtbl.remove t.members c;
  Hashtbl.remove t.msize c;
  Hashtbl.remove t.csucc c;
  Hashtbl.remove t.cpred c;
  Hashtbl.remove t.dirty c;
  if Hashtbl.mem t.born c then Hashtbl.remove t.born c
  else Hashtbl.replace t.died c (members_to_list ms)

let flush_delta t =
  (* Component-id order: the delta lists are consumer-visible. *)
  let removed =
    List.map snd (Obs.sorted_bindings ~compare:Int.compare t.died)
  in
  let added =
    List.map
      (fun (c, ()) -> members_to_list (members_of t c))
      (Obs.sorted_bindings ~compare:Int.compare t.born)
  in
  Obs.note_changed_output t.obs (List.length removed + List.length added);
  Hashtbl.reset t.died;
  Hashtbl.reset t.born;
  { removed; added }

(* Recompute the certificate of component [c] by a local Tarjan run on its
   induced subgraph; returns the sub-components sinks-first. *)
let local_tarjan t c =
  let ms = members_to_list (members_of t c) in
  t.st.cert_nodes <- t.st.cert_nodes + List.length ms;
  let n = List.length ms in
  Obs.add t.obs Obs.K.aff n;
  Obs.add t.obs Obs.K.cert_rewrites n;
  Obs.add t.obs Obs.K.nodes_visited n;
  if Tracer.enabled t.trace then
    List.iter
      (fun v -> Tracer.aff_enter t.trace ~node:v ~rule:Tracer.Scc_local_tarjan)
      ms;
  let groups =
    Tarjan.run_with_cert t.g
      ~restrict:(fun v -> comp_of t v = c)
      ~nodes:ms
      ~cert:(cert t)
  in
  if Tracer.enabled t.trace then
    Tracer.cert_rewrite t.trace ~node:c ~field:"certificate"
      ~before:(Printf.sprintf "comp=%d size=%d" c n)
      ~after:(Printf.sprintf "parts=%d" (List.length groups));
  groups

let refresh_cert t c =
  match local_tarjan t c with
  | [ _ ] -> Hashtbl.remove t.dirty c
  | _ -> assert false (* only called when [c] is known strongly connected *)

(* ---- Splits (IncSCC−, slow path) ------------------------------------- *)

(* Rebuild contracted adjacency after replacing [c] by [parts]. *)
let rewire_split t c parts =
  (* Purge the external references to [c]. Order-free: removals commute. *)
  (Hashtbl.iter [@lint.allow "D2"])
    (fun d _ -> Hashtbl.remove (adj t.cpred d) c)
    (adj t.csucc c);
  (Hashtbl.iter [@lint.allow "D2"])
    (fun a _ -> Hashtbl.remove (adj t.csucc a) c)
    (adj t.cpred c);
  let part_set = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace part_set p ()) parts;
  List.iter
    (fun p ->
      iter_members
        (fun m ->
          Digraph.iter_succ
            (fun w ->
              let d = comp_of t w in
              if d <> p then cadd t p d 1)
            t.g m;
          Digraph.iter_pred
            (fun a ->
              let ca = comp_of t a in
              (* Part-to-part edges were counted from the successor side. *)
              if ca <> p && not (Hashtbl.mem part_set ca) then cadd t ca p 1)
            t.g m)
        (members_of t p))
    parts

(* Re-certify component [c] (after intra-component deletions and/or when
   dirty) and split it if strong connectivity broke. *)
let recert_or_split t c =
  match local_tarjan t c with
  | [] -> assert false
  | [ _ ] -> Hashtbl.remove t.dirty c
  | parts_members ->
      (* Fresh ids; ownership moves before adjacency is rebuilt. *)
      let parts = List.map (fun ms -> alloc_comp t ms) parts_members in
      (* [parts] is sinks-first, which is ascending rank order. *)
      Rank.split t.rank c ~parts;
      t.st.rank_moves <- t.st.rank_moves + List.length parts;
      (* Adjacency rebuild must happen while [c]'s tables still exist. *)
      rewire_split t c parts;
      retire_comp t c

(* ---- Insertions (IncSCC+) -------------------------------------------- *)

(* Merge components in time proportional to the smaller sides: the id of
   the component with the largest contracted adjacency is reused, the
   others' members, ownership (via union-find) and adjacency are folded
   into it, so a chain of merges into a hub costs the sum of the small
   sides, not |hub| per step. Returns the surviving id. *)
let merge_comps t cs =
  let weight c =
    Hashtbl.length (adj t.csucc c) + Hashtbl.length (adj t.cpred c)
  in
  let big =
    List.fold_left
      (fun b c -> if weight c > weight b then c else b)
      (List.hd cs) cs
  in
  let others = List.filter (fun c -> c <> big) cs in
  (* ΔO bookkeeping: the pre-batch shape of [big] dies; its merged shape is
     (re)born. flush_delta reads members at flush time, so later growth of
     the same id is reflected automatically. *)
  if (not (Hashtbl.mem t.born big)) && not (Hashtbl.mem t.died big) then
    Hashtbl.replace t.died big (members_to_list (members_of t big));
  Hashtbl.replace t.born big ();
  let rope =
    List.fold_left
      (fun acc c -> Cat (acc, members_of t c))
      (members_of t big) others
  in
  Hashtbl.replace t.members big rope;
  Hashtbl.replace t.msize big
    (List.fold_left (fun n c -> n + size_of t c) (size_of t big) others);
  List.iter (fun c -> Hashtbl.replace t.dsu c big) others;
  let in_set = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace in_set c ()) cs;
  (* Contracted edges from [big] into the merge set become internal. *)
  List.iter
    (fun c ->
      Hashtbl.remove (adj t.csucc big) c;
      Hashtbl.remove (adj t.cpred big) c)
    others;
  let bump h k cnt =
    Hashtbl.replace h k (cnt + Option.value ~default:0 (Hashtbl.find_opt h k))
  in
  List.iter
    (fun c ->
      (* Order-free: counter merges and removals commute. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun d cnt ->
          Hashtbl.remove (adj t.cpred d) c;
          if not (Hashtbl.mem in_set d) then begin
            bump (adj t.csucc big) d cnt;
            bump (adj t.cpred d) big cnt
          end)
        (adj t.csucc c);
      (Hashtbl.iter [@lint.allow "D2"])
        (fun a cnt ->
          Hashtbl.remove (adj t.csucc a) c;
          if not (Hashtbl.mem in_set a) then begin
            bump (adj t.cpred big) a cnt;
            bump (adj t.csucc a) big cnt
          end)
        (adj t.cpred c);
      (* Retire the folded component (its members moved to [big]); if it
         predates the batch it was a distinct component of the old output,
         so its snapshot joins ΔO's removals. *)
      (if Hashtbl.mem t.born c then Hashtbl.remove t.born c
       else Hashtbl.replace t.died c (members_to_list (members_of t c)));
      Hashtbl.remove t.members c;
      Hashtbl.remove t.msize c;
      Hashtbl.remove t.csucc c;
      Hashtbl.remove t.cpred c;
      Hashtbl.remove t.dirty c)
    others;
  if t.cfg.eager_cert then refresh_cert t big
  else Hashtbl.replace t.dirty big ();
  big

(* Rank-windowed closure over the contracted graph. *)
let cclosure t ~dir ~keep start =
  let tbl = match dir with `F -> t.csucc | `B -> t.cpred in
  let seen = Hashtbl.create 16 in
  let stack = Stack.create () in
  if keep start then begin
    Hashtbl.replace seen start ();
    Stack.push start stack
  end;
  while not (Stack.is_empty stack) do
    let c = Stack.pop stack in
    Obs.incr t.obs Obs.K.nodes_visited;
    (* Sorted: the expansion order reaches the trace via frontier_expand. *)
    List.iter
      (fun (d, _) ->
        Obs.incr t.obs Obs.K.edges_relaxed;
        if (not (Hashtbl.mem seen d)) && keep d then begin
          Hashtbl.replace seen d ();
          Obs.incr t.obs Obs.K.queue_pushes;
          (* "node" here is a component id — the unit ranks live on. *)
          Tracer.frontier_expand t.trace ~node:d;
          Stack.push d stack
        end)
      (Obs.sorted_bindings ~compare:Int.compare (adj tbl c))
  done;
  seen

(* Restore the rank invariant after inserting contracted edge (cu, cv) with
   r(cu) < r(cv): paper Fig. 7 lines 4-9.

   affr (DFSf) is the forward closure from cv among ranks > r(cu); affl
   (DFSb) is the backward closure from cu among ranks < r(cv). Because ranks
   strictly decrease along every other edge, affr ⊆ (r(cu), r(cv)] and
   affl ⊆ [r(cu), r(cv)), and the components that must merge are exactly
   those on a cv ⇝ cu path: (affr ∩ affl) ∪ {cu, cv}, nonempty iff
   affr ∩ affl ≠ ∅ or the edge (cv, cu) exists.

   Rank reallocation follows the paper's reallocRank: the region's existing
   labels are reassigned ascending, first to affr sorted by previous rank,
   then to affl sorted by previous rank. Keeping each side's previous
   relative order is what makes every affr label weakly decrease and every
   affl label weakly increase, which is the Pearce–Kelly argument that no
   edge into or out of the region can become violated. *)
let resolve_violation t cu cv =
  let r_cu = Rank.value t.rank cu and r_cv = Rank.value t.rank cv in
  let affr =
    cclosure t ~dir:`F ~keep:(fun c -> Rank.value t.rank c > r_cu) cv
  in
  let affl =
    cclosure t ~dir:`B ~keep:(fun c -> Rank.value t.rank c < r_cv) cu
  in
  let elements tbl =
    List.map fst (Obs.sorted_bindings ~compare:Int.compare tbl)
  in
  let by_old_rank cs =
    List.sort
      (fun a b -> Int.compare (Rank.value t.rank a) (Rank.value t.rank b))
      cs
  in
  let inter = List.filter (fun c -> Hashtbl.mem affl c) (elements affr) in
  let region_size = Hashtbl.length affr + Hashtbl.length affl in
  t.st.rank_moves <- t.st.rank_moves + region_size;
  t.st.violations <- t.st.violations + 1;
  Obs.add t.obs Obs.K.aff region_size;
  Obs.add t.obs "rank_moves" region_size;
  Obs.incr t.obs "violations";
  if Tracer.enabled t.trace then begin
    List.iter
      (fun c -> Tracer.aff_enter t.trace ~node:c ~rule:Tracer.Scc_rank_swap)
      (elements affr);
    List.iter
      (fun c ->
        if not (Hashtbl.mem affr c) then
          Tracer.aff_enter t.trace ~node:c ~rule:Tracer.Scc_rank_swap)
      (elements affl)
  end;
  let direct_back_edge = Hashtbl.mem (adj t.csucc cv) cu in
  if inter = [] && not direct_back_edge then begin
    if Tracer.enabled t.trace then
      Tracer.cert_rewrite t.trace ~node:cu ~field:"rank"
        ~before:(Printf.sprintf "r(cu)=%d r(cv)=%d" r_cu r_cv)
        ~after:(Printf.sprintf "reallocated region=%d" region_size);
    (* No cycle: pure reallocation. *)
    let order = by_old_rank (elements affr) @ by_old_rank (elements affl) in
    Rank.reassign t.rank order
  end
  else begin
    if Tracer.enabled t.trace then
      Tracer.cert_rewrite t.trace ~node:cu ~field:"rank"
        ~before:(Printf.sprintf "r(cu)=%d r(cv)=%d" r_cu r_cv)
        ~after:(Printf.sprintf "cycle-merged region=%d" region_size);
    let merge_set = Hashtbl.create 8 in
    List.iter (fun c -> Hashtbl.replace merge_set c ()) (cu :: cv :: inter);
    let to_merge =
      List.map fst (Obs.sorted_bindings ~compare:Int.compare merge_set)
    in
    let pool =
      elements affr
      @ List.filter (fun c -> not (Hashtbl.mem affr c)) (elements affl)
    in
    let rest tbl =
      by_old_rank
        (List.filter (fun c -> not (Hashtbl.mem merge_set c)) (elements tbl))
    in
    let affr_rest = rest affr and affl_rest = rest affl in
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

let insert_inter t cu cv =
  cadd t cu cv 1;
  if Rank.compare_items t.rank cu cv < 0 then resolve_violation t cu cv

(* An intra-component insertion changes neither the output nor the validity
   of the recorded certificate: the certificate is a Tarjan run over the
   edges present when it was computed, and that edge subset already proves
   the component strongly connected. Later deletions of *other* edges keep
   it valid, and deleting the new edge itself can never split (the
   certificate does not use it). So lazily configured engines do nothing;
   the eager configuration refreshes so the new edge joins the certificate
   (DynSCC-style structure upkeep). *)
let insert_intra t c = if t.cfg.eager_cert then refresh_cert t c

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
   reachability check). Early-exits as soon as [v] is found. *)
let still_connected t c u v =
  Ig_graph.Traverse.reaches ~within:(fun x -> comp_of t x = c) t.g u v

let delete_intra t c u v =
  if
    t.cfg.delete_fast_path
    && (not (Hashtbl.mem t.dirty c))
    && cert_survives_delete t u v
  then begin
    t.st.fast_deletes <- t.st.fast_deletes + 1;
    Obs.incr t.obs "fast_deletes"
  end
  else if still_connected t c u v then
    (* Output unchanged; the certificate no longer reflects reality, so
       later deletions must re-check until a recomputation refreshes it. *)
    Hashtbl.replace t.dirty c ()
  else recert_or_split t c

(* ---- Nodes ------------------------------------------------------------ *)

let add_node t label =
  let v = Digraph.add_node t.g label in
  ignore (Vec.push t.certs (Tarjan.fresh_cert ()));
  ignore (Vec.push t.comp_of (-1));
  let c = alloc_comp t [ v ] in
  Rank.insert_top t.rank c;
  v

(* ---- Batch updates (IncSCC) ------------------------------------------ *)

(* IncSCCn: one unit update at a time, in batch order, each taking the
   paper's IncSCC+ / IncSCC− step on its own. *)
let apply_unit t = function
  | Digraph.Insert (u, v) ->
      if Digraph.add_edge t.g u v then begin
        Obs.note_changed_input t.obs 1;
        let cu = comp_of t u and cv = comp_of t v in
        if cu = cv then insert_intra t cu else insert_inter t cu cv
      end
  | Digraph.Delete (u, v) ->
      if Digraph.remove_edge t.g u v then begin
        Obs.note_changed_input t.obs 1;
        let cu = comp_of t u and cv = comp_of t v in
        if cu <> cv then cremove t cu cv 1 else delete_intra t cu u v
      end

let apply_batch_grouped t updates =
  (* Classify the batch's net effect against the components at batch
     start; the phases below reorder updates, which is sound only once no
     edge is updated twice. Each class is processed newest first. *)
  let is_intra (u, v) = comp_of t u = comp_of t v in
  let dels, inss = Digraph.net_effect updates in
  let intra_del, inter_del = List.partition is_intra (List.rev dels) in
  let intra_ins, inter_ins = List.partition is_intra (List.rev inss) in
  (* (a) Intra-component phase: apply everything to G, then run local
     Tarjan at most once per affected component. *)
  List.iter
    (fun (u, v) ->
      if Digraph.add_edge t.g u v then begin
        Obs.note_changed_input t.obs 1;
        insert_intra t (comp_of t u)
      end)
    intra_ins;
  let del_by_comp = Hashtbl.create 8 in
  List.iter
    (fun (u, v) ->
      if Digraph.remove_edge t.g u v then begin
        Obs.note_changed_input t.obs 1;
        let c = comp_of t u in
        let cur =
          Option.value ~default:[] (Hashtbl.find_opt del_by_comp c)
        in
        Hashtbl.replace del_by_comp c ((u, v) :: cur)
      end)
    intra_del;
  (* Sorted: recert order reaches the trace via local Tarjan's aff_enter. *)
  List.iter
    (fun (c, dels) ->
      let survives =
        t.cfg.delete_fast_path
        && (not (Hashtbl.mem t.dirty c))
        && List.for_all (fun (u, v) -> cert_survives_delete t u v) dels
      in
      if survives then begin
        t.st.fast_deletes <- t.st.fast_deletes + List.length dels;
        Obs.add t.obs "fast_deletes" (List.length dels)
      end
      else recert_or_split t c)
    (Obs.sorted_bindings ~compare:Int.compare del_by_comp);
  (* (b) Inter-component phase: deletions first, then insertions one at a
     time (each restores the rank invariant before the next is added). *)
  List.iter
    (fun (u, v) ->
      if Digraph.remove_edge t.g u v then begin
        Obs.note_changed_input t.obs 1;
        cremove t (comp_of t u) (comp_of t v) 1
      end)
    inter_del;
  List.iter
    (fun (u, v) ->
      if Digraph.add_edge t.g u v then begin
        Obs.note_changed_input t.obs 1;
        let cu = comp_of t u and cv = comp_of t v in
        (* Equal components mean an earlier insertion in this batch merged
           them; the merge already dirtied (or refreshed) the certificate,
           so this is now an ordinary intra-component insertion. *)
        if cu = cv then insert_intra t cu else insert_inter t cu cv
      end)
    inter_ins

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  Obs.with_span t.obs "scc.process" (fun () ->
      Tracer.with_span t.trace "scc.process" (fun () ->
          if t.cfg.group_batch then apply_batch_grouped t updates
          else List.iter (apply_unit t) updates));
  flush_delta t

(* ---- Construction and queries ----------------------------------------- *)

let init ?(config = inc_config) ?(obs = Obs.noop) ?(trace = Tracer.noop) g =
  Digraph.instrument ~obs ~trace g;
  let n = Digraph.n_nodes g in
  let certs = Vec.create () in
  for _ = 1 to n do
    ignore (Vec.push certs (Tarjan.fresh_cert ()))
  done;
  let comp_vec = if n = 0 then Vec.create () else Vec.make n (-1) in
  let t =
    {
      g;
      cfg = config;
      obs;
      trace;
      certs;
      comp_of = comp_vec;
      members = Hashtbl.create 64;
      msize = Hashtbl.create 64;
      dsu = Hashtbl.create 64;
      csucc = Hashtbl.create 64;
      cpred = Hashtbl.create 64;
      rank = Rank.create ();
      dirty = Hashtbl.create 16;
      next_comp = 0;
      born = Hashtbl.create 16;
      died = Hashtbl.create 16;
      st = { cert_nodes = 0; rank_moves = 0; fast_deletes = 0; violations = 0 };
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
    (fun u v ->
      let cu = comp_of t u and cv = comp_of t v in
      if cu <> cv then cadd t cu cv 1)
    g;
  (* The initial state is the baseline, not a delta. *)
  Hashtbl.reset t.born;
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
  (* Contracted counters match the graph. *)
  let expected = Hashtbl.create 64 in
  Digraph.iter_edges
    (fun u v ->
      let cu = comp_of t u and cv = comp_of t v in
      if cu <> cv then
        Hashtbl.replace expected (cu, cv)
          (1 + Option.value ~default:0 (Hashtbl.find_opt expected (cu, cv))))
    t.g;
  (Hashtbl.iter [@lint.allow "D2"])
    (fun c h ->
      (Hashtbl.iter [@lint.allow "D2"])
        (fun d cnt ->
          if Option.value ~default:0 (Hashtbl.find_opt expected (c, d)) <> cnt
          then fail "csucc counter (%d,%d)=%d wrong" c d cnt)
        h)
    t.csucc;
  (Hashtbl.iter [@lint.allow "D2"])
    (fun (c, d) cnt ->
      let got =
        Option.value ~default:0 (Hashtbl.find_opt (adj t.csucc c) d)
      in
      if got <> cnt then fail "csucc missing (%d,%d)" c d;
      let got' =
        Option.value ~default:0 (Hashtbl.find_opt (adj t.cpred d) c)
      in
      if got' <> cnt then fail "cpred missing (%d,%d)" c d)
    expected;
  (* Ranks strictly decrease along contracted edges. *)
  (Hashtbl.iter [@lint.allow "D2"])
    (fun c h ->
      (Hashtbl.iter [@lint.allow "D2"])
        (fun d _ ->
          if Rank.compare_items t.rank c d <= 0 then
            fail "rank invariant violated on (%d,%d)" c d)
        h)
    t.csucc

let pp_debug ppf t =
  Format.fprintf ppf "@[<v>components:@,";
  let comps = List.map fst (Obs.sorted_bindings ~compare:Int.compare t.members) in
  List.iter
    (fun c ->
      Format.fprintf ppf "  comp %d rank=%d members=[%s] succ=[%s]@," c
        (Rank.value t.rank c)
        (String.concat ";"
           (List.map string_of_int (members_to_list (members_of t c))))
        (String.concat ";"
           (List.map
              (fun (d, cnt) -> Printf.sprintf "%d(x%d)" d cnt)
              (Obs.sorted_bindings ~compare:Int.compare (adj t.csucc c)))))
    comps;
  Format.fprintf ppf "@]"

let contracted t =
  let comps =
    List.sort
      (fun a b -> Int.compare (Rank.value t.rank a) (Rank.value t.rank b))
      (List.map fst (Obs.sorted_bindings ~compare:Int.compare t.members))
  in
  let gc = Ig_graph.Digraph.create ~hint:(List.length comps) () in
  let index = Hashtbl.create 64 in
  let members =
    Array.of_list
      (List.map
         (fun c ->
           let id = Ig_graph.Digraph.add_node gc "scc" in
           Hashtbl.replace index c id;
           members_to_list (members_of t c))
         comps)
  in
  (* Order-free: edge-set insertion commutes; gc iteration is sorted. *)
  (Hashtbl.iter [@lint.allow "D2"])
    (fun c h ->
      let cid = Hashtbl.find index c in
      (Hashtbl.iter [@lint.allow "D2"])
        (fun d _ ->
          ignore (Ig_graph.Digraph.add_edge gc cid (Hashtbl.find index d)))
        h)
    t.csucc;
  (gc, members)

(* Canonical text dump of the live state. The cert section is documented
   evidence, not a correctness carrier: lazily maintained Tarjan certs are
   history-dependent, so recovery re-derives them by replay rather than
   trusting these bytes. Sorted iteration keeps the dump hash-seed
   independent. *)
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
  let live =
    List.filter
      (fun c -> dsu_find t c = c)
      (List.map fst (Obs.sorted_bindings ~compare:Int.compare t.members))
  in
  let rk = Buffer.create 64 in
  List.iter
    (fun c -> Buffer.add_string rk (Printf.sprintf "c%d\n" c))
    (List.sort (Rank.compare_items t.rank)
       (List.filter (Rank.mem t.rank) live));
  let cs = Buffer.create 128 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt t.csucc c with
      | None -> ()
      | Some h ->
          let counts = Hashtbl.create 8 in
          List.iter
            (fun (d, k) ->
              let d = dsu_find t d in
              if d <> c then
                Hashtbl.replace counts d
                  (k + Option.value ~default:0 (Hashtbl.find_opt counts d)))
            (Obs.sorted_bindings ~compare:Int.compare h);
          List.iter
            (fun (d, k) ->
              Buffer.add_string cs (Printf.sprintf "c%d -> c%d x%d\n" c d k))
            (Obs.sorted_bindings ~compare:Int.compare counts))
    live;
  [
    ("comp", Buffer.contents comp);
    ("cert", Buffer.contents cb);
    ("ranks", Buffer.contents rk);
    ("csucc", Buffer.contents cs);
  ]
