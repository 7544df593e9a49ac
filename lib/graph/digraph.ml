(* Mutable node-labeled directed graphs: flat CSR adjacency with a sorted
   delta overlay.

   The base representation is classic compressed-sparse-row, one copy per
   direction: [s_off]/[s_adj] give each node's successor row as a slice of
   one flat Bigarray of ints ([s_adj.{s_off.{v}} .. s_adj.{s_off.{v+1}-1}],
   ascending), and [p_off]/[p_adj] the predecessor rows. Bigarrays live
   off the OCaml heap, so the adjacency of a million-node graph costs the
   GC nothing to scan and iteration is a linear walk over unboxed ints.

   The base arrays are frozen: they describe the graph as of the last
   {!compact} and cover only the first [base_n] nodes (later nodes have
   empty base rows). Mutations land in a small per-node overlay of sorted
   lists, maintained under two invariants:

     add ∩ base = ∅       (an overlay-add is never also a base entry)
     del ⊆ base           (an overlay-del tombstones an existing base entry)

   so membership is: in [add] → present; in [del] → absent; else binary
   search the base row. Iteration is a two-finger merge of the (sorted)
   base row with the add list, skipping tombstones — ascending by
   construction, no per-call sort. Degrees are maintained eagerly in
   [out_deg]/[in_deg], so they stay O(1) regardless of overlay size.

   When the overlay exceeds [max 64 (n_edges/8)] live entries the graph
   recompacts: fresh base arrays are built in O(n + m) by replaying the
   merged rows, and the overlay empties. The geometric gap between
   compactions keeps the amortized per-update cost constant. [compact]
   never mutates the old arrays in place — it installs fresh ones — so
   {!copy} can share the (immutable) base arrays and deep-copy only the
   overlay vectors, making copies O(n) and fully independent. *)

module Obs = Ig_obs.Obs

type node = int
type label = Interner.symbol

type update = Insert of node * node | Delete of node * node
type edge = node * node

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ba_create n : ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

type t = {
  interner : Interner.t;
  labels : label Vec.t;
  by_label : node list Vec.t; (* indexed by symbol; most-recent-first *)
  mutable base_n : int;
  mutable s_off : ba;
  mutable s_adj : ba;
  mutable p_off : ba;
  mutable p_adj : ba;
  succ_add : node list Vec.t;
  succ_del : node list Vec.t;
  pred_add : node list Vec.t;
  pred_del : node list Vec.t;
  out_deg : int Vec.t;
  in_deg : int Vec.t;
  mutable n_edges : int;
  mutable overlay : int; (* live entries across the four overlay tables *)
  mutable overlay_adds : int; (* live entries in the two add tables *)
  mutable overlay_dels : int; (* live tombstones in the two del tables *)
  (* Instrumentation sink, default noop. Engines attach their registry
     at init (via [instrument]) so |ΔG|, overlay pressure and compaction
     cost are observable; [copy] resets it to noop so a scratch/oracle
     copy never pollutes the engine's registry. *)
  mutable obs : Obs.t;
}

let create ?(hint = 16) () =
  let g =
    {
      interner = Interner.create ();
      labels = Vec.create ();
      by_label = Vec.create ();
      base_n = 0;
      s_off = ba_create 0;
      s_adj = ba_create 0;
      p_off = ba_create 0;
      p_adj = ba_create 0;
      succ_add = Vec.create ();
      succ_del = Vec.create ();
      pred_add = Vec.create ();
      pred_del = Vec.create ();
      out_deg = Vec.create ();
      in_deg = Vec.create ();
      n_edges = 0;
      overlay = 0;
      overlay_adds = 0;
      overlay_dels = 0;
      obs = Obs.noop;
    }
  in
  let hint = max 1 hint in
  Vec.reserve g.labels hint 0;
  Vec.reserve g.succ_add hint [];
  Vec.reserve g.succ_del hint [];
  Vec.reserve g.pred_add hint [];
  Vec.reserve g.pred_del hint [];
  Vec.reserve g.out_deg hint 0;
  Vec.reserve g.in_deg hint 0;
  g

let backend _ = `Csr
let backend_name `Csr = "csr"

let instrument ~obs g = g.obs <- obs

(* Overlay pressure as last-write-wins gauges, refreshed after every
   mutation; a single branch each under the noop sink. *)
let note_overlay g =
  if Obs.enabled g.obs then begin
    Obs.set_gauge g.obs Obs.K.csr_overlay_add g.overlay_adds;
    Obs.set_gauge g.obs Obs.K.csr_overlay_del g.overlay_dels
  end

let interner g = g.interner
let intern_label g s = Interner.intern g.interner s
let n_nodes g = Vec.length g.labels
let n_edges g = g.n_edges
let overlay_size g = g.overlay

let mem_node g v = v >= 0 && v < n_nodes g

let check_node g v =
  if not (mem_node g v) then invalid_arg "Digraph: unknown node"

let label g v =
  check_node g v;
  Vec.get g.labels v

let label_name g v = Interner.name g.interner (label g v)

let add_node_sym g l =
  let v = Vec.push g.labels l in
  ignore (Vec.push g.succ_add []);
  ignore (Vec.push g.succ_del []);
  ignore (Vec.push g.pred_add []);
  ignore (Vec.push g.pred_del []);
  ignore (Vec.push g.out_deg 0);
  ignore (Vec.push g.in_deg 0);
  while Vec.length g.by_label <= l do
    ignore (Vec.push g.by_label [])
  done;
  Vec.set g.by_label l (v :: Vec.get g.by_label l);
  v

let add_node g s = add_node_sym g (intern_label g s)

(* ---- sorted overlay lists ---- *)

let rec mem_sorted x = function
  | [] -> false
  | y :: tl -> if y < x then mem_sorted x tl else y = x

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: tl as l ->
      if x < y then x :: l else if x = y then l else y :: insert_sorted x tl

let rec remove_sorted x = function
  | [] -> []
  | y :: tl ->
      if y = x then tl else if y < x then y :: remove_sorted x tl else y :: tl

(* ---- base rows ---- *)

let in_base (off : ba) (adj : ba) base_n v w =
  v < base_n
  &&
  let lo = ref (Bigarray.Array1.unsafe_get off v)
  and hi = ref (Bigarray.Array1.unsafe_get off (v + 1)) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = Bigarray.Array1.unsafe_get adj mid in
    if x = w then found := true else if x < w then lo := mid + 1 else hi := mid
  done;
  !found

(* Merge one (sorted) base row with the add list, skipping tombstones:
   sorted by construction. Tombstones only ever name base entries, so both
   cursors advance in lockstep. *)
let iter_row f (off : ba) (adj : ba) base_n adds dels v =
  let stop = if v < base_n then Bigarray.Array1.unsafe_get off (v + 1) else 0 in
  let rec go i adds dels =
    if i >= stop then List.iter f adds
    else
      let b = Bigarray.Array1.unsafe_get adj i in
      match dels with
      | d :: dtl when d = b -> go (i + 1) adds dtl
      | _ -> (
          match adds with
          | a :: atl when a < b ->
              f a;
              go i atl dels
          | _ ->
              f b;
              go (i + 1) adds dels)
  in
  go (if v < base_n then Bigarray.Array1.unsafe_get off v else 0) adds dels

let iter_succ f g v =
  check_node g v;
  iter_row f g.s_off g.s_adj g.base_n (Vec.get g.succ_add v)
    (Vec.get g.succ_del v) v

let iter_pred f g v =
  check_node g v;
  iter_row f g.p_off g.p_adj g.base_n (Vec.get g.pred_add v)
    (Vec.get g.pred_del v) v

let mem_edge g u v =
  mem_node g u && mem_node g v
  && (mem_sorted v (Vec.get g.succ_add u)
     || in_base g.s_off g.s_adj g.base_n u v
        && not (mem_sorted v (Vec.get g.succ_del u)))

(* ---- compaction ---- *)

let rebuild g (off : ba) (adj : ba) ~adds ~dels ~m =
  let n = n_nodes g in
  let off' = ba_create (n + 1) and adj' = ba_create m in
  let pos = ref 0 in
  for v = 0 to n - 1 do
    Bigarray.Array1.unsafe_set off' v !pos;
    iter_row
      (fun w ->
        Bigarray.Array1.unsafe_set adj' !pos w;
        incr pos)
      off adj g.base_n (Vec.get adds v) (Vec.get dels v) v
  done;
  Bigarray.Array1.unsafe_set off' n !pos;
  assert (!pos = m);
  (off', adj')

let compact g =
  (* Read the clock only when a registry is attached: the noop path must
     stay free of clock syscalls (the zero-overhead acceptance gate). *)
  let absorbed = g.overlay in
  let t0 = if Obs.enabled g.obs then Obs.now_ns () else 0L in
  let n = n_nodes g in
  let s_off, s_adj =
    rebuild g g.s_off g.s_adj ~adds:g.succ_add ~dels:g.succ_del ~m:g.n_edges
  in
  let p_off, p_adj =
    rebuild g g.p_off g.p_adj ~adds:g.pred_add ~dels:g.pred_del ~m:g.n_edges
  in
  g.s_off <- s_off;
  g.s_adj <- s_adj;
  g.p_off <- p_off;
  g.p_adj <- p_adj;
  g.base_n <- n;
  for v = 0 to n - 1 do
    Vec.set g.succ_add v [];
    Vec.set g.succ_del v [];
    Vec.set g.pred_add v [];
    Vec.set g.pred_del v []
  done;
  g.overlay <- 0;
  g.overlay_adds <- 0;
  g.overlay_dels <- 0;
  if Obs.enabled g.obs then begin
    let dt = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) *. 1e-9 in
    (* Both directions rebuilt: 2 offset arrays of n+1 ints and 2
       adjacency arrays of m ints, 8 bytes each. *)
    let bytes = (2 * (n + 1 + g.n_edges)) * 8 in
    Obs.incr g.obs Obs.K.csr_compactions;
    Obs.observe g.obs Obs.K.csr_compact_latency dt;
    Obs.observe g.obs Obs.K.csr_compact_bytes (float_of_int bytes);
    note_overlay g
  end;
  Obs.compaction g.obs ~edges:g.n_edges ~overlay:absorbed

let maybe_compact g = if g.overlay > max 64 (g.n_edges asr 3) then compact g

(* ---- updates ---- *)

(* Each effective mutation counts one unit of |ΔG| on the instrumented
   sink, so an engine's changed-input count is its graph's; a no-op
   counts nothing. *)

let add_edge g u v =
  check_node g u;
  check_node g v;
  if mem_edge g u v then false
  else begin
    (if in_base g.s_off g.s_adj g.base_n u v then begin
       (* A tombstoned base edge coming back: drop the tombstones. *)
       Vec.set g.succ_del u (remove_sorted v (Vec.get g.succ_del u));
       Vec.set g.pred_del v (remove_sorted u (Vec.get g.pred_del v));
       g.overlay <- g.overlay - 2;
       g.overlay_dels <- g.overlay_dels - 2
     end
     else begin
       Vec.set g.succ_add u (insert_sorted v (Vec.get g.succ_add u));
       Vec.set g.pred_add v (insert_sorted u (Vec.get g.pred_add v));
       g.overlay <- g.overlay + 2;
       g.overlay_adds <- g.overlay_adds + 2
     end);
    Vec.set g.out_deg u (Vec.get g.out_deg u + 1);
    Vec.set g.in_deg v (Vec.get g.in_deg v + 1);
    g.n_edges <- g.n_edges + 1;
    Obs.note_changed_input g.obs 1;
    note_overlay g;
    maybe_compact g;
    true
  end

let remove_edge g u v =
  check_node g u;
  check_node g v;
  if not (mem_edge g u v) then false
  else begin
    (if mem_sorted v (Vec.get g.succ_add u) then begin
       Vec.set g.succ_add u (remove_sorted v (Vec.get g.succ_add u));
       Vec.set g.pred_add v (remove_sorted u (Vec.get g.pred_add v));
       g.overlay <- g.overlay - 2;
       g.overlay_adds <- g.overlay_adds - 2
     end
     else begin
       Vec.set g.succ_del u (insert_sorted v (Vec.get g.succ_del u));
       Vec.set g.pred_del v (insert_sorted u (Vec.get g.pred_del v));
       g.overlay <- g.overlay + 2;
       g.overlay_dels <- g.overlay_dels + 2
     end);
    Vec.set g.out_deg u (Vec.get g.out_deg u - 1);
    Vec.set g.in_deg v (Vec.get g.in_deg v - 1);
    g.n_edges <- g.n_edges - 1;
    Obs.note_changed_input g.obs 1;
    note_overlay g;
    maybe_compact g;
    true
  end

(* Every edge lands unsorted on the add overlay (which, on an edgeless
   graph, trivially keeps add ∩ base = ∅), each row is sorted and
   deduplicated once, and one compaction turns the overlay into the base:
   O(m log d) instead of m sorted-list inserts and their compactions. *)
let load_edges g es =
  if g.n_edges <> 0 || g.overlay <> 0 then
    invalid_arg "Digraph.load_edges: graph already has edges";
  List.iter
    (fun (u, v) ->
      check_node g u;
      check_node g v;
      Vec.set g.succ_add u (v :: Vec.get g.succ_add u);
      Vec.set g.pred_add v (u :: Vec.get g.pred_add v))
    es;
  let settle adds deg v =
    let row = List.sort_uniq Int.compare (Vec.get adds v) in
    let d = List.length row in
    Vec.set adds v row;
    Vec.set deg v d;
    d
  in
  for v = 0 to n_nodes g - 1 do
    g.n_edges <- g.n_edges + settle g.succ_add g.out_deg v;
    ignore (settle g.pred_add g.in_deg v)
  done;
  g.overlay <- 2 * g.n_edges;
  g.overlay_adds <- g.overlay;
  compact g

let apply g = function
  | Insert (u, v) -> add_edge g u v
  | Delete (u, v) -> remove_edge g u v

let apply_batch g us = List.iter (fun u -> ignore (apply g u)) us

module Edge_tbl = Hashtbl.Make (struct
  type t = edge

  let equal ((a, b) : t) (c, d) = a = c && b = d
  let hash ((a, b) : t) = Int.hash ((a * 0x9e3779b1) lxor b)
end)

let net_effect us =
  (* Per edge the batch touches, in first-occurrence order: the edge and
     whether its last update inserts it. *)
  let last = Edge_tbl.create (List.length us) and order = ref [] in
  List.iter
    (fun up ->
      let e, ins =
        match up with
        | Insert (u, v) -> ((u, v), true)
        | Delete (u, v) -> ((u, v), false)
      in
      match Edge_tbl.find_opt last e with
      | Some r -> r := ins
      | None ->
          let r = ref ins in
          Edge_tbl.add last e r;
          order := (e, r) :: !order)
    us;
  let dels = ref [] and inss = ref [] in
  List.iter
    (fun (e, r) -> if !r then inss := e :: !inss else dels := e :: !dels)
    !order;
  (!dels, !inss)

let apply_net g us =
  let dels, inss = net_effect us in
  let dels = List.filter (fun (u, v) -> remove_edge g u v) dels in
  let inss = List.filter (fun (u, v) -> add_edge g u v) inss in
  (dels, inss)

(* ---- views ---- *)

let out_degree g v =
  check_node g v;
  Vec.get g.out_deg v

let in_degree g v =
  check_node g v;
  Vec.get g.in_deg v

let iter_nodes f g =
  for v = 0 to n_nodes g - 1 do f v done

let iter_edges f g = iter_nodes (fun u -> iter_succ (fun v -> f u v) g u) g

let succ_list g v =
  let acc = ref [] in
  iter_succ (fun w -> acc := w :: !acc) g v;
  List.rev !acc

let pred_list g v =
  let acc = ref [] in
  iter_pred (fun u -> acc := u :: !acc) g v;
  List.rev !acc

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let nodes_with_label g l =
  if l >= 0 && l < Vec.length g.by_label then Vec.get g.by_label l else []

let copy g =
  (* Base arrays are frozen (compaction installs fresh ones), so they are
     shared; the overlay and index vectors are copied, so the two graphs
     diverge independently from here on. *)
  {
    g with
    labels = Vec.copy g.labels;
    by_label = Vec.copy g.by_label;
    succ_add = Vec.copy g.succ_add;
    succ_del = Vec.copy g.succ_del;
    pred_add = Vec.copy g.pred_add;
    pred_del = Vec.copy g.pred_del;
    out_deg = Vec.copy g.out_deg;
    in_deg = Vec.copy g.in_deg;
    (* A copy is a scratch/oracle graph until someone instruments it:
       inheriting the sinks would double-count compactions and gauges
       against the original engine's registry. *)
    obs = Obs.noop;
  }

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph: %d nodes, %d edges@," (n_nodes g)
    (n_edges g);
  if n_nodes g <= 40 then begin
    iter_nodes
      (fun v -> Format.fprintf ppf "  %d:%s@," v (label_name g v))
      g;
    iter_edges (fun u v -> Format.fprintf ppf "  %d -> %d@," u v) g
  end;
  Format.fprintf ppf "@]"
