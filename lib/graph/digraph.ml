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

   When the overlay exceeds [max 64 (n_edges/8)] live entries after an
   [add_edge], a [remove_edge] or a whole [apply_net] batch, the graph
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
let overlay_size g = g.overlay_adds + g.overlay_dels

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

let rec mem_sorted (x : int) = function
  | [] -> false
  | y :: tl -> if y < x then mem_sorted x tl else y = x

(* [insert_sorted x l] returns [l] itself when [x] is already there, and
   [remove_sorted x l] when it is not, so one walk both probes and edits:
   the caller reads a no-op as physical equality. *)
let rec insert_sorted (x : int) l =
  match l with
  | [] -> [ x ]
  | y :: tl ->
      if x < y then x :: l
      else if x = y then l
      else
        let tl' = insert_sorted x tl in
        if tl' == tl then l else y :: tl'

let rec remove_sorted (x : int) l =
  match l with
  | [] -> l
  | y :: tl ->
      if y = x then tl
      else if y > x then l
      else
        let tl' = remove_sorted x tl in
        if tl' == tl then l else y :: tl'

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
  let absorbed = overlay_size g in
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

let maybe_compact g =
  if overlay_size g > max 64 (g.n_edges asr 3) then compact g

(* ---- updates ---- *)

(* [link] and [unlink] edit the overlay and the degrees, classifying
   (u, v) in one walk of each row it touches: a tombstone in [succ_del]
   names a base edge (del ⊆ base), an entry in [succ_add] an overlay edge
   (add ∩ base = ∅), and otherwise one binary search of the base row
   decides. [false] means the edge was already present (absent). *)

let link g u v =
  let dels = Vec.get g.succ_del u in
  let dels' = remove_sorted v dels in
  (if dels' != dels then begin
     (* A tombstoned base edge coming back: drop the tombstones. *)
     Vec.set g.succ_del u dels';
     Vec.set g.pred_del v (remove_sorted u (Vec.get g.pred_del v));
     g.overlay_dels <- g.overlay_dels - 2;
     true
   end
   else
     (not (in_base g.s_off g.s_adj g.base_n u v))
     &&
     let adds = Vec.get g.succ_add u in
     let adds' = insert_sorted v adds in
     adds' != adds
     && begin
       Vec.set g.succ_add u adds';
       Vec.set g.pred_add v (insert_sorted u (Vec.get g.pred_add v));
       g.overlay_adds <- g.overlay_adds + 2;
       true
     end)
  && begin
    Vec.set g.out_deg u (Vec.get g.out_deg u + 1);
    Vec.set g.in_deg v (Vec.get g.in_deg v + 1);
    g.n_edges <- g.n_edges + 1;
    true
  end

let unlink g u v =
  let adds = Vec.get g.succ_add u in
  let adds' = remove_sorted v adds in
  (if adds' != adds then begin
     Vec.set g.succ_add u adds';
     Vec.set g.pred_add v (remove_sorted u (Vec.get g.pred_add v));
     g.overlay_adds <- g.overlay_adds - 2;
     true
   end
   else
     in_base g.s_off g.s_adj g.base_n u v
     &&
     let dels = Vec.get g.succ_del u in
     let dels' = insert_sorted v dels in
     dels' != dels
     && begin
       Vec.set g.succ_del u dels';
       Vec.set g.pred_del v (insert_sorted u (Vec.get g.pred_del v));
       g.overlay_dels <- g.overlay_dels + 2;
       true
     end)
  && begin
    Vec.set g.out_deg u (Vec.get g.out_deg u - 1);
    Vec.set g.in_deg v (Vec.get g.in_deg v - 1);
    g.n_edges <- g.n_edges - 1;
    true
  end

(* Each effective mutation counts one unit of |ΔG| on the instrumented
   sink, so an engine's changed-input count is its graph's; a no-op
   counts nothing. *)

let add_edge g u v =
  check_node g u;
  check_node g v;
  link g u v
  && begin
    Obs.note_changed_input g.obs 1;
    note_overlay g;
    maybe_compact g;
    true
  end

let remove_edge g u v =
  check_node g u;
  check_node g v;
  unlink g u v
  && begin
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
  if g.n_edges <> 0 || overlay_size g <> 0 then
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
  g.overlay_adds <- 2 * g.n_edges;
  compact g

let apply g = function
  | Insert (u, v) -> add_edge g u v
  | Delete (u, v) -> remove_edge g u v

let apply_batch g us = List.iter (fun u -> ignore (apply g u)) us

(* ---- net effect ---- *)

(* The per-domain scratch behind [net_effect] and [apply_net]: an
   open-addressing table over packed keys [u lsl 31 lor v] (-1 = empty),
   linear probing at load ≤ 1/2, one mark byte per slot (bit 0: the edge's
   last update inserts it; bit 1: applying it changed the graph), and the
   filled slots in first-occurrence order. It grows to the largest batch
   seen and is emptied by walking [order], so a batch costs O(|batch|)
   whatever the table's size, and allocates nothing but its result. Each
   call fills and drains it with no callback in between, so one table per
   domain is never shared by two batches at once. *)
type scratch = {
  mutable bits : int; (* log2 of the slot count *)
  mutable keys : int array;
  mutable marks : Bytes.t;
  mutable order : int array; (* half the slot count *)
}

let scratch =
  Domain.DLS.new_key (fun () ->
      { bits = 0; keys = [||]; marks = Bytes.empty; order = [||] })

let node_limit = 1 lsl 31

let clear s n =
  for j = 0 to n - 1 do
    Array.unsafe_set s.keys (Array.unsafe_get s.order j) (-1)
  done

(* Record the last update of each edge [us] touches; returns how many
   distinct edges there are. An endpoint outside [0, limit) empties the
   table and raises before anything else happens. *)
let fill s limit us =
  let len = List.length us in
  if 2 * len > Array.length s.keys then begin
    let bits = ref 4 in
    while 1 lsl !bits < 2 * len do
      incr bits
    done;
    s.bits <- !bits;
    s.keys <- Array.make (1 lsl !bits) (-1);
    s.marks <- Bytes.make (1 lsl !bits) '\000';
    s.order <- Array.make (1 lsl (!bits - 1)) 0
  end;
  let keys = s.keys and mask = Array.length s.keys - 1 and shift = 63 - s.bits in
  let record n u v ins =
    if u < 0 || u >= limit || v < 0 || v >= limit then begin
      clear s n;
      invalid_arg "Digraph: unknown node"
    end;
    let k = (u lsl 31) lor v in
    (* Fibonacci hashing: the top [bits] bits of k times an odd constant. *)
    let i = ref ((k * 0x278DDE6E5FD29F05) lsr shift) in
    while
      let x = Array.unsafe_get keys !i in
      x <> -1 && x <> k
    do
      i := (!i + 1) land mask
    done;
    let i = !i in
    Bytes.unsafe_set s.marks i (Char.unsafe_chr ins);
    if Array.unsafe_get keys i = k then n
    else begin
      Array.unsafe_set keys i k;
      Array.unsafe_set s.order n i;
      n + 1
    end
  in
  let rec go n = function
    | [] -> n
    | Insert (u, v) :: rest -> go (record n u v 1) rest
    | Delete (u, v) :: rest -> go (record n u v 0) rest
  in
  go 0 us

(* The recorded edges whose mark has every bit of [want], as
   [(deletions, insertions)] in first-occurrence order; empties the table. *)
let drain s n want =
  let dels = ref [] and inss = ref [] in
  for j = n - 1 downto 0 do
    let i = Array.unsafe_get s.order j in
    let k = Array.unsafe_get s.keys i
    and m = Char.code (Bytes.unsafe_get s.marks i) in
    Array.unsafe_set s.keys i (-1);
    if m land want = want then begin
      let e = (k lsr 31, k land (node_limit - 1)) in
      if m land 1 = 1 then inss := e :: !inss else dels := e :: !dels
    end
  done;
  (!dels, !inss)

let net_effect us =
  let s = Domain.DLS.get scratch in
  drain s (fill s node_limit us) 0

let apply_net g us =
  let s = Domain.DLS.get scratch in
  let n = fill s (min (n_nodes g) node_limit) us in
  (* Deletions, then insertions, each in first-occurrence order; bit 1
     marks the ones that changed the graph. The overlay may pass the
     compaction threshold mid-batch (deletions first tombstone edges that
     later insertions bring back), so compaction is decided once, after. *)
  let pass ins changed =
    let changed = ref changed in
    for j = 0 to n - 1 do
      let i = Array.unsafe_get s.order j in
      let m = Char.code (Bytes.unsafe_get s.marks i) in
      if m land 1 = ins then begin
        let k = Array.unsafe_get s.keys i in
        let u = k lsr 31 and v = k land (node_limit - 1) in
        if if ins = 1 then link g u v else unlink g u v then begin
          Bytes.unsafe_set s.marks i (Char.unsafe_chr (m lor 2));
          incr changed
        end
      end
    done;
    !changed
  in
  (match pass 1 (pass 0 0) with
  | 0 -> ()
  | changed ->
      Obs.note_changed_input g.obs changed;
      note_overlay g;
      maybe_compact g
  | exception e ->
      clear s n;
      raise e);
  drain s n 2

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
