(* Differential battery for the graph core: [Digraph] driven through op
   sequences — distilled from the unit tests in test_graph.ml plus seeded
   random streams — against a test-local reference model (a label array
   and a set of edges), with every observable view (sorted adjacency,
   degrees, labels, the label index, edge membership, operation return
   values) compared byte for byte after every op, including immediately
   around forced [Digraph.compact] points.

   The qcheck properties pin the overlay laws: compact is a semantic
   no-op and idempotent; arbitrary interleavings of insert / delete /
   absent-delete / duplicate-insert / compact agree with a batch-built
   graph; copy of an un-compacted graph is deep — pending deltas are
   preserved and the copy is independent of the original; the journal's
   graph digest sees only the labelled nodes and the edge set; the bulk
   load behind [Io.of_string] builds the same graph as [add_edge] does,
   edge by edge; and [apply_net] applies, returns and counts as |ΔG|
   exactly the batch's effective net changes, batch after batch on one
   graph, runs at most one compaction per call (IncSCC's [apply_batch]
   too), and rejects an unknown node before it touches the graph. *)

open Ig_graph

let check = Alcotest.check

(* ---- op language ---------------------------------------------------------- *)

type op =
  | Add_node of string
  | Ins of int * int (* endpoints reduced modulo the current node count *)
  | Del of int * int
  | Compact

let pp_op = function
  | Add_node l -> Printf.sprintf "node %s" l
  | Ins (u, v) -> Printf.sprintf "+%d-%d" u v
  | Del (u, v) -> Printf.sprintf "-%d-%d" u v
  | Compact -> "compact"

(* Apply one op and render its result, so return values (new-edge flags,
   node ids) are part of the differential comparison, not just the state. *)
let apply_op g op =
  let n = Digraph.n_nodes g in
  match op with
  | Add_node l -> Printf.sprintf "node=%d" (Digraph.add_node g l)
  | Ins (u, v) ->
      if n = 0 then "skip"
      else Printf.sprintf "ins=%b" (Digraph.add_edge g (u mod n) (v mod n))
  | Del (u, v) ->
      if n = 0 then "skip"
      else Printf.sprintf "del=%b" (Digraph.remove_edge g (u mod n) (v mod n))
  | Compact ->
      Digraph.compact g;
      "compacted"

(* ---- the reference model ---------------------------------------------------- *)

module Edges = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) = if a <> c then Int.compare a c else Int.compare b d
end)

type model = { mutable labels : string array; mutable edges : Edges.t }

let model_apply m op =
  let n = Array.length m.labels in
  let toggle ~ins u v =
    let e = (u mod n, v mod n) in
    let changed = Edges.mem e m.edges <> ins in
    if changed then
      m.edges <- (if ins then Edges.add else Edges.remove) e m.edges;
    changed
  in
  match op with
  | Add_node l ->
      m.labels <- Array.append m.labels [| l |];
      Printf.sprintf "node=%d" n
  | Ins (u, v) ->
      if n = 0 then "skip" else Printf.sprintf "ins=%b" (toggle ~ins:true u v)
  | Del (u, v) ->
      if n = 0 then "skip" else Printf.sprintf "del=%b" (toggle ~ins:false u v)
  | Compact -> "compacted"

(* ---- the observable view --------------------------------------------------- *)

(* Everything a client can see, rendered canonically: node/edge counts,
   per-node label, degrees and sorted adjacency in both directions, the
   label index (most-recent-first), and — via an explicit membership
   sweep — the edge relation, which exercises the base binary search plus
   add/tombstone overlay paths independently of the merge iterators. *)
let render ~n ~m ~name ~out_deg ~in_deg ~succs ~preds ~with_label ~mem =
  let buf = Buffer.create 512 in
  let show l = String.concat "," (List.map string_of_int l) in
  Buffer.add_string buf (Printf.sprintf "n=%d m=%d\n" n m);
  for v = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d:%s out=%d in=%d s=[%s] p=[%s]\n" v (name v)
         (out_deg v) (in_deg v) (show (succs v)) (show (preds v)))
  done;
  let seen = Hashtbl.create 8 in
  for v = 0 to n - 1 do
    if not (Hashtbl.mem seen (name v)) then begin
      Hashtbl.replace seen (name v) ();
      Buffer.add_string buf
        (Printf.sprintf "L:%s=[%s]\n" (name v) (show (with_label v)))
    end
  done;
  if n <= 48 then begin
    Buffer.add_string buf "mem=";
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if mem u v then Buffer.add_string buf (Printf.sprintf "%d-%d;" u v)
      done
    done;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let view g =
  let walk iter v =
    let acc = ref [] in
    iter (fun w -> acc := w :: !acc) g v;
    List.rev !acc
  in
  render ~n:(Digraph.n_nodes g) ~m:(Digraph.n_edges g)
    ~name:(Digraph.label_name g) ~out_deg:(Digraph.out_degree g)
    ~in_deg:(Digraph.in_degree g) ~succs:(walk Digraph.iter_succ)
    ~preds:(walk Digraph.iter_pred)
    ~with_label:(fun v -> Digraph.nodes_with_label g (Digraph.label g v))
    ~mem:(Digraph.mem_edge g)

let model_view md =
  let n = Array.length md.labels in
  let es = Edges.elements md.edges in
  let succs v = List.filter_map (fun (a, b) -> if a = v then Some b else None) es in
  let preds v =
    List.sort Int.compare
      (List.filter_map (fun (a, b) -> if b = v then Some a else None) es)
  in
  render ~n ~m:(Edges.cardinal md.edges) ~name:(Array.get md.labels)
    ~out_deg:(fun v -> List.length (succs v))
    ~in_deg:(fun v -> List.length (preds v))
    ~succs ~preds
    ~with_label:(fun v ->
      List.filter
        (fun u -> md.labels.(u) = md.labels.(v))
        (List.init n (fun i -> n - 1 - i)))
    ~mem:(fun u v -> Edges.mem (u, v) md.edges)

(* ---- the differential runner ----------------------------------------------- *)

(* Drive the graph and the model through [ops]; with [compact_every = k > 0]
   the graph is additionally compacted every k ops, so views are compared
   both right after and right before forced compaction points. *)
let run_diff ?(compact_every = 0) ops =
  let g = Digraph.create () in
  let md = { labels = [||]; edges = Edges.empty } in
  List.iteri
    (fun i op ->
      let rg = apply_op g op and rm = model_apply md op in
      if rg <> rm then
        Alcotest.failf "op %d (%s): results diverge: graph %s, model %s" i
          (pp_op op) rg rm;
      if compact_every > 0 && (i + 1) mod compact_every = 0 then
        Digraph.compact g;
      let vg = view g and vm = model_view md in
      if vg <> vm then
        Alcotest.failf "op %d (%s): views diverge\n--- graph\n%s--- model\n%s"
          i (pp_op op) vg vm)
    ops;
  g

(* ---- distilled unit sequences ---------------------------------------------- *)

(* The Digraph cases of test_graph.ml, replayed as op streams: basics
   (duplicate insert, shared labels), remove (absent delete), degrees,
   self loops, and the apply-batch sequence. *)
let distilled =
  [
    ( "basics",
      [ Add_node "a"; Add_node "b"; Add_node "a"; Ins (0, 1); Ins (0, 1) ] );
    ( "remove",
      [
        Add_node "x"; Add_node "x"; Add_node "x";
        Ins (0, 1); Ins (1, 2);
        Del (0, 1); Del (0, 1); Del (2, 0);
      ] );
    ( "degrees",
      [
        Add_node "a"; Add_node "b"; Add_node "c";
        Ins (0, 1); Ins (0, 2); Ins (1, 2);
      ] );
    ("self loop", [ Add_node "a"; Ins (0, 0); Del (0, 0); Ins (0, 0) ]);
    ( "apply batch",
      [
        Add_node "x"; Add_node "x"; Add_node "x";
        Ins (0, 1); Ins (1, 2);
        Del (0, 1); Ins (2, 0); Ins (2, 0);
      ] );
    ( "tombstone undelete",
      (* Exercise base-row tombstones: build, compact, delete from base,
         re-insert (undelete), delete again, around more compacts. *)
      [
        Add_node "a"; Add_node "b"; Add_node "c"; Add_node "d";
        Ins (0, 1); Ins (0, 2); Ins (0, 3); Ins (1, 2); Ins (2, 3);
        Compact;
        Del (0, 2); Ins (0, 2); Del (0, 2); Del (0, 1);
        Compact; Compact;
        Ins (0, 1); Ins (3, 0);
      ] );
  ]

let distilled_cases =
  List.map
    (fun (name, ops) ->
      Alcotest.test_case name `Quick (fun () ->
          ignore (run_diff ops);
          ignore (run_diff ~compact_every:1 ops);
          ignore (run_diff ~compact_every:3 ops)))
    distilled

(* ---- seeded random streams -------------------------------------------------- *)

let random_ops ~seed ~steps =
  let rng = Random.State.make [| 0xba; seed |] in
  let labels = [| "a"; "b"; "c" |] in
  List.init steps (fun _ ->
      let r = Random.State.int rng 100 in
      if r < 10 then Add_node labels.(Random.State.int rng 3)
      else if r < 55 then
        Ins (Random.State.int rng 64, Random.State.int rng 64)
      else if r < 95 then
        Del (Random.State.int rng 64, Random.State.int rng 64)
      else Compact)

let random_cases =
  List.concat_map
    (fun seed ->
      List.map
        (fun compact_every ->
          Alcotest.test_case
            (Printf.sprintf "seed %d, compact every %d" seed compact_every)
            `Quick
            (fun () ->
              let ops = Add_node "a" :: random_ops ~seed ~steps:400 in
              ignore (run_diff ~compact_every ops)))
        [ 0; 7 ])
    [ 1; 2; 3 ]

(* ---- copy / hint regressions ------------------------------------------------ *)

(* Copy of a graph with a non-empty overlay must preserve the pending
   deltas, and the copy must be fully independent of the original (both
   directions). *)
let test_copy_preserves_overlay () =
  let ops = Add_node "a" :: random_ops ~seed:11 ~steps:300 in
  let gc = run_diff ops in
  (* Grow a fresh overlay on top of whatever state the stream left. *)
  let n = Digraph.n_nodes gc in
  for i = 0 to 9 do
    ignore (Digraph.add_edge gc (i mod n) ((i * 7 + 1) mod n))
  done;
  check Alcotest.bool "overlay pending" true (Digraph.overlay_size gc > 0);
  let v0 = view gc in
  let c = Digraph.copy gc in
  check Alcotest.string "copy sees pending deltas" v0 (view c);
  (* Mutate the original: the copy must not move. *)
  ignore (Digraph.add_edge gc (n - 1) 0);
  ignore (Digraph.remove_edge gc 0 ((0 * 7 + 1) mod n));
  Digraph.compact gc;
  check Alcotest.string "copy independent of original" v0 (view c);
  (* Mutate and compact the copy: same view modulo the mutation, and the
     original's new state is untouched. *)
  let vg = view gc in
  Digraph.compact c;
  check Alcotest.string "compacting the copy is a no-op" v0 (view c);
  ignore (Digraph.remove_edge c 0 1);
  check Alcotest.string "original independent of copy" vg (view gc)

let test_hint_presizes () =
  (* ~hint pre-sizes internal storage without changing any observable
     state; over- and under-shooting must both be safe. *)
  List.iter
    (fun hint ->
      let g = Digraph.create ~hint () in
      check Alcotest.int "empty" 0 (Digraph.n_nodes g);
      for _ = 1 to 40 do
        ignore (Digraph.add_node g "x")
      done;
      for i = 0 to 38 do
        ignore (Digraph.add_edge g i (i + 1))
      done;
      check Alcotest.int "nodes" 40 (Digraph.n_nodes g);
      check Alcotest.int "edges" 39 (Digraph.n_edges g);
      check Alcotest.bool "member" true (Digraph.mem_edge g 0 1))
    [ 0; 1; 8; 100 ]

(* ---- qcheck properties ------------------------------------------------------ *)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> Add_node [| "a"; "b"; "c" |].(i)) (int_bound 2));
        (8, map2 (fun u v -> Ins (u, v)) (int_bound 40) (int_bound 40));
        (5, map2 (fun u v -> Del (u, v)) (int_bound 40) (int_bound 40));
        (1, return Compact);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(
      map (fun ops -> Add_node "a" :: ops) (list_size (int_bound 150) gen_op))

let graph_of ops =
  let g = Digraph.create () in
  List.iter (fun op -> ignore (apply_op g op)) ops;
  g

(* Build a semantically equal graph from scratch in one pass: nodes in id
   order, surviving edges in sorted order, one final compact. *)
let batch_rebuild g =
  let b = Digraph.create ~hint:(Digraph.n_nodes g) () in
  for v = 0 to Digraph.n_nodes g - 1 do
    ignore (Digraph.add_node b (Digraph.label_name g v))
  done;
  Digraph.iter_edges (fun u v -> ignore (Digraph.add_edge b u v)) g;
  Digraph.compact b;
  b

let prop_compact_noop =
  QCheck.Test.make ~count:150 ~name:"compact is a semantic no-op, idempotent"
    arb_ops (fun ops ->
      let g = graph_of ops in
      let v0 = view g in
      Digraph.compact g;
      let v1 = view g in
      let drained = Digraph.overlay_size g = 0 in
      Digraph.compact g;
      v0 = v1 && drained && view g = v1)

let prop_interleavings_agree =
  QCheck.Test.make ~count:150
    ~name:"arbitrary op interleavings agree with a batch-built graph"
    arb_ops (fun ops ->
      let g = graph_of ops in
      view g = view (batch_rebuild g))

let prop_copy_deep =
  QCheck.Test.make ~count:150
    ~name:"copy of an un-compacted csr graph is deep and independent"
    arb_ops (fun ops ->
      let g = graph_of ops in
      let v0 = view g in
      let c = Digraph.copy g in
      (* Diverge both sides, then check neither saw the other's writes. *)
      ignore (apply_op g (Ins (1, 3)));
      Digraph.compact g;
      let copy_intact = view c = v0 in
      let vg = view g in
      ignore (apply_op c (Del (0, 0)));
      Digraph.compact c;
      copy_intact && view g = vg)

(* The journal's graph digest reads the labelled nodes and the edge set
   only: a graph built edge by edge, its overlay pending, digests as its
   copy does, as its canonical text parsed back does, as a graph rebuilt
   from its nodes and edges does, and as it does itself after [compact]. *)
let prop_digest_structural =
  QCheck.Test.make ~count:150
    ~name:"graph digest depends only on labelled nodes and edges" arb_ops
    (fun ops ->
      let digest = Ig_journal.Journal.graph_digest in
      let g = graph_of ops in
      let d = digest g in
      let c = Digraph.copy g in
      let parsed = Io.of_string (Io.to_string g) in
      let rebuilt = batch_rebuild g in
      Digraph.compact g;
      d = digest c && d = digest parsed && d = digest rebuilt && d = digest g)

(* A start graph and one to four batches over at most 24 nodes, built from
   steps that make the net effect interesting: insert→delete pairs,
   duplicate inserts, self-loops, and plain updates, deletions of absent
   edges among them. One batch in four has up to 800 updates, so the net
   effect's scratch table grows mid-sequence; the batches after it reuse
   it. *)
let arb_batches =
  QCheck.make
    ~print:(fun (n, edges, batches) ->
      let show (u, v) = Printf.sprintf "%d-%d" u v in
      Printf.sprintf "n=%d edges=[%s] batches=[%s]" n
        (String.concat ";" (List.map show edges))
        (String.concat " | "
           (List.map
              (fun ops ->
                String.concat ";"
                  (List.map (fun (i, e) -> (if i then "+" else "-") ^ show e) ops))
              batches)))
    QCheck.Gen.(
      let* n = int_range 1 24 in
      let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
      let* edges = list_size (int_bound (2 * n)) edge in
      let step =
        frequency
          [
            (3, map (fun e -> [ (true, e) ]) edge);
            (3, map (fun e -> [ (false, e) ]) edge);
            (1, map (fun e -> [ (true, e); (false, e) ]) edge);
            (1, map (fun e -> [ (true, e); (true, e) ]) edge);
            (1, map (fun v -> [ (true, (v, v)) ]) (int_bound (n - 1)));
          ]
      in
      let batch =
        let* len = frequency [ (3, int_bound 12); (1, int_bound 400) ] in
        map List.concat (list_repeat len step)
      in
      let+ batches = list_size (int_range 1 4) batch in
      (n, edges, batches))

let start_graph n edges =
  let g = Digraph.create () in
  for _ = 1 to n do
    ignore (Digraph.add_node g "a")
  done;
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

let to_updates =
  List.map (fun (i, (u, v)) ->
      if i then Digraph.Insert (u, v) else Digraph.Delete (u, v))

(* [apply_net] against the model, batch after batch on one graph: per edge,
   in first-occurrence order, the batch's last update, kept when it
   changes the edge set the batch starts from. The instrumented graph
   counts exactly those changes as |ΔG|; a copy of it counts nothing. *)
let prop_apply_net =
  QCheck.Test.make ~count:300
    ~name:"apply_net applies and counts the model's effective changes"
    arb_batches (fun (n, edges, batches) ->
      let g = start_graph n edges and obs = Ig_obs.Obs.create () in
      Digraph.instrument ~obs g;
      let c = Digraph.copy g and replica = start_graph n edges in
      let step (ok, k) ops =
        let start = Edges.of_list (Digraph.edges replica) in
        let firsts =
          List.fold_left
            (fun acc (_, e) -> if List.mem e acc then acc else acc @ [ e ])
            [] ops
        in
        let last e = fst (List.find (fun (_, e') -> e' = e) (List.rev ops)) in
        let dels =
          List.filter (fun e -> (not (last e)) && Edges.mem e start) firsts
        and inss = List.filter (fun e -> last e && not (Edges.mem e start)) firsts in
        let batch = to_updates ops in
        let net = Digraph.apply_net g batch in
        ignore (Digraph.apply_net c batch);
        Digraph.apply_batch replica batch;
        ( ok
          && net = (dels, inss)
          && Digraph.edges g = Digraph.edges replica
          && Digraph.edges c = Digraph.edges replica,
          k + List.length dels + List.length inss )
      in
      let ok, k = List.fold_left step (true, 0) batches in
      ok
      && Ig_obs.Obs.(counter obs K.changed_input) = k
      && Ig_obs.Obs.(counter obs K.changed) = k)

(* One [apply_net] call decides about compaction once, after the whole
   batch: batches of a few hundred updates push the overlay far past the
   64-entry threshold of these small graphs, yet each call runs at most one
   compaction. IncSCC takes its batches through one [apply_net] call, so
   each of its [apply_batch] calls is held to the same bound. *)
let prop_apply_net_compacts_once =
  QCheck.Test.make ~count:200 ~name:"apply_net compacts at most once a call"
    arb_batches (fun (n, edges, batches) ->
      List.for_all
        (fun start ->
          let obs = Ig_obs.Obs.create () in
          let apply = start ~obs (start_graph n edges) in
          let compactions () = Ig_obs.Obs.(counter obs K.csr_compactions) in
          List.for_all
            (fun ops ->
              let before = compactions () in
              apply (to_updates ops);
              compactions () - before <= 1)
            batches)
        [
          (fun ~obs g ->
            Digraph.instrument ~obs g;
            fun us -> ignore (Digraph.apply_net g us));
          (fun ~obs g ->
            let t = Ig_scc.Inc_scc.init ~obs g in
            fun us -> ignore (Ig_scc.Inc_scc.apply_batch t us));
        ])

(* A batch naming an endpoint that is not a node of the graph raises before
   [apply_net] touches the graph, wherever the bad update sits and whatever
   came before it; the next batch sees a clean net-effect table. *)
let test_apply_net_unknown_node () =
  let g = start_graph 4 [ (0, 1); (1, 2); (2, 3) ] in
  ignore (Digraph.apply_net g [ Digraph.Delete (0, 1); Digraph.Insert (3, 0) ]);
  let before = (Digraph.edges g, Digraph.overlay_size g) in
  List.iter
    (fun bad ->
      let batch =
        [ Digraph.Insert (0, 2); Digraph.Delete (1, 2); bad; Digraph.Insert (2, 0) ]
      in
      Alcotest.check_raises "unknown node" (Invalid_argument "Digraph: unknown node")
        (fun () -> ignore (Digraph.apply_net g batch));
      check
        Alcotest.(pair (list (pair int int)) int)
        "graph unchanged" before
        (Digraph.edges g, Digraph.overlay_size g))
    [
      Digraph.Insert (0, 4);
      Digraph.Delete (4, 0);
      Digraph.Insert (-1, 2);
      Digraph.Delete (2, 1 lsl 31);
    ];
  check
    Alcotest.(pair (list (pair int int)) (list (pair int int)))
    "clean table afterwards"
    ([ (1, 2) ], [ (0, 2) ])
    (Digraph.apply_net g [ Digraph.Insert (0, 2); Digraph.Delete (1, 2) ])

(* Graph text with up to 20 nodes over three labels (so the label index
   has several members per label) and up to 60 edge lines in arbitrary
   order. The small id range yields self-loops and edgeless nodes; every
   third edge line is repeated at the end, so duplicates always occur. *)
let arb_text =
  QCheck.make
    ~print:(fun (labels, edges) ->
      Printf.sprintf "labels=[%s] edges=[%s]" (String.concat "," labels)
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) edges)))
    QCheck.Gen.(
      let* labels = list_size (int_bound 20) (oneofl [ "a"; "b"; "c" ]) in
      let n = List.length labels in
      let+ edges =
        if n = 0 then return []
        else list_size (int_bound 60) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      (labels, edges @ List.filteri (fun i _ -> i mod 3 = 0) edges))

let prop_bulk_load =
  QCheck.Test.make ~count:300
    ~name:"Io.of_string bulk load equals an edge-by-edge build" arb_text
    (fun (labels, edges) ->
      let text =
        String.concat "\n"
          (List.mapi (fun i l -> Printf.sprintf "v %d %s" i l) labels
          @ List.map (fun (u, v) -> Printf.sprintf "e %d %d" u v) edges)
      in
      let bulk = Io.of_string text in
      let g = Digraph.create () in
      List.iter (fun l -> ignore (Digraph.add_node g l)) labels;
      List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
      Digraph.overlay_size bulk = 0 && view bulk = view g)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_backend"
    [
      ("distilled sequences", distilled_cases);
      ("random streams", random_cases);
      ( "copy/hint",
        [
          Alcotest.test_case "copy preserves pending deltas" `Quick
            test_copy_preserves_overlay;
          Alcotest.test_case "hint pre-sizes safely" `Quick test_hint_presizes;
        ] );
      ( "net effect",
        [
          Alcotest.test_case "apply_net rejects an unknown node" `Quick
            test_apply_net_unknown_node;
        ] );
      ( "overlay laws",
        qsuite
          [
            prop_compact_noop;
            prop_interleavings_agree;
            prop_copy_deep;
            prop_digest_structural;
            prop_bulk_load;
            prop_apply_net;
            prop_apply_net_compacts_once;
          ] );
    ]
