(* Tests for batch Tarjan and the IncSCC engine (paper Section 5.3).

   The worked examples of the paper (Examples 6-9) depend on a drawing we
   only have in prose, so each claimed behavior is exercised on a
   purpose-built fixture with the same structure: inter-component insertion
   that merges a cycle in the contracted graph (Example 7), intra-component
   reverse-frond deletion that leaves the component intact (Example 8), and
   frond deletion that splits a component three ways (Example 9). *)

open Ig_graph
module T = Ig_scc.Tarjan
module I = Ig_scc.Inc_scc

let check = Alcotest.check

let norm comps =
  List.sort compare (List.map (fun c -> List.sort compare c) comps)

let comps_t = Alcotest.(list (list int))

let check_comps msg expected actual = check comps_t msg (norm expected) (norm actual)

let graph_of_edges n edges =
  let g = Digraph.create () in
  for _ = 1 to n do
    ignore (Digraph.add_node g "x")
  done;
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

(* ---- batch Tarjan ------------------------------------------------------ *)

let test_tarjan_two_cycles () =
  (* 0-1-2 cycle -> 3-4 cycle *)
  let g =
    graph_of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3) ]
  in
  check_comps "components" [ [ 0; 1; 2 ]; [ 3; 4 ] ] (T.scc g)

let test_tarjan_dag () =
  let g = graph_of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  check_comps "all singletons" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] (T.scc g)

let test_tarjan_self_loop () =
  let g = graph_of_edges 2 [ (0, 0); (0, 1) ] in
  check_comps "self loop" [ [ 0 ]; [ 1 ] ] (T.scc g)

let test_tarjan_order_sinks_first () =
  (* 0 -> 1 -> 2 chain of singletons: output must list 2 before 1 before 0. *)
  let g = graph_of_edges 3 [ (0, 1); (1, 2) ] in
  check comps_t "sinks first" [ [ 2 ]; [ 1 ]; [ 0 ] ] (T.scc g)

let test_tarjan_empty () =
  let g = graph_of_edges 0 [] in
  check comps_t "empty" [] (T.scc g)

let test_tarjan_big_cycle () =
  let n = 5000 in
  (* Also checks the traversal is iterative (no stack overflow). *)
  let edges = List.init n (fun i -> (i, (i + 1) mod n)) in
  let g = graph_of_edges n edges in
  match T.scc g with
  | [ c ] -> check Alcotest.int "one big scc" n (List.length c)
  | cs -> Alcotest.failf "expected 1 component, got %d" (List.length cs)

let test_tarjan_restricted () =
  let g =
    graph_of_edges 6 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2); (3, 4) ]
  in
  let certs = Array.init 6 (fun _ -> T.fresh_cert ()) in
  let groups =
    T.run_with_cert g
      ~restrict:(fun v -> v <= 1)
      ~nodes:[ 0; 1 ]
      ~cert:(fun v -> certs.(v))
  in
  check_comps "restricted run" [ [ 0; 1 ] ] groups

(* ---- IncSCC ------------------------------------------------------------- *)

let engine ?dyn ?obs n edges = I.init ?dyn ?obs (graph_of_edges n edges)

(* Deletions the O(1) witness check resolved, as counted on [obs]. *)
let fast_deletes obs = Ig_obs.Obs.counter obs Ig_obs.Obs.K.fast_deletes

let assert_sound msg t =
  (try I.check_invariants t
   with Failure e -> Alcotest.failf "%s: invariant: %s" msg e);
  check_comps msg (T.scc (I.graph t)) (I.components t)

let test_inc_init () =
  let t = engine 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3) ] in
  check Alcotest.int "n components" 2 (I.n_components t);
  check Alcotest.bool "same comp" true (I.same_component t 0 2);
  check Alcotest.bool "diff comp" false (I.same_component t 0 3);
  check Alcotest.(list int) "component of" [ 3; 4 ]
    (List.sort compare (I.component_of t 4));
  assert_sound "init" t

let test_inc_insert_intra () =
  let t = engine 3 [ (0, 1); (1, 2); (2, 0) ] in
  let d = I.apply_batch t [ Digraph.Insert (0, 2) ] in
  check Alcotest.int "no removals" 0 (List.length d.removed);
  check Alcotest.int "no additions" 0 (List.length d.added);
  assert_sound "intra insert" t

let test_inc_insert_inter_consistent () =
  (* Edge in rank-consistent direction: counters only. *)
  let t = engine 4 [ (0, 1); (1, 0); (2, 3); (3, 2); (0, 2) ] in
  let d = I.apply_batch t [ Digraph.Insert (1, 3) ] in
  check Alcotest.int "stable" 0 (List.length d.removed + List.length d.added);
  assert_sound "consistent inter insert" t

let test_inc_insert_merge () =
  (* Example 7 analog: two 2-cycles linked 0..1 -> 2..3; inserting 3 -> 0
     forms a cycle in Gc and merges them. *)
  let t = engine 4 [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2) ] in
  let d = I.apply_batch t [ Digraph.Insert (3, 0) ] in
  check Alcotest.int "two removed" 2 (List.length d.removed);
  check Alcotest.int "one added" 1 (List.length d.added);
  check_comps "merged" [ [ 0; 1; 2; 3 ] ] d.added;
  assert_sound "merge" t

let test_inc_insert_merge_long_path () =
  (* Cycle in Gc through several intermediate singleton components. *)
  let t = engine 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  ignore (I.apply_batch t [ Digraph.Insert (4, 0) ]);
  assert_sound "long merge" t;
  check Alcotest.int "one comp" 1 (I.n_components t)

let test_inc_insert_reorder_only () =
  (* Rank violation without a cycle: reallocation only, output stable. *)
  let t = engine 6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  (* Two chains; link the tail of one to the head of the other both ways
     rank-wise: 5 -> 0 may or may not violate depending on init order, and
     2 -> 3 the other way. Neither creates a cycle. *)
  ignore (I.apply_batch t [ Digraph.Insert (5, 0) ]);
  assert_sound "reorder A" t;
  let t2 = engine 6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  ignore (I.apply_batch t2 [ Digraph.Insert (2, 3) ]);
  assert_sound "reorder B" t2;
  check Alcotest.int "still 6 comps" 6 (I.n_components t2)

let test_inc_delete_inter () =
  let t = engine 4 [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2); (0, 3) ] in
  let d = I.apply_batch t [ Digraph.Delete (1, 2) ] in
  check Alcotest.int "stable" 0 (List.length d.removed + List.length d.added);
  assert_sound "inter delete" t;
  (* Deleting the second parallel contracted edge must also be fine. *)
  ignore (I.apply_batch t [ Digraph.Delete (0, 3) ]);
  assert_sound "inter delete last" t

let test_inc_delete_fast_path () =
  (* Example 8 analog: a chord whose deletion keeps the component strongly
     connected must take the O(1) witness path. *)
  let t = engine 3 [ (0, 1); (1, 2); (2, 0); (0, 2) ] in
  (* (0,2) is a chord: cycle 0-1-2 survives without it. Whether the O(1)
     path applies depends on which edge the DFS used; deleting the chord
     never splits. *)
  let d = I.apply_batch t [ Digraph.Delete (0, 2) ] in
  check Alcotest.int "stable" 0 (List.length d.removed + List.length d.added);
  assert_sound "chord delete" t

let test_inc_delete_split () =
  (* Example 9 analog: deleting (2,0) from the 3-cycle splits it into three
     singleton components. *)
  let t = engine 3 [ (0, 1); (1, 2); (2, 0) ] in
  let d = I.apply_batch t [ Digraph.Delete (2, 0) ] in
  check_comps "removed whole" [ [ 0; 1; 2 ] ] d.removed;
  check_comps "three singletons" [ [ 0 ]; [ 1 ]; [ 2 ] ] d.added;
  assert_sound "split" t

let test_inc_split_then_merge () =
  let t = engine 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  ignore (I.apply_batch t [ Digraph.Delete (3, 0) ]);
  assert_sound "after split" t;
  ignore (I.apply_batch t [ Digraph.Insert (3, 0) ]);
  assert_sound "after re-merge" t;
  check Alcotest.int "whole again" 1 (I.n_components t)

let test_inc_duplicate_ops_are_noops () =
  let t = engine 3 [ (0, 1); (1, 2); (2, 0) ] in
  let d =
    I.apply_batch t
      [
        Digraph.Insert (0, 1) (* already present *);
        Digraph.Delete (0, 2) (* absent *);
      ]
  in
  check Alcotest.int "stable" 0 (List.length d.removed + List.length d.added);
  assert_sound "noops" t

let test_inc_batch_example3_shape () =
  (* Example 3/8 analog: a batch mixing intra deletions (splitting), intra
     insertions, and inter insertions (merging). *)
  let t =
    engine 8
      [
        (0, 1); (1, 2); (2, 0);    (* scc A *)
        (3, 4); (4, 5); (5, 3);    (* scc B *)
        (2, 3);                    (* A -> B *)
        (6, 7);                    (* singletons *)
      ]
  in
  let delta =
    I.apply_batch t
      [
        Digraph.Delete (2, 0);     (* splits A *)
        Digraph.Insert (4, 3);     (* intra chord in B *)
        Digraph.Insert (5, 6);     (* B -> 6 *)
        Digraph.Insert (7, 0);     (* 7 -> old A fragment *)
        Digraph.Insert (0, 3);     (* fragment -> B: no cycle *)
      ]
  in
  assert_sound "batch" t;
  (* Delta must transform old output into new output. *)
  ignore delta

let test_inc_batch_cycle_through_new_edges () =
  (* Two inter insertions that only form a cycle together. *)
  let t = engine 4 [ (0, 1); (2, 3) ] in
  let d = I.apply_batch t [ Digraph.Insert (1, 2); Digraph.Insert (3, 0) ] in
  assert_sound "batch cycle" t;
  check Alcotest.int "merged" 1 (I.n_components t);
  check_comps "added comp" [ [ 0; 1; 2; 3 ] ] d.added

let test_inc_delta_algebra () =
  (* (old \ removed) ∪ added = new, across a nontrivial batch. *)
  let t = engine 6 [ (0, 1); (1, 0); (2, 3); (3, 2); (4, 5); (5, 4); (1, 2) ] in
  let old_comps = norm (I.components t) in
  let d =
    I.apply_batch t
      [ Digraph.Insert (3, 0); Digraph.Delete (4, 5); Digraph.Insert (3, 4) ]
  in
  let removed = norm d.removed and added = norm d.added in
  List.iter
    (fun c ->
      check Alcotest.bool "removed existed" true (List.mem c old_comps))
    removed;
  let survived = List.filter (fun c -> not (List.mem c removed)) old_comps in
  check_comps "delta algebra" (survived @ added) (I.components t);
  (* A merge undone within the batch is no change. *)
  List.iter
    (fun dyn ->
      let t = engine ~dyn 2 [ (0, 1) ] in
      let d =
        I.apply_batch t [ Digraph.Insert (1, 0); Digraph.Delete (1, 0) ]
      in
      check comps_t "merge then split" [] (d.added @ d.removed))
    [ false; true ]

let test_inc_configs_agree () =
  let edges = [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2); (5, 0) ] in
  let batch =
    [
      Digraph.Delete (2, 0);
      Digraph.Insert (4, 5);
      Digraph.Insert (0, 2);
      Digraph.Delete (3, 4);
    ]
  in
  (* IncSCC: one call; IncSCCn: one call per update; DynSCC: both. *)
  let run ~dyn calls =
    let t = engine ~dyn 6 edges in
    List.iter (fun us -> ignore (I.apply_batch t us)) calls;
    assert_sound "config" t;
    norm (I.components t)
  in
  let one_by_one = List.map (fun u -> [ u ]) batch in
  let a = run ~dyn:false [ batch ] in
  check comps_t "inc = incn" a (run ~dyn:false one_by_one);
  check comps_t "inc = dyn" a (run ~dyn:true [ batch ]);
  check comps_t "inc = dyn one by one" a (run ~dyn:true one_by_one)

(* ---- deletion fast-path edge cases -------------------------------------- *)

let test_inc_self_loop_singleton () =
  (* A self-loop is an intra-component edge of a singleton: inserting and
     deleting it must never touch the output. *)
  let t = engine 3 [ (0, 1) ] in
  let d = I.apply_batch t [ Digraph.Insert (2, 2) ] in
  check Alcotest.int "loop insert stable" 0
    (List.length d.removed + List.length d.added);
  assert_sound "singleton loop insert" t;
  let d = I.apply_batch t [ Digraph.Delete (2, 2) ] in
  check Alcotest.int "loop delete stable" 0
    (List.length d.removed + List.length d.added);
  assert_sound "singleton loop delete" t

let test_inc_self_loop_in_component () =
  (* Self-loop inside a 3-cycle component: it is never the tree arc into its
     endpoint (a DFS parent is always a distinct node), so deleting it can
     never split, whether or not it was a lowlink witness. *)
  let t = engine 3 [ (0, 1); (1, 2); (2, 0); (1, 1) ] in
  check Alcotest.int "one component" 1 (I.n_components t);
  let d = I.apply_batch t [ Digraph.Delete (1, 1) ] in
  check Alcotest.int "stable" 0 (List.length d.removed + List.length d.added);
  assert_sound "loop delete inside scc" t;
  ignore (I.apply_batch t [ Digraph.Insert (1, 1) ]);
  assert_sound "loop re-insert inside scc" t;
  check Alcotest.int "still one component" 1 (I.n_components t)

let test_inc_duplicate_insert_then_delete () =
  (* The digraph is simple, so a duplicate insertion collapses into the
     existing edge; the later deletion removes the edge for real and must
     split — the lazy certificate recorded at init (which used (0,1) as a
     tree arc or witness) has to notice despite the no-op in between. *)
  let t = engine 3 [ (0, 1); (1, 2); (2, 0) ] in
  ignore (I.apply_batch t [ Digraph.Insert (0, 1) (* duplicate: no-op *) ]);
  assert_sound "after duplicate insert" t;
  let d = I.apply_batch t [ Digraph.Delete (0, 1) ] in
  check_comps "split after real delete" [ [ 0 ]; [ 1 ]; [ 2 ] ] d.added;
  assert_sound "after real delete" t;
  ignore (I.apply_batch t [ Digraph.Insert (0, 1) ]);
  assert_sound "after re-insert" t;
  check Alcotest.int "merged back" 1 (I.n_components t)

let test_inc_delete_fast_path_witness_count () =
  (* Complete digraph on 4 nodes: 12 intra-component edges, of which at most
     3 are DFS tree arcs and at most 4 are recorded lowlink witnesses
     (Wdirect is one edge per node). Deleting each edge on a fresh engine —
     every deletion keeps the component strongly connected — must therefore
     resolve at least 12 - 3 - 4 = 5 deletions through the O(1) witness
     check, whatever DFS order init happened to record. *)
  let all_edges =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v -> if u <> v then Some (u, v) else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  check Alcotest.int "K4 edge count" 12 (List.length all_edges);
  let fast = ref 0 in
  List.iter
    (fun (u, v) ->
      let obs = Ig_obs.Obs.create () in
      let t = engine ~obs 4 all_edges in
      let d = I.apply_batch t [ Digraph.Delete (u, v) ] in
      check Alcotest.int "still strongly connected" 0
        (List.length d.removed + List.length d.added);
      assert_sound "K4 single delete" t;
      fast := !fast + fast_deletes obs)
    all_edges;
  check Alcotest.bool "O(1) witness check exercised" true (!fast >= 5)

let test_inc_fast_path_disabled_in_dyn () =
  (* The DynSCC stand-in pays a reachability check instead (and marks the
     component dirty when it stays connected): same outputs, zero fast
     deletes on the identical workload. Every deletion here keeps the
     component strongly connected, so no local Tarjan runs, and the
     counted out-edges are the checks' own walks. *)
  let all_edges = [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 2); (2, 1) ] in
  let run dyn =
    let fast = ref 0 and relaxed = ref 0 in
    List.iter
      (fun (u, v) ->
        let obs = Ig_obs.Obs.create () in
        let t = engine ~dyn ~obs 3 all_edges in
        let d = I.apply_batch t [ Digraph.Delete (u, v) ] in
        check Alcotest.int "still strongly connected" 0
          (List.length d.removed + List.length d.added);
        assert_sound "dense triangle delete" t;
        fast := !fast + fast_deletes obs;
        relaxed := !relaxed + Ig_obs.Obs.counter obs Ig_obs.Obs.K.edges_relaxed)
      all_edges;
    (!fast, !relaxed)
  in
  check Alcotest.bool "inc uses the fast path" true (fst (run false) >= 1);
  let fast, relaxed = run true in
  check Alcotest.int "dyn never does" 0 fast;
  check Alcotest.bool "dyn counts its reachability walks" true (relaxed > 0)

(* A closure that crosses a large component scans only its members with an
   edge leaving (or entering) it, not its internal edges; it still reads
   every member's external degree once. C = nodes 2..k+1 is a dense
   strongly connected component entered only at node 2 and left only at
   node k+1; singletons 0 -> C -> 1. Inserting 1 -> 0 violates the ranks
   with C inside the window, and merges all three: the forward closure
   visits {0}, C and the backward one {1}, C. *)
let test_inc_closure_skips_internal_edges () =
  let k = 200 in
  let member i = 2 + (i mod k) in
  let internal =
    List.concat_map
      (fun i -> [ (member i, member (i + 1)); (member i, member (i + 7)) ])
      (List.init k Fun.id)
  in
  let obs = Ig_obs.Obs.create () in
  let t = engine ~obs (k + 2) ((0, 2) :: (k + 1, 1) :: internal) in
  check Alcotest.int "three components" 3 (I.n_components t);
  ignore (I.apply_batch t [ Digraph.Insert (1, 0) ]);
  assert_sound "merged across C" t;
  check Alcotest.int "one component" 1 (I.n_components t);
  check Alcotest.int "one violation" 1
    (Ig_obs.Obs.counter obs Ig_obs.Obs.K.violations);
  let relaxed = Ig_obs.Obs.counter obs Ig_obs.Obs.K.edges_relaxed in
  if relaxed >= List.length internal then
    Alcotest.failf "edges_relaxed %d not below C's %d internal edges" relaxed
      (List.length internal);
  check Alcotest.int "member reads: each closure reads C once"
    (2 * (k + 1))
    (Ig_obs.Obs.counter obs Ig_obs.Obs.K.nodes_visited)

(* ---- randomized properties --------------------------------------------- *)

let gen_graph_and_updates =
  QCheck.Gen.(
    let* n = int_range 2 14 in
    let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
    let* edges = list_size (int_bound (3 * n)) edge in
    let* ops = list_size (int_bound (2 * n)) (pair bool edge) in
    return (n, edges, ops))

let arb_case =
  QCheck.make
    ~print:(fun (n, edges, ops) ->
      Printf.sprintf "n=%d edges=[%s] ops=[%s]" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges))
        (String.concat ";"
           (List.map
              (fun (ins, (u, v)) ->
                Printf.sprintf "%s(%d,%d)" (if ins then "+" else "-") u v)
              ops)))
    gen_graph_and_updates

let updates_of_ops ops =
  List.map
    (fun (ins, (u, v)) ->
      if ins then Digraph.Insert (u, v) else Digraph.Delete (u, v))
    ops

(* One batch, repeated edges and all, checked against a Tarjan rerun: the
   graph ends as a sequential [Digraph.apply_batch] leaves it, and ΔO obeys
   removed ⊆ old, added ∩ old = ∅ and (old ∖ removed) ∪ added = new. *)
let batch_sound t ops =
  let old_comps = norm (I.components t) in
  let replica = Digraph.copy (I.graph t) in
  Digraph.apply_batch replica (updates_of_ops ops);
  let d = I.apply_batch t (updates_of_ops ops) in
  I.check_invariants t;
  let fresh = norm (T.scc (I.graph t)) in
  let removed = norm d.removed and added = norm d.added in
  Digraph.edges (I.graph t) = Digraph.edges replica
  && norm (I.components t) = fresh
  && List.for_all (fun c -> List.mem c old_comps) removed
  && List.for_all (fun c -> not (List.mem c old_comps)) added
  && norm (added @ List.filter (fun c -> not (List.mem c removed)) old_comps)
     = fresh

(* The paper's subjects, as (name, dyn, one_by_one): IncSCC takes a batch
   in one call, IncSCCn is IncSCC called once per update, and DynSCC is
   the [~dyn] engine, which the properties hand whole batches too. *)
let calls ~one_by_one ops =
  if one_by_one then List.map (fun op -> [ op ]) ops else [ ops ]

let prop_inc_matches_batch (name, dyn, one_by_one) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s == Tarjan rerun" name)
    ~count:300 arb_case
    (fun (n, edges, ops) ->
      let t = engine ~dyn n edges in
      List.for_all (batch_sound t) (calls ~one_by_one ops))

let prop_inc_many_batches (name, dyn, one_by_one) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s stays sound across successive batches" name)
    ~count:150
    QCheck.(pair arb_case (pair arb_case arb_case))
    (fun ((n, edges, ops1), ((_, _, ops2), (_, _, ops3))) ->
      let clamp = List.map (fun (i, (u, v)) -> (i, (u mod n, v mod n))) in
      let t = engine ~dyn n edges in
      List.for_all (batch_sound t)
        (List.concat_map (calls ~one_by_one) [ ops1; clamp ops2; clamp ops3 ]))

(* Unit updates as singleton batches, with [check_invariants] after
   each. *)
let prop_unit_updates (name, dyn) =
  QCheck.Test.make
    ~name:(Printf.sprintf "unit insert/delete keep engine sound (%s)" name)
    ~count:200 arb_case
    (fun (n, edges, ops) ->
      let t = engine ~dyn n edges in
      List.iter
        (fun up ->
          ignore (I.apply_batch t [ up ]);
          I.check_invariants t)
        (updates_of_ops ops);
      norm (I.components t) = norm (T.scc (I.graph t)))

(* ---- IncSCC−'s reachability check -------------------------------------- *)

let counter obs k = Ig_obs.Obs.counter obs k

(* Counter [k]'s growth over one batch. *)
let batch_cost obs t ups k =
  let before = counter obs k in
  let d = I.apply_batch t ups in
  (d, counter obs k - before)

(* C = {0,1,2,3}: cycle 3 -> 0 -> 2 -> 3, plus 0 -> 1, 1 -> 2, 1 -> 3 and a
   self-loop on 2. Init's DFS (root 3, successors in descending order)
   makes (0,2) the tree arc into 2, and records (1,3) as 1's witness. *)
let test_stale_cert_protocol () =
  let obs = Ig_obs.Obs.create () in
  let t =
    engine ~obs 4 [ (3, 0); (0, 2); (2, 3); (0, 1); (1, 2); (1, 3); (2, 2) ]
  in
  let cert_line v =
    List.find
      (String.starts_with ~prefix:(Printf.sprintf "v%d " v))
      (String.split_on_char '\n' (List.assoc "cert" (I.cert_snapshot t)))
  in
  check Alcotest.string "(0,2) is the tree arc into 2"
    "v2 num=2 low=0 parent=0 witness=direct:3" (cert_line 2);
  (* Batch 1: the tree arc has a detour 0 -> 1 -> 2; no local Tarjan. *)
  let d, aff = batch_cost obs t [ Digraph.Delete (0, 2) ] Ig_obs.Obs.K.aff in
  check Alcotest.int "C unchanged" 0
    (List.length d.removed + List.length d.added);
  check Alcotest.int "no local Tarjan" 0 aff;
  check Alcotest.int "not a fast delete" 0 (fast_deletes obs);
  check Alcotest.bool "the search ran" true
    (counter obs Ig_obs.Obs.K.nodes_visited > 0);
  assert_sound "after detour" t;
  (* The stale certificate would let (1,2) through: it is neither the tree
     arc into 2 nor 1's witness. It is now the only edge into 2 from the
     rest of C, so deleting it splits 2 off. *)
  check Alcotest.string "certificate kept, stale"
    "v1 num=3 low=0 parent=0 witness=direct:3" (cert_line 1);
  let d, visited =
    batch_cost obs t [ Digraph.Delete (1, 2) ] Ig_obs.Obs.K.nodes_visited
  in
  check_comps "split off" [ [ 0; 1; 2; 3 ] ] d.removed;
  check_comps "== Tarjan" (T.scc (I.graph t)) (I.components t);
  check_comps "parts" [ [ 0; 1; 3 ]; [ 2 ] ] (I.components t);
  (* 3 nodes searched from 1 before the frontier ran dry, then local
     Tarjan's 4. *)
  check Alcotest.int "failed search, then local Tarjan" 7 visited;
  assert_sound "after split" t

(* Deleting (k-1, 0) from a k-cycle leaves k-1 with no edge into C: a
   certain split, found from degrees, so only local Tarjan visits nodes. *)
let test_certain_split_skips_search () =
  let k = 6 in
  let obs = Ig_obs.Obs.create () in
  let t = engine ~obs k (List.init k (fun i -> (i, (i + 1) mod k))) in
  let d = I.apply_batch t [ Digraph.Delete (k - 1, 0) ] in
  check Alcotest.int "k singletons" k (List.length d.added);
  check Alcotest.int "local Tarjan only" k
    (counter obs Ig_obs.Obs.K.nodes_visited);
  check Alcotest.int "aff" k (counter obs Ig_obs.Obs.K.aff);
  assert_sound "certain split" t

(* Bidirectional ring on k nodes; init's DFS (root k-1, successors in
   descending order) makes every (i+1, i) a tree arc. Deleting three of
   them keeps the ring strongly connected, but
   each detour runs the long way round, and each search expands about k/2
   nodes: the shared budget of k runs out, and local Tarjan decides. *)
let test_search_budget_falls_back () =
  let k = 30 in
  let obs = Ig_obs.Obs.create () in
  let ring =
    List.concat_map (fun i -> [ (i, (i + 1) mod k); ((i + 1) mod k, i) ])
      (List.init k Fun.id)
  in
  let t = engine ~obs k ring in
  let d =
    I.apply_batch t
      [
        Digraph.Delete (1, 0); Digraph.Delete (11, 10); Digraph.Delete (21, 20);
      ]
  in
  check Alcotest.int "C unchanged" 0
    (List.length d.removed + List.length d.added);
  check Alcotest.int "local Tarjan ran" k (counter obs Ig_obs.Obs.K.aff);
  check Alcotest.int "budget k, then Tarjan's k" (2 * k)
    (counter obs Ig_obs.Obs.K.nodes_visited);
  assert_sound "after fallback" t

(* Graphs of planted strongly connected blocks, each a cycle with chords,
   linked by random edges; batches delete mostly planted edges, so chorded
   blocks lose tree arcs and witnesses that have detours. *)
let gen_planted =
  QCheck.Gen.(
    (* Block [k] nodes from [s]: a cycle plus up to 2k chords. *)
    let block s k =
      let node = map (fun i -> s + i) (int_bound (k - 1)) in
      let+ chords = list_size (int_bound (2 * k)) (pair node node) in
      List.init k (fun i -> (s + i, s + ((i + 1) mod k))) @ chords
    in
    let* sizes = list_size (int_range 1 4) (int_range 2 8) in
    let n, blocks =
      List.fold_left (fun (s, bs) k -> (s + k, block s k :: bs)) (0, []) sizes
    in
    let* blocks = flatten_l blocks in
    let planted = List.concat blocks in
    let any = pair (int_bound (n - 1)) (int_bound (n - 1)) in
    let* links = list_size (int_bound n) any in
    let op =
      frequency
        [ (3, map (fun e -> (false, e)) (oneofl planted));
          (1, map (fun e -> (true, e)) any) ]
    in
    let* batches = list_size (int_range 1 5) (list_size (int_range 1 6) op) in
    return (n, planted @ links, batches))

let arb_planted =
  let edge (u, v) = Printf.sprintf "(%d,%d)" u v in
  QCheck.make gen_planted ~print:(fun (n, edges, batches) ->
      Printf.sprintf "n=%d edges=[%s] batches=[%s]" n
        (String.concat ";" (List.map edge edges))
        (String.concat " | "
           (List.map
              (fun ops ->
                String.concat ";"
                  (List.map
                     (fun (ins, e) -> (if ins then "+" else "-") ^ edge e)
                     ops))
              batches)))

(* After every batch the engine is sound (components == Tarjan's, ΔO
   algebra, invariants). A batch that visits nodes but adds nothing to AFF
   re-proved a component by search: no closure ran (a closure's region
   counts on aff) and no local Tarjan did. *)
let test_planted_chorded_sccs () =
  let reproved = ref 0 in
  let prop (n, edges, batches) =
    let obs = Ig_obs.Obs.create () in
    let t = engine ~obs n edges in
    List.for_all
      (fun ops ->
        let aff = counter obs Ig_obs.Obs.K.aff
        and visited = counter obs Ig_obs.Obs.K.nodes_visited in
        let ok = batch_sound t ops in
        if
          counter obs Ig_obs.Obs.K.aff = aff
          && counter obs Ig_obs.Obs.K.nodes_visited > visited
        then incr reproved;
        ok)
      batches
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 34 |])
    (QCheck.Test.make ~name:"planted chorded SCCs" ~count:300 arb_planted prop);
  check Alcotest.bool "search path taken" true (!reproved > 0)

(* ---- bounded-exhaustive check ------------------------------------------ *)

(* Every graph on three nodes labelled l0, l1, l0 with self-loops allowed
   (the 512 subsets of its 9 possible edges), and every sequence of [k]
   updates over those edges (18^k of them; a repeated update also covers
   the shorter batches). Each case builds a fresh engine, applies the
   sequence as one batch and checks [check_invariants] (components equal
   Tarjan's, ranks strictly decrease along contracted edges, external
   degrees match G) and that ΔO is the diff of the component sets. [k] is
   2 here and [EXHAUSTIVE_UPDATES] when set ([dune build @fuzz] sets 3). *)
let test_exhaustive_three_nodes () =
  let k =
    Option.fold ~none:2 ~some:int_of_string (Sys.getenv_opt "EXHAUSTIVE_UPDATES")
  in
  let edges =
    List.concat_map (fun u -> List.map (fun v -> (u, v)) [ 0; 1; 2 ]) [ 0; 1; 2 ]
  in
  let updates =
    List.concat_map
      (fun (u, v) -> [ Digraph.Insert (u, v); Digraph.Delete (u, v) ])
      edges
  in
  let rec seqs k =
    if k = 0 then [ [] ]
    else List.concat_map (fun s -> List.map (fun u -> u :: s) updates) (seqs (k - 1))
  in
  let batches = seqs k in
  let show mask batch =
    Printf.sprintf "graph %s, batch %s"
      (String.concat " "
         (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) edges
         |> List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v)))
      (String.concat "; "
         (List.map
            (function
              | Digraph.Insert (u, v) -> Printf.sprintf "+%d-%d" u v
              | Digraph.Delete (u, v) -> Printf.sprintf "-%d-%d" u v)
            batch))
  in
  let minus a b = List.filter (fun c -> not (List.mem c b)) a in
  for mask = 0 to 511 do
    let g = Digraph.create () in
    List.iter (fun l -> ignore (Digraph.add_node g l)) [ "l0"; "l1"; "l0" ];
    List.iteri
      (fun i (u, v) ->
        if mask land (1 lsl i) <> 0 then ignore (Digraph.add_edge g u v))
      edges;
    let before = norm (T.scc g) in
    List.iter
      (fun batch ->
        let t = I.init (Digraph.copy g) in
        let d = I.apply_batch t batch in
        (try I.check_invariants t
         with Failure e -> Alcotest.failf "%s: %s" (show mask batch) e);
        let after = norm (I.components t) in
        if norm d.removed <> minus before after || norm d.added <> minus after before
        then Alcotest.failf "%s: ΔO is not the diff of the components" (show mask batch))
      batches
  done

(* A batch should cost no more counted work in one call than in one call
   per update. The smallest SCC batch to check it on: [+0-1; +1-0] on the
   empty graph, which closes one cycle. *)
let test_batch_work_le_unit_calls () =
  let cost calls =
    let obs = Ig_obs.Obs.create () in
    let t = engine ~obs 3 [] in
    List.iter (fun us -> ignore (I.apply_batch t us)) calls;
    assert_sound "merged" t;
    ( counter obs Ig_obs.Obs.K.nodes_visited,
      counter obs Ig_obs.Obs.K.edges_relaxed )
  in
  let batch = [ Digraph.Insert (0, 1); Digraph.Insert (1, 0) ] in
  let one = cost [ batch ] and two = cost (List.map (fun u -> [ u ]) batch) in
  check Alcotest.bool "nodes_visited: one call <= two" true (fst one <= fst two);
  check Alcotest.bool "edges_relaxed: one call <= two" true (snd one <= snd two)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_scc"
    [
      ( "tarjan",
        [
          Alcotest.test_case "two cycles" `Quick test_tarjan_two_cycles;
          Alcotest.test_case "dag" `Quick test_tarjan_dag;
          Alcotest.test_case "self loop" `Quick test_tarjan_self_loop;
          Alcotest.test_case "sinks first" `Quick test_tarjan_order_sinks_first;
          Alcotest.test_case "empty" `Quick test_tarjan_empty;
          Alcotest.test_case "big cycle (iterative)" `Quick
            test_tarjan_big_cycle;
          Alcotest.test_case "restricted run" `Quick test_tarjan_restricted;
        ] );
      ( "inc unit",
        [
          Alcotest.test_case "init" `Quick test_inc_init;
          Alcotest.test_case "intra insert" `Quick test_inc_insert_intra;
          Alcotest.test_case "consistent inter insert" `Quick
            test_inc_insert_inter_consistent;
          Alcotest.test_case "merge (Example 7)" `Quick test_inc_insert_merge;
          Alcotest.test_case "merge long path" `Quick
            test_inc_insert_merge_long_path;
          Alcotest.test_case "reorder only" `Quick test_inc_insert_reorder_only;
          Alcotest.test_case "inter delete" `Quick test_inc_delete_inter;
          Alcotest.test_case "chord delete (Example 8)" `Quick
            test_inc_delete_fast_path;
          Alcotest.test_case "split (Example 9)" `Quick test_inc_delete_split;
          Alcotest.test_case "split then merge" `Quick test_inc_split_then_merge;
          Alcotest.test_case "no-ops" `Quick test_inc_duplicate_ops_are_noops;
        ] );
      ( "deletion fast path",
        [
          Alcotest.test_case "self-loop on singleton" `Quick
            test_inc_self_loop_singleton;
          Alcotest.test_case "self-loop inside component" `Quick
            test_inc_self_loop_in_component;
          Alcotest.test_case "duplicate insert then delete" `Quick
            test_inc_duplicate_insert_then_delete;
          Alcotest.test_case "witness check count (K4)" `Quick
            test_inc_delete_fast_path_witness_count;
          Alcotest.test_case "disabled in DynSCC" `Quick
            test_inc_fast_path_disabled_in_dyn;
        ] );
      ( "inc batch",
        [
          Alcotest.test_case "mixed batch" `Quick test_inc_batch_example3_shape;
          Alcotest.test_case "cycle through new edges" `Quick
            test_inc_batch_cycle_through_new_edges;
          Alcotest.test_case "delta algebra" `Quick test_inc_delta_algebra;
          Alcotest.test_case "configs agree" `Quick test_inc_configs_agree;
          Alcotest.test_case "closure skips C's internal edges" `Quick
            test_inc_closure_skips_internal_edges;
          Alcotest.test_case "one call works no more than two (+0-1; +1-0)"
            `Quick test_batch_work_le_unit_calls;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "every 3-node graph, every batch" `Quick
            test_exhaustive_three_nodes;
        ] );
      ( "reachability check",
        [
          Alcotest.test_case "stale certificate protocol" `Quick
            test_stale_cert_protocol;
          Alcotest.test_case "certain split skips the search" `Quick
            test_certain_split_skips_search;
          Alcotest.test_case "spent budget falls back" `Quick
            test_search_budget_falls_back;
          Alcotest.test_case "planted chorded SCCs" `Quick
            test_planted_chorded_sccs;
        ] );
      ( "inc properties",
        qsuite
          [
            (* Named by witness fast path and grouping: IncSCC, IncSCCn
               and DynSCC. DynSCC gets whole batches here and one update
               per call in [prop_unit_updates]. *)
            prop_inc_matches_batch
              ("IncSCC(fast=true,group=true)", false, false);
            prop_inc_matches_batch
              ("IncSCC(fast=true,group=false)", false, true);
            prop_inc_matches_batch
              ("IncSCC(fast=false,group=false)", true, false);
            prop_inc_many_batches ("IncSCC", false, false);
            prop_inc_many_batches ("IncSCCn", false, true);
            prop_unit_updates ("IncSCC", false);
            prop_unit_updates ("IncSCCn", false);
            prop_unit_updates ("DynSCC", true);
          ] );
    ]
