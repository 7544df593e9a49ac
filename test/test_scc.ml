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

let engine ?(config = I.inc_config) n edges =
  I.init ~config (graph_of_edges n edges)

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
  I.reset_stats t;
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

let test_inc_add_node () =
  let t = engine 2 [ (0, 1) ] in
  let v = I.add_node t "fresh" in
  let d = I.apply_batch t [] in
  check_comps "new singleton" [ [ v ] ] d.added;
  ignore (I.apply_batch t [ Digraph.Insert (1, v); Digraph.Insert (v, 0) ]);
  assert_sound "wired in" t;
  check Alcotest.int "merged all" 1 (I.n_components t)

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
  check_comps "delta algebra" (survived @ added) (I.components t)

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
  let run config =
    let t = engine ~config 6 edges in
    ignore (I.apply_batch t batch);
    assert_sound "config" t;
    norm (I.components t)
  in
  let a = run I.inc_config in
  let b = run I.incn_config in
  let c = run I.dyn_config in
  check comps_t "inc = incn" a b;
  check comps_t "inc = dyn" a c

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
      let t = engine 4 all_edges in
      I.reset_stats t;
      let d = I.apply_batch t [ Digraph.Delete (u, v) ] in
      check Alcotest.int "still strongly connected" 0
        (List.length d.removed + List.length d.added);
      assert_sound "K4 single delete" t;
      fast := !fast + (I.stats t).I.fast_deletes)
    all_edges;
  check Alcotest.bool "O(1) witness check exercised" true (!fast >= 5)

let test_inc_fast_path_disabled_in_dyn () =
  (* The DynSCC stand-in pays a local recomputation instead: same outputs,
     zero fast deletes on the identical workload. *)
  let all_edges = [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 2); (2, 1) ] in
  let fast config =
    let n = ref 0 in
    List.iter
      (fun (u, v) ->
        let t = engine ~config 3 all_edges in
        I.reset_stats t;
        ignore (I.apply_batch t [ Digraph.Delete (u, v) ]);
        assert_sound "dense triangle delete" t;
        n := !n + (I.stats t).I.fast_deletes)
      all_edges;
    !n
  in
  check Alcotest.bool "inc uses the fast path" true (fast I.inc_config >= 1);
  check Alcotest.int "dyn never does" 0 (fast I.dyn_config)

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

(* Batches must not contain an insert and a delete of the same edge
   (paper Section 4.2 assumes conflicts are pre-filtered). *)
let dedup_conflicts ops =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (_, e) ->
      if Hashtbl.mem seen e then false
      else begin
        Hashtbl.replace seen e ();
        true
      end)
    ops

let prop_inc_matches_batch config =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "IncSCC(eager=%b,fast=%b,group=%b) == Tarjan rerun"
         config.I.eager_cert config.I.delete_fast_path config.I.group_batch)
    ~count:300 arb_case
    (fun (n, edges, ops) ->
      let ops = dedup_conflicts ops in
      let t = engine ~config n edges in
      let old_comps = norm (I.components t) in
      let d = I.apply_batch t (updates_of_ops ops) in
      I.check_invariants t;
      let fresh = norm (T.scc (I.graph t)) in
      let removed = norm d.removed and added = norm d.added in
      let survived =
        List.filter (fun c -> not (List.mem c removed)) old_comps
      in
      norm (I.components t) = fresh
      && List.for_all (fun c -> List.mem c old_comps) removed
      && norm (survived @ added) = fresh)

let prop_inc_many_batches =
  QCheck.Test.make ~name:"IncSCC stays sound across successive batches"
    ~count:150
    QCheck.(pair arb_case (pair arb_case arb_case))
    (fun ((n, edges, ops1), ((_, _, ops2), (_, _, ops3))) ->
      let clamp ops =
        dedup_conflicts
          (List.map (fun (i, (u, v)) -> (i, (u mod n, v mod n))) ops)
      in
      let t = engine n edges in
      List.iter
        (fun ops ->
          ignore (I.apply_batch t (updates_of_ops (clamp ops)));
          I.check_invariants t)
        [ clamp ops1; clamp ops2; clamp ops3 ];
      norm (I.components t) = norm (T.scc (I.graph t)))

(* Unit updates as singleton batches: under [inc_config] through the
   grouped path, under [incn_config] through the one-by-one path. *)
let prop_unit_updates (name, config) =
  QCheck.Test.make
    ~name:(Printf.sprintf "unit insert/delete keep engine sound (%s)" name)
    ~count:200 arb_case
    (fun (n, edges, ops) ->
      let t = engine ~config n edges in
      List.iter
        (fun up ->
          ignore (I.apply_batch t [ up ]);
          I.check_invariants t)
        (updates_of_ops ops);
      norm (I.components t) = norm (T.scc (I.graph t)))

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
          Alcotest.test_case "add node" `Quick test_inc_add_node;
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
        ] );
      ( "inc properties",
        qsuite
          [
            prop_inc_matches_batch I.inc_config;
            prop_inc_matches_batch I.incn_config;
            prop_inc_matches_batch I.dyn_config;
            prop_inc_many_batches;
            prop_unit_updates ("IncSCC", I.inc_config);
            prop_unit_updates ("IncSCCn", I.incn_config);
          ] );
    ]
