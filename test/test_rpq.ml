(* Tests for RPQNFA (batch) and IncRPQ, including behavioral analogs of the
   paper's Examples 4-5 and randomized equivalence with batch recomputation. *)

open Ig_graph
open Ig_nfa
module B = Ig_rpq.Batch
module I = Ig_rpq.Inc_rpq

let check = Alcotest.check

let pairs_t = Alcotest.(list (pair int int))

let norm ps = List.sort compare ps

let check_pairs msg expected actual =
  check pairs_t msg (norm expected) (norm actual)

let labeled_graph labels edges =
  let g = Digraph.create () in
  List.iter (fun l -> ignore (Digraph.add_node g l)) labels;
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

let q s = Regex.parse_exn s

(* ---- batch --------------------------------------------------------------- *)

let test_batch_path () =
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2) ] in
  check_pairs "abc" [ (0, 2) ] (B.run_query g (q "a . b . c"));
  check_pairs "ab" [ (0, 1) ] (B.run_query g (q "a . b"));
  check_pairs "b" [ (1, 1) ] (B.run_query g (q "b"))

let test_batch_single_node_match () =
  (* A path of length 0 is a single node: (v, v) matches iff l(v) ∈ L(Q). *)
  let g = labeled_graph [ "a"; "b" ] [] in
  check_pairs "singleton" [ (0, 0) ] (B.run_query g (q "a"));
  check_pairs "star" [ (0, 0) ] (B.run_query g (q "a . b*"))

let test_batch_star_cycle () =
  (* a-cycle: a . a* matches every ordered pair including self. *)
  let g = labeled_graph [ "a"; "a"; "a" ] [ (0, 1); (1, 2); (2, 0) ] in
  let expect =
    List.concat_map (fun u -> List.map (fun v -> (u, v)) [ 0; 1; 2 ]) [ 0; 1; 2 ]
  in
  check_pairs "all pairs" expect (B.run_query g (q "a . a*"))

let test_batch_paper_query () =
  (* Example 4 flavor: Q = c . (b . a + c)* . c over a small graph where the
     c-labeled nodes chain through b,a detours. *)
  let g =
    labeled_graph
      [ "c"; "b"; "a"; "c"; "c" ]
      [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 3) ]
  in
  (* Paths: 0(c)→1(b)→2(a)→3(c): "cbac" match (0,3).
     0(c)→3(c): "cc" match (0,3). 3(c)→4(c): "cc" match (3,4).
     0→1→2→3→4: "cbacc" match (0,4); 0→3→4 "ccc" match (0,4). *)
  check_pairs "paper query"
    [ (0, 3); (3, 4); (0, 4) ]
    (B.run_query g (q "c . (b . a + c)* . c"))

let test_batch_no_sources () =
  let g = labeled_graph [ "x"; "y" ] [ (0, 1) ] in
  check_pairs "no sources" [] (B.run_query g (q "a . b"))

let test_batch_multi_source () =
  let g = labeled_graph [ "a"; "a"; "b" ] [ (0, 2); (1, 2) ] in
  check_pairs "two sources" [ (0, 2); (1, 2) ] (B.run_query g (q "a . b"))

(* ---- incremental ---------------------------------------------------------- *)

let assert_sound msg t =
  (try I.check_invariants t
   with Failure e -> Alcotest.failf "%s: invariant: %s" msg e)

let test_inc_insert_creates_match () =
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1) ] in
  let t = I.create g (q "a . b . c") in
  check_pairs "initially none" [] (I.matches t);
  let d = I.apply_batch t [ Digraph.Insert (1, 2) ] in
  check_pairs "added" [ (0, 2) ] d.added;
  check_pairs "none removed" [] d.removed;
  check Alcotest.bool "is_match" true (I.is_match t 0 2);
  assert_sound "insert" t

let test_inc_delete_removes_match () =
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2) ] in
  let t = I.create g (q "a . b . c") in
  let d = I.apply_batch t [ Digraph.Delete (0, 1) ] in
  check_pairs "removed" [ (0, 2) ] d.removed;
  check Alcotest.int "no matches" 0 (I.n_matches t);
  assert_sound "delete" t

let test_inc_alternate_path_survives () =
  (* Two disjoint paths from source to target; deleting one keeps the
     match (only dist changes). *)
  let g =
    labeled_graph
      [ "a"; "b"; "c"; "b"; "b" ]
      [ (0, 1); (1, 2); (0, 3); (3, 4); (4, 2) ]
  in
  let t = I.create g (q "a . b* . c") in
  check Alcotest.bool "match" true (I.is_match t 0 2);
  let d = I.apply_batch t [ Digraph.Delete (1, 2) ] in
  check_pairs "no removals" [] d.removed;
  check Alcotest.bool "still match" true (I.is_match t 0 2);
  assert_sound "longer path" t

let test_inc_interleaving_example5 () =
  (* Example 5 flavor: within one batch, a deletion breaks the recorded
     shortest path while an insertion provides a replacement; the match
     survives and ΔO is empty. *)
  let g =
    labeled_graph
      [ "a"; "b"; "c"; "b" ]
      [ (0, 1); (1, 2) ]
  in
  let t = I.create g (q "a . b . c") in
  let d =
    I.apply_batch t [ Digraph.Delete (0, 1); Digraph.Insert (0, 3); Digraph.Insert (3, 2) ]
  in
  check_pairs "no net change" [] (d.added @ d.removed);
  check Alcotest.bool "match kept" true (I.is_match t 0 2);
  assert_sound "interleave" t

let test_inc_cancelling_updates () =
  let g = labeled_graph [ "a"; "b" ] [ (0, 1) ] in
  let t = I.create g (q "a . b") in
  let d = I.apply_batch t [ Digraph.Delete (0, 1); Digraph.Insert (0, 1) ] in
  check_pairs "net zero" [] (d.added @ d.removed);
  assert_sound "cancel" t

let test_inc_add_node () =
  let g = labeled_graph [ "a"; "b" ] [ (0, 1) ] in
  let t = I.create g (q "a . b* . a") in
  let v = I.add_node t "a" in
  (* New a-node: a source (and its own 0-length path does not match a.b*.a). *)
  let d = I.apply_batch t [ Digraph.Insert (1, v) ] in
  check_pairs "new match" [ (0, v) ] d.added;
  assert_sound "add node" t

let test_inc_new_source_matches_self () =
  let g = labeled_graph [ "b" ] [] in
  let t = I.create g (q "a") in
  let v = I.add_node t "a" in
  let d = I.apply_batch t [] in
  check_pairs "self match" [ (v, v) ] d.added;
  assert_sound "self" t

let test_inc_duplicate_noops () =
  let g = labeled_graph [ "a"; "b" ] [ (0, 1) ] in
  let t = I.create g (q "a . b") in
  let d = I.apply_batch t [ Digraph.Insert (0, 1); Digraph.Delete (1, 0) ] in
  check_pairs "no change" [] (d.added @ d.removed);
  assert_sound "noop" t

let test_inc_self_loop_star () =
  let g = labeled_graph [ "a"; "b" ] [ (0, 1) ] in
  let t = I.create g (q "a . b . b*") in
  ignore (I.apply_batch t [ Digraph.Insert (1, 1) ]);
  assert_sound "self loop" t;
  check Alcotest.bool "match" true (I.is_match t 0 1)

(* ---- randomized equivalence ---------------------------------------------- *)

let gen_case =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* labels = list_repeat n (oneofl [ "a"; "b" ]) in
    let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
    let* edges = list_size (int_bound (2 * n)) edge in
    let* ops = list_size (int_bound 12) (pair bool edge) in
    let* qsrc =
      oneofl
        [
          "a . b";
          "a . b*";
          "a . (a + b)* . b";
          "b . a . b";
          "a . a* . b . b*";
          "(a + b) . (a + b)*";
          "a";
        ]
    in
    return (labels, edges, ops, qsrc))

let arb_case =
  QCheck.make
    ~print:(fun (labels, edges, ops, qsrc) ->
      Printf.sprintf "labels=%s edges=%s ops=%s q=%s"
        (String.concat "" labels)
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges))
        (String.concat ";"
           (List.map
              (fun (i, (u, v)) ->
                Printf.sprintf "%s(%d,%d)" (if i then "+" else "-") u v)
              ops))
        qsrc)
    gen_case

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

let updates_of ops =
  List.map
    (fun (i, (u, v)) -> if i then Digraph.Insert (u, v) else Digraph.Delete (u, v))
    ops

let prop_inc_matches_batch grouped =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "IncRPQ%s == RPQNFA rerun" (if grouped then "" else "n"))
    ~count:300 arb_case
    (fun (labels, edges, ops, qsrc) ->
      let ops = dedup_conflicts ops in
      let g = labeled_graph labels edges in
      let t = I.create ~grouped g (q qsrc) in
      let old_matches = norm (I.matches t) in
      let d = I.apply_batch t (updates_of ops) in
      I.check_invariants t;
      let fresh = norm (B.run_query (I.graph t) (q qsrc)) in
      let now = norm (I.matches t) in
      let applied =
        norm
          (d.added
          @ List.filter (fun m -> not (List.mem m d.removed)) old_matches)
      in
      now = fresh
      && applied = fresh
      && List.for_all (fun m -> List.mem m old_matches) d.removed

      && List.for_all (fun m -> not (List.mem m old_matches)) d.added)

let prop_inc_sequences =
  QCheck.Test.make ~name:"IncRPQ sound across successive batches" ~count:150
    QCheck.(
      pair arb_case
        (make
           Gen.(
             list_size (int_bound 8)
               (pair bool (pair (int_bound 7) (int_bound 7))))))
    (fun ((labels, edges, ops, qsrc), more) ->
      let n = List.length labels in
      let clamp ops =
        dedup_conflicts
          (List.map (fun (i, (u, v)) -> (i, (u mod n, v mod n))) ops)
      in
      let g = labeled_graph labels edges in
      let t = I.create g (q qsrc) in
      ignore (I.apply_batch t (updates_of (clamp ops)));
      I.check_invariants t;
      ignore (I.apply_batch t (updates_of (clamp more)));
      I.check_invariants t;
      norm (I.matches t) = norm (B.run_query (I.graph t) (q qsrc)))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_rpq"
    [
      ( "batch",
        [
          Alcotest.test_case "path" `Quick test_batch_path;
          Alcotest.test_case "single node" `Quick test_batch_single_node_match;
          Alcotest.test_case "star cycle" `Quick test_batch_star_cycle;
          Alcotest.test_case "paper query (Ex. 4)" `Quick test_batch_paper_query;
          Alcotest.test_case "no sources" `Quick test_batch_no_sources;
          Alcotest.test_case "multi source" `Quick test_batch_multi_source;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "insert creates match" `Quick
            test_inc_insert_creates_match;
          Alcotest.test_case "delete removes match" `Quick
            test_inc_delete_removes_match;
          Alcotest.test_case "alternate path survives" `Quick
            test_inc_alternate_path_survives;
          Alcotest.test_case "interleaving (Ex. 5)" `Quick
            test_inc_interleaving_example5;
          Alcotest.test_case "cancelling updates" `Quick
            test_inc_cancelling_updates;
          Alcotest.test_case "add node" `Quick test_inc_add_node;
          Alcotest.test_case "new source self match" `Quick
            test_inc_new_source_matches_self;
          Alcotest.test_case "duplicate no-ops" `Quick test_inc_duplicate_noops;
          Alcotest.test_case "self loop star" `Quick test_inc_self_loop_star;
        ] );
      ( "properties",
        qsuite
          [
            prop_inc_matches_batch true;
            prop_inc_matches_batch false;
            prop_inc_sequences;
          ] );
    ]
