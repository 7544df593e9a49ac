(* Tests for batch KWS and IncKWS.

   The fixture [fig2] reconstructs the KWS-relevant part of the paper's
   Figure 2 faithfully enough that Examples 1, 2 and 3 play out verbatim:
   the kdist tables before/after inserting e1, the removal of T_c2 after
   deleting e2, and the batch of Example 3 including the interleaving of
   insert e3 with delete e2. *)

open Ig_graph
module B = Ig_kws.Batch
module I = Ig_kws.Inc_kws

let check = Alcotest.check
let intl = Alcotest.(list int)
let norm = List.sort compare

let check_roots msg expected actual = check intl msg (norm expected) (norm actual)

let labeled_graph labels edges =
  let g = Digraph.create () in
  List.iter (fun l -> ignore (Digraph.add_node g l)) labels;
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

(* Figure 2 (KWS view). Node ids: *)
let a1 = 0
and a2 = 1
and b1 = 2
and b2 = 3
and b3 = 4
and b4 = 5
and c1 = 6
and c2 = 7
and d1 = 8
and d2 = 9

let fig2 () =
  labeled_graph
    [ "a"; "a"; "b"; "b"; "b"; "b"; "c"; "c"; "d"; "d" ]
    [
      (b2, b3); (b3, a2); (b2, b4); (b4, d1);
      (c2, b3) (* e2 *); (c2, b2); (d2, a1);
      (a1, b1); (b1, c1); (c1, a1) (* e5 *); (b1, a1);
    ]

let qad = { B.keywords = [ "a"; "d" ]; bound = 2 }

let e1 = (b2, d1)
and e2 = (c2, b3)
and e3 = (b2, a1)
and e4 = (b4, b3)
and e5 = (c1, a1)

(* ---- batch ---------------------------------------------------------------- *)

let test_batch_fig2_roots () =
  (* "Two trees T_b2 and T_d2 in Q(G)" *)
  check_roots "roots" [ b2; d2 ] (B.run (fig2 ()) qad)

let test_batch_fig2_kdist () =
  let kd = B.kdist_maps (fig2 ()) qad in
  let d_of i v = (Hashtbl.find kd.(i) v).B.dist in
  let next_of i v = (Hashtbl.find kd.(i) v).B.next in
  (* keyword a = index 0, keyword d = index 1 *)
  check Alcotest.int "kdist(b2)[d].dist" 2 (d_of 1 b2);
  check Alcotest.int "kdist(b2)[d].next" b4 (next_of 1 b2);
  check Alcotest.bool "kdist(c2)[d] undefined" true
    (not (Hashtbl.mem kd.(1) c2));
  check Alcotest.int "kdist(c2)[a]" 2 (d_of 0 c2);
  check Alcotest.int "kdist(c1)[a]" 1 (d_of 0 c1);
  check Alcotest.int "kdist(d2)[d]" 0 (d_of 1 d2);
  check Alcotest.int "self next" (-1) (next_of 1 d2)

let test_batch_deterministic_next () =
  (* Ties must break to the smallest successor id. *)
  let g = labeled_graph [ "x"; "k"; "k" ] [ (0, 1); (0, 2) ] in
  let kd = B.kdist_maps g { B.keywords = [ "k" ]; bound = 3 } in
  check Alcotest.int "min id" 1 (Hashtbl.find kd.(0) 0).B.next

let test_batch_bound_zero () =
  let g = labeled_graph [ "k"; "x" ] [ (1, 0) ] in
  check_roots "only keyword nodes" [ 0 ] (B.run g { B.keywords = [ "k" ]; bound = 0 })

let test_batch_unknown_keyword () =
  let g = labeled_graph [ "x" ] [] in
  check_roots "no match" [] (B.run g { B.keywords = [ "zzz" ]; bound = 5 })

let test_batch_tree_of () =
  let kd = B.kdist_maps (fig2 ()) qad in
  match B.tree_of kd b2 with
  | [ (0, pa); (1, pd) ] ->
      check intl "a path" [ b2; b3; a2 ] pa;
      check intl "d path" [ b2; b4; d1 ] pd
  | _ -> Alcotest.fail "wrong tree shape"

(* ---- incremental: paper examples ------------------------------------------ *)

let assert_sound msg t =
  try I.check_invariants t
  with Failure e -> Alcotest.failf "%s: invariant: %s" msg e

let test_example1 () =
  let t = I.init (fig2 ()) qad in
  let d = I.apply_batch t [ Digraph.Insert (fst e1, snd e1) ] in
  (* kdist(b2)[d]: <2,b4> -> <1,d1>; kdist(c2)[d]: undefined -> <2,b2> *)
  (match I.kdist t b2 1 with
  | Some e ->
      check Alcotest.int "b2 dist" 1 e.B.dist;
      check Alcotest.int "b2 next" d1 e.B.next
  | None -> Alcotest.fail "kdist(b2)[d] missing");
  (match I.kdist t c2 1 with
  | Some e ->
      check Alcotest.int "c2 dist" 2 e.B.dist;
      check Alcotest.int "c2 next" b2 e.B.next
  | None -> Alcotest.fail "kdist(c2)[d] missing");
  check_roots "T_c2 added" [ c2 ] d.added;
  check_roots "none removed" [] d.removed;
  assert_sound "example 1" t

let test_example2 () =
  let t = I.init (fig2 ()) qad in
  ignore (I.apply_batch t [ Digraph.Insert (fst e1, snd e1) ]);
  let d = I.apply_batch t [ Digraph.Delete (fst e2, snd e2) ] in
  (* c2 can no longer root a match: its a-distance via b2 hits the bound. *)
  check_roots "T_c2 removed" [ c2 ] d.removed;
  check Alcotest.bool "no kdist(c2)[a]" true (I.kdist t c2 0 = None);
  check_roots "roots back to initial" [ b2; d2 ] (I.match_roots t);
  assert_sound "example 2" t

let test_example3 () =
  let t = I.init (fig2 ()) qad in
  let mk_ins (u, v) = Digraph.Insert (u, v) in
  let mk_del (u, v) = Digraph.Delete (u, v) in
  let d =
    I.apply_batch t [ mk_ins e1; mk_ins e3; mk_ins e4; mk_del e2; mk_del e5 ]
  in
  (* T_b4 and the new T'_c2 are added; the branches of T_b2 are replaced. *)
  check_roots "added" [ b4; c2 ] d.added;
  check_roots "removed" [] d.removed;
  check_roots "all roots" [ b2; b4; c2; d2 ] (I.match_roots t);
  (* T'_c2: path (c2,b3,a2) replaced by (c2,b2,a1); interleaving of
     insert e3 with delete e2. *)
  (match I.kdist t c2 0 with
  | Some e ->
      check Alcotest.int "c2 a-dist" 2 e.B.dist;
      check Alcotest.int "c2 a-next" b2 e.B.next
  | None -> Alcotest.fail "kdist(c2)[a] missing");
  (* T_b2's branches now (b2,a1) and (b2,d1). *)
  (match I.match_tree t b2 with
  | [ (0, pa); (1, pd) ] ->
      check intl "b2 a-branch" [ b2; a1 ] pa;
      check intl "b2 d-branch" [ b2; d1 ] pd
  | _ -> Alcotest.fail "wrong tree shape");
  (* c1 lost its a-entry (potential exceeds the bound). *)
  check Alcotest.bool "c1 a-entry gone" true (I.kdist t c1 0 = None);
  assert_sound "example 3" t

(* ---- incremental: unit behaviors ------------------------------------------- *)

let test_inc_insert_noop_beyond_bound () =
  let g = labeled_graph [ "x"; "x"; "k" ] [ (1, 2) ] in
  let t = I.init g { B.keywords = [ "k" ]; bound = 1 } in
  (* 0 -> 1 gives 0 a distance of 2 > bound: no entry may appear. *)
  let d = I.apply_batch t [ Digraph.Insert (0, 1) ] in
  check_roots "nothing" [] (d.added @ d.removed);
  check Alcotest.bool "no entry" true (I.kdist t 0 0 = None);
  assert_sound "beyond bound" t

let test_inc_delete_alternate_path () =
  (* Equal-length alternate: deletion only rewires next. *)
  let g = labeled_graph [ "x"; "x"; "x"; "k" ] [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let t = I.init g { B.keywords = [ "k" ]; bound = 2 } in
  let before = Option.get (I.kdist t 0 0) in
  let d = I.apply_batch t [ Digraph.Delete (before.B.next, 3) ] in
  (* The intermediate node loses its only path; the root 0 survives via the
     alternate branch with the same distance. *)
  check_roots "only intermediate drops" [ before.B.next ] d.removed;
  let after = Option.get (I.kdist t 0 0) in
  check Alcotest.int "same dist" 2 after.B.dist;
  check Alcotest.bool "rewired" true (after.B.next <> before.B.next);
  assert_sound "alternate" t

let test_inc_add_node () =
  let g = labeled_graph [ "x" ] [] in
  let t = I.init g { B.keywords = [ "k"; "x" ]; bound = 1 } in
  let v = I.add_node t "k" in
  let d = I.apply_batch t [ Digraph.Insert (v, 0); Digraph.Insert (0, v) ] in
  (* v matches k at 0 hops and x at 1 hop; 0 matches x at 0 and k at 1. *)
  check_roots "both roots" [ 0; v ] d.added;
  assert_sound "add node" t

let test_inc_same_label_keywords () =
  let g = labeled_graph [ "k"; "k"; "x" ] [ (2, 0) ] in
  let t = I.init g { B.keywords = [ "k"; "k" ]; bound = 1 } in
  check_roots "duplicated keyword" [ 0; 1; 2 ] (I.match_roots t);
  let d = I.apply_batch t [ Digraph.Delete (2, 0) ] in
  check_roots "2 drops" [ 2 ] d.removed;
  assert_sound "same-label keywords" t

let test_inc_cascading_delete () =
  (* A chain where the deletion invalidates a whole next-pointer subtree. *)
  let g =
    labeled_graph [ "x"; "x"; "x"; "x"; "k" ]
      [ (0, 1); (1, 2); (2, 3); (3, 4) ]
  in
  let t = I.init g { B.keywords = [ "k" ]; bound = 4 } in
  check Alcotest.int "all reach" 5 (I.n_matches t);
  let d = I.apply_batch t [ Digraph.Delete (3, 4) ] in
  check_roots "chain collapses" [ 0; 1; 2; 3 ] d.removed;
  check_roots "only keyword node" [ 4 ] (I.match_roots t);
  assert_sound "cascade" t

let test_set_bound_raise () =
  let t = I.init (fig2 ()) { B.keywords = [ "a"; "d" ]; bound = 1 } in
  check_roots "b=1 roots" [ d2 ] (I.match_roots t);
  let d = I.set_bound t 2 in
  check_roots "raised adds b2" [ b2 ] d.added;
  check_roots "same as fresh init" (B.run (I.graph t) qad) (I.match_roots t);
  assert_sound "raise bound" t

let test_set_bound_lower () =
  let t = I.init (fig2 ()) qad in
  let d = I.set_bound t 1 in
  check_roots "lowered drops b2" [ b2 ] d.removed;
  check_roots "same as fresh init"
    (B.run (I.graph t) { B.keywords = [ "a"; "d" ]; bound = 1 })
    (I.match_roots t);
  assert_sound "lower bound" t

let test_set_bound_then_updates () =
  (* The session must stay fully functional after a bound change. *)
  let t = I.init (fig2 ()) { B.keywords = [ "a"; "d" ]; bound = 1 } in
  ignore (I.set_bound t 2);
  ignore
    (I.apply_batch t
       [ Digraph.Insert (fst e1, snd e1); Digraph.Delete (fst e2, snd e2) ]);
  assert_sound "bound change then updates" t

let prop_set_bound =
  QCheck.Test.make ~name:"set_bound == fresh init" ~count:200
    QCheck.(
      make
        Gen.(
          let* n = int_range 2 9 in
          let* labels = list_repeat n (oneofl [ "k1"; "k2"; "x" ]) in
          let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
          let* edges = list_size (int_bound (2 * n)) edge in
          let* b0 = int_range 0 4 in
          let* b1 = int_range 0 4 in
          return (labels, edges, b0, b1)))
    (fun (labels, edges, b0, b1) ->
      let g = labeled_graph labels edges in
      let t = I.init g { B.keywords = [ "k1"; "k2" ]; bound = b0 } in
      ignore (I.set_bound t b1);
      I.check_invariants t;
      norm (I.match_roots t)
      = norm (B.run (I.graph t) { B.keywords = [ "k1"; "k2" ]; bound = b1 }))

(* ---- randomized properties -------------------------------------------------- *)

let gen_case =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* labels = list_repeat n (oneofl [ "k1"; "k2"; "x" ]) in
    let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
    let* edges = list_size (int_bound (2 * n)) edge in
    let* ops = list_size (int_bound 14) (pair bool edge) in
    let* b = int_range 0 4 in
    let* kws =
      oneofl [ [ "k1" ]; [ "k1"; "k2" ]; [ "k1"; "k2"; "x" ]; [ "k2"; "k2" ] ]
    in
    return (labels, edges, ops, b, kws))

let arb_case =
  QCheck.make
    ~print:(fun (labels, edges, ops, b, kws) ->
      Printf.sprintf "labels=%s edges=%s ops=%s b=%d kws=%s"
        (String.concat "," labels)
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges))
        (String.concat ";"
           (List.map
              (fun (i, (u, v)) ->
                Printf.sprintf "%s(%d,%d)" (if i then "+" else "-") u v)
              ops))
        b (String.concat "," kws))
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
    ~name:(Printf.sprintf "IncKWS%s == batch rerun" (if grouped then "" else "n"))
    ~count:400 arb_case
    (fun (labels, edges, ops, b, kws) ->
      let ops = dedup_conflicts ops in
      let g = labeled_graph labels edges in
      let q = { B.keywords = kws; bound = b } in
      let t = I.init ~grouped g q in
      let old_roots = norm (I.match_roots t) in
      let d = I.apply_batch t (updates_of ops) in
      I.check_invariants t;
      let fresh = norm (B.run (I.graph t) q) in
      let now = norm (I.match_roots t) in
      let applied =
        norm
          (d.added @ List.filter (fun r -> not (List.mem r d.removed)) old_roots)
      in
      now = fresh && applied = fresh
      && List.for_all (fun r -> List.mem r old_roots) d.removed
      && List.for_all (fun r -> not (List.mem r old_roots)) d.added)

let prop_inc_sequences =
  QCheck.Test.make ~name:"IncKWS sound across successive batches" ~count:200
    QCheck.(
      pair arb_case
        (make
           Gen.(
             list_size (int_bound 10)
               (pair bool (pair (int_bound 9) (int_bound 9))))))
    (fun ((labels, edges, ops, b, kws), more) ->
      let n = List.length labels in
      let clamp ops =
        dedup_conflicts
          (List.map (fun (i, (u, v)) -> (i, (u mod n, v mod n))) ops)
      in
      let g = labeled_graph labels edges in
      let q = { B.keywords = kws; bound = b } in
      let t = I.init g q in
      ignore (I.apply_batch t (updates_of (clamp ops)));
      I.check_invariants t;
      ignore (I.apply_batch t (updates_of (clamp more)));
      I.check_invariants t;
      norm (I.match_roots t) = norm (B.run (I.graph t) q))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_kws"
    [
      ( "batch",
        [
          Alcotest.test_case "fig2 roots" `Quick test_batch_fig2_roots;
          Alcotest.test_case "fig2 kdist" `Quick test_batch_fig2_kdist;
          Alcotest.test_case "deterministic next" `Quick
            test_batch_deterministic_next;
          Alcotest.test_case "bound zero" `Quick test_batch_bound_zero;
          Alcotest.test_case "unknown keyword" `Quick test_batch_unknown_keyword;
          Alcotest.test_case "tree extraction" `Quick test_batch_tree_of;
        ] );
      ( "paper examples",
        [
          Alcotest.test_case "Example 1 (IncKWS+)" `Quick test_example1;
          Alcotest.test_case "Example 2 (IncKWS-)" `Quick test_example2;
          Alcotest.test_case "Example 3 (IncKWS batch)" `Quick test_example3;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "insert beyond bound" `Quick
            test_inc_insert_noop_beyond_bound;
          Alcotest.test_case "delete alternate path" `Quick
            test_inc_delete_alternate_path;
          Alcotest.test_case "add node" `Quick test_inc_add_node;
          Alcotest.test_case "duplicate keywords" `Quick
            test_inc_same_label_keywords;
          Alcotest.test_case "cascading delete" `Quick test_inc_cascading_delete;
        ] );
      ( "variable bound (Remark 4.2)",
        Alcotest.test_case "raise" `Quick test_set_bound_raise
        :: Alcotest.test_case "lower" `Quick test_set_bound_lower
        :: Alcotest.test_case "then updates" `Quick test_set_bound_then_updates
        :: qsuite [ prop_set_bound ] );
      ( "properties",
        qsuite
          [
            prop_inc_matches_batch true;
            prop_inc_matches_batch false;
            prop_inc_sequences;
          ] );
    ]
