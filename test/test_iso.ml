(* Tests for VF2 and IncISO: pattern plumbing, enumeration against a
   brute-force oracle, and incremental equivalence with batch reruns. *)

open Ig_graph
module P = Ig_iso.Pattern
module V = Ig_iso.Vf2
module I = Ig_iso.Inc_iso

let check = Alcotest.check

let labeled_graph labels edges =
  let g = Digraph.create () in
  List.iter (fun l -> ignore (Digraph.add_node g l)) labels;
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

let canon_set p ms =
  List.sort compare (List.map (fun m -> V.canon_of p m) ms)

(* Brute-force oracle: try all injective assignments. *)
let brute g p =
  let n = Digraph.n_nodes g and k = P.n_nodes p in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let m = Array.make k (-1) in
  let rec go u =
    if u = k then begin
      let ok =
        List.for_all (fun (a, b) -> Digraph.mem_edge g m.(a) m.(b)) (P.edges p)
      in
      if ok then begin
        let c = V.canon_of p m in
        if not (Hashtbl.mem seen c) then begin
          Hashtbl.replace seen c ();
          acc := Array.copy m :: !acc
        end
      end
    end
    else
      for v = 0 to n - 1 do
        if
          Digraph.label_name g v = P.label p u
          && not (Array.exists (fun x -> x = v) m)
        then begin
          m.(u) <- v;
          go (u + 1);
          m.(u) <- -1
        end
      done
  in
  go 0;
  !acc

(* ---- pattern ---------------------------------------------------------------- *)

let test_pattern_basics () =
  let p = P.create ~labels:[ "a"; "b"; "c" ] ~edges:[ (0, 1); (1, 2); (2, 0) ] in
  check Alcotest.int "nodes" 3 (P.n_nodes p);
  check Alcotest.int "edges" 3 (P.n_edges p);
  check Alcotest.int "diameter" 1 (P.diameter p);
  check Alcotest.string "label" "b" (P.label p 1)

let test_pattern_diameter_path () =
  let p = P.create ~labels:[ "a"; "b"; "c"; "d" ] ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  check Alcotest.int "path diameter" 3 (P.diameter p)

let test_pattern_single_node () =
  let p = P.create ~labels:[ "a" ] ~edges:[] in
  check Alcotest.int "diameter 0" 0 (P.diameter p)

let test_pattern_rejects_disconnected () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Pattern.create: pattern is not weakly connected")
    (fun () -> ignore (P.create ~labels:[ "a"; "b" ] ~edges:[]))

let test_pattern_rejects_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Pattern.create: empty pattern") (fun () ->
      ignore (P.create ~labels:[] ~edges:[]))

let test_matching_order_connected () =
  let p =
    P.create ~labels:[ "a"; "b"; "c"; "d" ] ~edges:[ (0, 1); (0, 2); (2, 3) ]
  in
  let order = P.matching_order p in
  check Alcotest.int "is permutation" 4
    (List.length (List.sort_uniq compare (Array.to_list order)))

(* ---- VF2 ---------------------------------------------------------------------- *)

let tri_pattern () =
  P.create ~labels:[ "a"; "b"; "c" ] ~edges:[ (0, 1); (1, 2); (2, 0) ]

let test_vf2_triangle () =
  let g =
    labeled_graph [ "a"; "b"; "c"; "a" ]
      [ (0, 1); (1, 2); (2, 0); (3, 1); (2, 3) ]
  in
  let p = tri_pattern () in
  (* Two a-nodes, both closing a triangle with b and c. *)
  check Alcotest.int "two triangles" 2 (List.length (V.find_all g p))

let test_vf2_automorphism_dedup () =
  (* Symmetric pattern a->b, a->b mapped on symmetric data counts once per
     subgraph. Pattern: x -> y with both labeled "a"; data: 2-cycle of "a". *)
  let g = labeled_graph [ "a"; "a" ] [ (0, 1); (1, 0) ] in
  let p = P.create ~labels:[ "a"; "a" ] ~edges:[ (0, 1) ] in
  (* Subgraphs: edge (0,1) and edge (1,0): two distinct matches. *)
  check Alcotest.int "two directed edges" 2 (List.length (V.find_all g p));
  (* Symmetric 2-cycle pattern on the same data: one subgraph only. *)
  let p2 = P.create ~labels:[ "a"; "a" ] ~edges:[ (0, 1); (1, 0) ] in
  check Alcotest.int "one 2-cycle" 1 (List.length (V.find_all g p2))

let test_vf2_monomorphism_not_induced () =
  (* Extra data edges must not block a match (non-induced semantics). *)
  let g = labeled_graph [ "a"; "b" ] [ (0, 1); (1, 0) ] in
  let p = P.create ~labels:[ "a"; "b" ] ~edges:[ (0, 1) ] in
  check Alcotest.int "matches despite extra edge" 1 (List.length (V.find_all g p))

let test_vf2_labels_matter () =
  let g = labeled_graph [ "a"; "x" ] [ (0, 1) ] in
  let p = P.create ~labels:[ "a"; "b" ] ~edges:[ (0, 1) ] in
  check Alcotest.int "no match" 0 (List.length (V.find_all g p))

let test_vf2_unknown_label () =
  let g = labeled_graph [ "a" ] [] in
  let p = P.create ~labels:[ "zzz" ] ~edges:[] in
  check Alcotest.int "unknown label" 0 (List.length (V.find_all g p))

let test_vf2_self_loop () =
  let g = labeled_graph [ "a"; "a" ] [ (0, 0); (0, 1) ] in
  let p = P.create ~labels:[ "a" ] ~edges:[ (0, 0) ] in
  check Alcotest.int "self loop" 1 (List.length (V.find_all g p))

(* Every match maps some pattern edge onto some graph edge, so the anchored
   runs over all (graph edge, pattern edge) pairs together find exactly
   [find_all]'s canons, and each run binds only its anchor. *)
let anchored_canons g p =
  let seen = Hashtbl.create 16 and ok = ref true in
  List.iter
    (fun ((x, y) as e) ->
      let plan = V.plan p e in
      List.iter
        (fun (v, w) ->
          V.iter_matches ~anchor:(plan, (v, w)) g p (fun m ->
              if m.(x) <> v || m.(y) <> w then ok := false;
              Hashtbl.replace seen (V.canon_of p m) ()))
        (Digraph.edges g))
    (P.edges p);
  (!ok, List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen)))

let test_vf2_anchored () =
  let g =
    labeled_graph [ "a"; "b"; "c"; "a"; "b" ]
      [ (0, 1); (1, 2); (2, 0); (3, 1); (2, 3); (3, 4); (4, 2) ]
  in
  let p = tri_pattern () in
  let ok, canons = anchored_canons g p in
  check Alcotest.bool "anchors respected" true ok;
  check Alcotest.int "three triangles" 3 (List.length canons);
  check Alcotest.bool "same canons as find_all" true
    (canons = canon_set p (V.find_all g p));
  (* An anchor on an absent edge, or on an edge whose labels fit no pattern
     edge, finds nothing. *)
  let none e anchor =
    let n = ref 0 in
    V.iter_matches ~anchor:(V.plan p e, anchor) g p (fun _ -> incr n);
    !n
  in
  check Alcotest.int "absent edge" 0 (none (0, 1) (3, 2));
  check Alcotest.int "labels" 0 (none (0, 1) (1, 2))

(* ---- IncISO -------------------------------------------------------------------- *)

let assert_sound msg t =
  try I.check_invariants t
  with Failure e -> Alcotest.failf "%s: invariant: %s" msg e

let test_inc_insert_completes_triangle () =
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2) ] in
  let t = I.init g (tri_pattern ()) in
  check Alcotest.int "none yet" 0 (I.n_matches t);
  let d = I.apply_batch t [ Digraph.Insert (2, 0) ] in
  check Alcotest.int "one added" 1 (List.length d.added);
  check Alcotest.int "total" 1 (I.n_matches t);
  assert_sound "triangle" t

let test_inc_delete_breaks_match () =
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2); (2, 0) ] in
  let t = I.init g (tri_pattern ()) in
  check Alcotest.int "one" 1 (I.n_matches t);
  let d = I.apply_batch t [ Digraph.Delete (1, 2) ] in
  check Alcotest.int "removed" 1 (List.length d.removed);
  check Alcotest.int "none" 0 (I.n_matches t);
  assert_sound "break" t

let test_inc_shared_edge_multi_matches () =
  (* Two triangles share edge (0,1); deleting it kills both. *)
  let g =
    labeled_graph [ "a"; "b"; "c"; "c" ]
      [ (0, 1); (1, 2); (2, 0); (1, 3); (3, 0) ]
  in
  let t = I.init g (tri_pattern ()) in
  check Alcotest.int "two" 2 (I.n_matches t);
  let d = I.apply_batch t [ Digraph.Delete (0, 1) ] in
  check Alcotest.int "both removed" 2 (List.length d.removed);
  assert_sound "shared edge" t

let test_inc_batch_cancel () =
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2); (2, 0) ] in
  let t = I.init g (tri_pattern ()) in
  let d =
    I.apply_batch t [ Digraph.Delete (1, 2); Digraph.Insert (1, 2) ]
  in
  check Alcotest.int "net zero" 0 (List.length d.added + List.length d.removed);
  check Alcotest.int "still one" 1 (I.n_matches t);
  assert_sound "cancel" t

(* ---- properties ------------------------------------------------------------------ *)

let gen_case =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* labels = list_repeat n (oneofl [ "a"; "b" ]) in
    let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
    let* edges = list_size (int_bound (2 * n)) edge in
    let* ops = list_size (int_bound 10) (pair bool edge) in
    let* pat =
      oneofl
        [
          ([ "a"; "b" ], [ (0, 1) ]);
          ([ "a"; "b"; "a" ], [ (0, 1); (1, 2) ]);
          ([ "a"; "a" ], [ (0, 1); (1, 0) ]);
          ([ "a"; "b"; "b" ], [ (0, 1); (0, 2); (1, 2) ]);
          ([ "b" ], [ (0, 0) ]);
        ]
    in
    return (labels, edges, ops, pat))

let arb_case =
  QCheck.make
    ~print:(fun (labels, edges, ops, (pl, pe)) ->
      Printf.sprintf "labels=%s edges=%s ops=%s pat=(%s|%s)"
        (String.concat "" labels)
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges))
        (String.concat ";"
           (List.map
              (fun (i, (u, v)) ->
                Printf.sprintf "%s(%d,%d)" (if i then "+" else "-") u v)
              ops))
        (String.concat "" pl)
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) pe)))
    gen_case

let prop_vf2_matches_brute =
  QCheck.Test.make ~name:"VF2 == brute force" ~count:300 arb_case
    (fun (labels, edges, _, (pl, pe)) ->
      let g = labeled_graph labels edges in
      let p = P.create ~labels:pl ~edges:pe in
      canon_set p (V.find_all g p) = canon_set p (brute g p))

let prop_vf2_anchored =
  QCheck.Test.make ~name:"anchored VF2 == find_all" ~count:300 arb_case
    (fun (labels, edges, _, (pl, pe)) ->
      let g = labeled_graph labels edges in
      let p = P.create ~labels:pl ~edges:pe in
      anchored_canons g p = (true, canon_set p (V.find_all g p)))

let updates_of =
  List.map (fun (i, (u, v)) ->
      if i then Digraph.Insert (u, v) else Digraph.Delete (u, v))

(* One batch, repeated edges and all, checked against a VF2 rerun: the
   graph ends as a sequential [Digraph.apply_batch] leaves it, and ΔO obeys
   removed ⊆ old, added ∩ old = ∅ and (old ∖ removed) ∪ added = new. *)
let batch_sound t p ops =
  let old_set = canon_set p (I.matches t) in
  let replica = Digraph.copy (I.graph t) in
  Digraph.apply_batch replica (updates_of ops);
  let d = I.apply_batch t (updates_of ops) in
  I.check_invariants t;
  Digraph.edges (I.graph t) = Digraph.edges replica
  &&
  let fresh = canon_set p (V.find_all (I.graph t) p) in
  let now = canon_set p (I.matches t) in
  let added = canon_set p d.added and removed = canon_set p d.removed in
  now = fresh
  && List.for_all (fun c -> List.mem c old_set) removed
  && List.for_all (fun c -> not (List.mem c old_set)) added
  && List.sort compare
       (added @ List.filter (fun c -> not (List.mem c removed)) old_set)
     = fresh

(* IncISO takes the batch in one call. IncISOn, the one-by-one ablation,
   takes one update per call, and each call is checked as a batch. *)
let prop_inc_matches_batch one_by_one =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "IncISO%s == VF2 rerun" (if one_by_one then "n" else ""))
    ~count:300 arb_case
    (fun (labels, edges, ops, (pl, pe)) ->
      let p = P.create ~labels:pl ~edges:pe in
      let t = I.init (labeled_graph labels edges) p in
      if one_by_one then List.for_all (fun op -> batch_sound t p [ op ]) ops
      else batch_sound t p ops)

(* The certificate without its mappings. A match is stored under the
   mapping that found it first, and for a pattern with automorphisms which
   one that is depends on the order the updates came in. *)
let images_only =
  let drop_map line =
    let rec keep = function "map" :: _ | [] -> [] | w :: ws -> w :: keep ws in
    String.concat " " (keep (String.split_on_char ' ' line))
  in
  List.map (fun (section, text) ->
      if section <> "matches" then (section, text)
      else
        ( section,
          String.split_on_char '\n' text
          |> List.map drop_map |> String.concat "\n" ))

(* One batch in one call and the same batch one update per call end with
   equal certificates, mappings aside, and equal answers. *)
let prop_grouped_vs_unit =
  QCheck.Test.make ~name:"grouped vs unit" ~count:300 arb_case
    (fun (labels, edges, ops, (pl, pe)) ->
      let p = P.create ~labels:pl ~edges:pe in
      let run one_by_one =
        let t = I.init (labeled_graph labels edges) p in
        let ups = updates_of ops in
        if one_by_one then
          List.iter (fun u -> ignore (I.apply_batch t [ u ])) ups
        else ignore (I.apply_batch t ups);
        (images_only (I.cert_snapshot t), canon_set p (I.matches t))
      in
      run false = run true)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_iso"
    [
      ( "pattern",
        [
          Alcotest.test_case "basics" `Quick test_pattern_basics;
          Alcotest.test_case "path diameter" `Quick test_pattern_diameter_path;
          Alcotest.test_case "single node" `Quick test_pattern_single_node;
          Alcotest.test_case "rejects disconnected" `Quick
            test_pattern_rejects_disconnected;
          Alcotest.test_case "rejects empty" `Quick test_pattern_rejects_empty;
          Alcotest.test_case "matching order" `Quick
            test_matching_order_connected;
        ] );
      ( "vf2",
        Alcotest.test_case "triangles" `Quick test_vf2_triangle
        :: Alcotest.test_case "automorphism dedup" `Quick
             test_vf2_automorphism_dedup
        :: Alcotest.test_case "monomorphism" `Quick
             test_vf2_monomorphism_not_induced
        :: Alcotest.test_case "labels" `Quick test_vf2_labels_matter
        :: Alcotest.test_case "unknown label" `Quick test_vf2_unknown_label
        :: Alcotest.test_case "self loop" `Quick test_vf2_self_loop
        :: Alcotest.test_case "anchored match" `Quick test_vf2_anchored
        :: qsuite [ prop_vf2_matches_brute; prop_vf2_anchored ] );
      ( "incremental",
        [
          Alcotest.test_case "insert completes" `Quick
            test_inc_insert_completes_triangle;
          Alcotest.test_case "delete breaks" `Quick test_inc_delete_breaks_match;
          Alcotest.test_case "shared edge" `Quick
            test_inc_shared_edge_multi_matches;
          Alcotest.test_case "batch cancel" `Quick test_inc_batch_cancel;
        ]
        @ qsuite [ prop_grouped_vs_unit ] );
      ( "properties",
        qsuite [ prop_inc_matches_batch false; prop_inc_matches_batch true ] );
    ]
