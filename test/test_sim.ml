(* Tests for graph simulation (batch fixpoint and incremental engine),
   cross-validated against a naive textbook fixpoint oracle. *)

open Ig_graph
module P = Ig_iso.Pattern
module S = Ig_sim.Sim
module I = Ig_sim.Inc_sim

let check = Alcotest.check

let labeled_graph labels edges =
  let g = Digraph.create () in
  List.iter (fun l -> ignore (Digraph.add_node g l)) labels;
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

let norm pairs = List.sort compare pairs

(* Naive greatest-fixpoint oracle: start from label candidates, repeatedly
   remove unsupported pairs until stable. *)
let oracle p g =
  let sets = S.candidates p g in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun u set ->
        let bad = ref [] in
        Hashtbl.iter
          (fun v () ->
            let ok =
              List.for_all
                (fun u' ->
                  let found = ref false in
                  Digraph.iter_succ
                    (fun w -> if Hashtbl.mem sets.(u') w then found := true)
                    g v;
                  !found)
                (P.succ p u)
            in
            if not ok then bad := v :: !bad)
          set;
        if !bad <> [] then begin
          changed := true;
          List.iter (fun v -> Hashtbl.remove set v) !bad
        end)
      sets
  done;
  sets

(* ---- batch ----------------------------------------------------------------- *)

let test_sim_path_pattern () =
  let g = labeled_graph [ "a"; "b"; "c"; "a" ] [ (0, 1); (1, 2); (3, 1) ] in
  let p = P.create ~labels:[ "a"; "b"; "c" ] ~edges:[ (0, 1); (1, 2) ] in
  let r = S.run p g in
  (* Both a-nodes reach b which reaches c. *)
  check Alcotest.bool "a0" true (S.mem r 0 0);
  check Alcotest.bool "a3" true (S.mem r 0 3);
  check Alcotest.bool "b" true (S.mem r 1 1);
  check Alcotest.bool "c" true (S.mem r 2 2)

let test_sim_vs_iso () =
  (* A cycle pattern simulates into an infinite unrolling: the 2-cycle
     pattern matches a path-shaped... no — simulation needs successors
     forever, so only the actual cycle survives; but unlike ISO the same
     node may simulate several pattern nodes. *)
  let g = labeled_graph [ "a"; "a" ] [ (0, 1); (1, 0) ] in
  let p = P.create ~labels:[ "a"; "a" ] ~edges:[ (0, 1); (1, 0) ] in
  let r = S.run p g in
  check Alcotest.int "all four pairs" 4 (List.length (S.pairs r))

let test_sim_empty () =
  let g = labeled_graph [ "a"; "b" ] [] in
  let p = P.create ~labels:[ "a"; "b" ] ~edges:[ (0, 1) ] in
  (* The b pattern node has no out-requirements, so node b simulates it
     even with no edges; the a side dies for lack of support. *)
  check
    Alcotest.(list (pair int int))
    "only the sink pair" [ (1, 1) ]
    (norm (S.pairs (S.run p g)))

let test_sim_dangling_requirement () =
  (* b exists but has no c successor: the whole chain collapses. *)
  let g = labeled_graph [ "a"; "b"; "x" ] [ (0, 1); (1, 2) ] in
  let p = P.create ~labels:[ "a"; "b"; "c" ] ~edges:[ (0, 1); (1, 2) ] in
  check Alcotest.int "collapses" 0 (List.length (S.pairs (S.run p g)))

(* ---- incremental ------------------------------------------------------------- *)

let test_inc_insert_creates () =
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1) ] in
  let p = P.create ~labels:[ "a"; "b"; "c" ] ~edges:[ (0, 1); (1, 2) ] in
  let t = I.init g p in
  (* (c, node c) holds from the start: no out-requirements. *)
  check Alcotest.int "sink pair only" 1 (I.n_pairs t);
  let d = I.apply_batch t [ Digraph.Insert (1, 2) ] in
  check Alcotest.int "the chain revalidates" 2 (List.length d.added);
  check Alcotest.int "three total" 3 (I.n_pairs t);
  I.check_invariants t

let test_inc_delete_cascades () =
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2) ] in
  let p = P.create ~labels:[ "a"; "b"; "c" ] ~edges:[ (0, 1); (1, 2) ] in
  let t = I.init g p in
  check Alcotest.int "three" 3 (I.n_pairs t);
  let d = I.apply_batch t [ Digraph.Delete (1, 2) ] in
  (* (2,c) keeps simulating (no out-requirements), the rest cascade away. *)
  check Alcotest.int "two removed" 2 (List.length d.removed);
  check Alcotest.bool "c stays" true (I.mem t 2 2);
  I.check_invariants t

let test_inc_cancel () =
  let g = labeled_graph [ "a"; "b" ] [ (0, 1) ] in
  let p = P.create ~labels:[ "a"; "b" ] ~edges:[ (0, 1) ] in
  let t = I.init g p in
  let d = I.apply_batch t [ Digraph.Delete (0, 1); Digraph.Insert (0, 1) ] in
  check Alcotest.int "net zero" 0 (List.length d.added + List.length d.removed);
  I.check_invariants t

let prop_batch_matches_oracle =
  QCheck.Test.make ~name:"prune == naive fixpoint" ~count:300
    QCheck.(
      make
        Gen.(
          let* n = int_range 2 8 in
          let* labels = list_repeat n (oneofl [ "a"; "b" ]) in
          let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
          let* edges = list_size (int_bound (2 * n)) edge in
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
          return (labels, edges, pat)))
    (fun (labels, edges, (pl, pe)) ->
      let g = labeled_graph labels edges in
      let p = P.create ~labels:pl ~edges:pe in
      norm (S.pairs (S.run p g)) = norm (S.pairs (oracle p g)))

(* A small labelled graph, a batch over its nodes (repeated edges
   included) and one of a few patterns. *)
let inc_case =
  QCheck.(
    make
      Gen.(
        let* n = int_range 2 8 in
        let* labels = list_repeat n (oneofl [ "a"; "b" ]) in
        let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
        let* edges = list_size (int_bound (2 * n)) edge in
        let* ops = list_size (int_bound 12) (pair bool edge) in
        let* pat =
          oneofl
            [
              ([ "a"; "b" ], [ (0, 1) ]);
              ([ "a"; "b"; "a" ], [ (0, 1); (1, 2) ]);
              ([ "a"; "a" ], [ (0, 1); (1, 0) ]);
              ([ "a"; "b"; "b" ], [ (0, 1); (0, 2); (1, 2) ]);
              ([ "b"; "a" ], [ (0, 0); (0, 1) ]);
            ]
        in
        let batch =
          List.map
            (fun (i, (u, v)) ->
              if i then Digraph.Insert (u, v) else Digraph.Delete (u, v))
            ops
        in
        return (labels, edges, batch, pat)))

let prop_inc_matches_batch =
  QCheck.Test.make ~name:"IncSim == batch rerun" ~count:300 inc_case
    (fun (labels, edges, batch, (pl, pe)) ->
      let g = labeled_graph labels edges in
      let p = P.create ~labels:pl ~edges:pe in
      let t = I.init g p in
      let old_pairs = norm (Ig_sim.Sim.pairs (I.relation t)) in
      (* The graph must end as a sequential [Digraph.apply_batch] leaves
         it. *)
      let replica = labeled_graph labels edges in
      Digraph.apply_batch replica batch;
      let d = I.apply_batch t batch in
      I.check_invariants t;
      Digraph.edges (I.graph t) = Digraph.edges replica
      &&
      let now = norm (S.pairs (I.relation t)) in
      let fresh = norm (S.pairs (S.run p (I.graph t))) in
      let applied =
        norm
          (d.added
          @ List.filter (fun x -> not (List.mem x d.removed)) old_pairs)
      in
      (now = fresh && applied = fresh))

(* The whole certificate, support counters included, is a function of
   (G, Q): after any batch it equals a fresh [init]'s on the final graph,
   and one call equals one call per update. *)
let prop_cert_is_fresh =
  QCheck.Test.make ~name:"IncSim certificate == fresh init" ~count:300
    inc_case (fun (labels, edges, batch, (pl, pe)) ->
      let p = P.create ~labels:pl ~edges:pe in
      let t = I.init (labeled_graph labels edges) p in
      let t1 = I.init (labeled_graph labels edges) p in
      ignore (I.apply_batch t batch);
      List.iter (fun up -> ignore (I.apply_batch t1 [ up ])) batch;
      let fresh = I.cert_snapshot (I.init (Digraph.copy (I.graph t)) p) in
      I.cert_snapshot t = fresh && I.cert_snapshot t1 = fresh)

(* An insertion restores, in the same batch, the support a deletion takes
   away: (0, a) never leaves R. Removing it and re-adding it would be two
   pairs of |AFF| for a ΔO of nothing. *)
let test_inc_restored_support () =
  let g = labeled_graph [ "a"; "b"; "b" ] [ (0, 1) ] in
  let p = P.create ~labels:[ "a"; "b" ] ~edges:[ (0, 1) ] in
  let obs = Ig_obs.Obs.create () in
  let t = I.init ~obs g p in
  let d = I.apply_batch t [ Digraph.Delete (0, 1); Digraph.Insert (0, 2) ] in
  check Alcotest.int "ΔO" 0 (List.length d.added + List.length d.removed);
  check Alcotest.int "aff" 0 (Ig_obs.Obs.counter obs Ig_obs.Obs.K.aff);
  check Alcotest.int "cert_rewrites" 0
    (Ig_obs.Obs.counter obs Ig_obs.Obs.K.cert_rewrites);
  I.check_invariants t

(* A deletion that takes a support counter to 0 queues its pair: one
   push, counted like every cascade push. *)
let test_inc_delete_counts_push () =
  let g = labeled_graph [ "a"; "b" ] [ (0, 1) ] in
  let p = P.create ~labels:[ "a"; "b" ] ~edges:[ (0, 1) ] in
  let obs = Ig_obs.Obs.create () in
  let t = I.init ~obs g p in
  let pushes () = Ig_obs.Obs.counter obs Ig_obs.Obs.K.queue_pushes in
  let before = pushes () in
  let d = I.apply_batch t [ Digraph.Delete (0, 1) ] in
  check Alcotest.(list (pair int int)) "ΔO" [ (0, 0) ] d.removed;
  check Alcotest.int "queue_pushes" 1 (pushes () - before)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_sim"
    [
      ( "batch",
        Alcotest.test_case "path pattern" `Quick test_sim_path_pattern
        :: Alcotest.test_case "cycle (vs iso)" `Quick test_sim_vs_iso
        :: Alcotest.test_case "empty" `Quick test_sim_empty
        :: Alcotest.test_case "dangling requirement" `Quick
             test_sim_dangling_requirement
        :: qsuite [ prop_batch_matches_oracle ] );
      ( "incremental",
        Alcotest.test_case "insert creates" `Quick test_inc_insert_creates
        :: Alcotest.test_case "delete cascades" `Quick test_inc_delete_cascades
        :: Alcotest.test_case "cancel" `Quick test_inc_cancel
        :: Alcotest.test_case "restored support" `Quick
             test_inc_restored_support
        :: Alcotest.test_case "deletion push counted" `Quick
             test_inc_delete_counts_push
        :: qsuite [ prop_inc_matches_batch; prop_cert_is_fresh ] );
    ]
