(* Unit and property tests for the graph substrate: Vec, Interner, Digraph,
   Pqueue, Rank, Traverse, Io. *)

open Ig_graph

let check = Alcotest.check
let intl = Alcotest.(list int)

(* ---- Vec --------------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    check Alcotest.int "index" i (Vec.push v (i * 2))
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check Alcotest.int "get" (i * 2) (Vec.get v i)
  done

let test_vec_set () =
  let v = Vec.make 3 0 in
  Vec.set v 1 42;
  check intl "contents" [ 0; 42; 0 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.make 2 0 in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 2));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> Vec.set v (-1) 0)

let test_vec_clear () =
  let v = Vec.create () in
  ignore (Vec.push v 1);
  Vec.clear v;
  check Alcotest.int "empty" 0 (Vec.length v);
  check Alcotest.int "reuse" 0 (Vec.push v 5)

let test_vec_fold_iter () =
  let v = Vec.create () in
  List.iter (fun x -> ignore (Vec.push v x)) [ 1; 2; 3; 4 ];
  check Alcotest.int "fold" 10 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check
    Alcotest.(list (pair int int))
    "iteri"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (List.rev !acc)

(* ---- Interner ----------------------------------------------------------- *)

let test_interner_roundtrip () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  check Alcotest.int "stable" a (Interner.intern t "alpha");
  check Alcotest.bool "distinct" true (a <> b);
  check Alcotest.string "name a" "alpha" (Interner.name t a);
  check Alcotest.string "name b" "beta" (Interner.name t b);
  check Alcotest.int "size" 2 (Interner.size t);
  check Alcotest.(option int) "find hit" (Some a) (Interner.find t "alpha");
  check Alcotest.(option int) "find miss" None (Interner.find t "gamma")

let test_interner_bad_symbol () =
  let t = Interner.create () in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Interner.name: unknown symbol") (fun () ->
      ignore (Interner.name t 0))

(* ---- Digraph ------------------------------------------------------------ *)

let mk_path n =
  (* 0 -> 1 -> ... -> n-1, all labeled "x" *)
  let g = Digraph.create () in
  for _ = 1 to n do
    ignore (Digraph.add_node g "x")
  done;
  for i = 0 to n - 2 do
    ignore (Digraph.add_edge g i (i + 1))
  done;
  g

let test_digraph_basics () =
  let g = Digraph.create () in
  let a = Digraph.add_node g "a" in
  let b = Digraph.add_node g "b" in
  let c = Digraph.add_node g "a" in
  check Alcotest.int "nodes" 3 (Digraph.n_nodes g);
  check Alcotest.bool "edge new" true (Digraph.add_edge g a b);
  check Alcotest.bool "edge dup" false (Digraph.add_edge g a b);
  check Alcotest.int "edges" 1 (Digraph.n_edges g);
  check Alcotest.bool "mem" true (Digraph.mem_edge g a b);
  check Alcotest.bool "not mem" false (Digraph.mem_edge g b a);
  check Alcotest.string "label" "b" (Digraph.label_name g b);
  check Alcotest.bool "same label shares symbol" true
    (Digraph.label g a = Digraph.label g c);
  check intl "by label" [ c; a ]
    (Digraph.nodes_with_label g (Digraph.label g a))

let test_digraph_remove () =
  let g = mk_path 3 in
  check Alcotest.bool "del" true (Digraph.remove_edge g 0 1);
  check Alcotest.bool "del again" false (Digraph.remove_edge g 0 1);
  check Alcotest.int "edges" 1 (Digraph.n_edges g);
  check Alcotest.int "out0" 0 (Digraph.out_degree g 0);
  check Alcotest.int "in1" 0 (Digraph.in_degree g 1)

let test_digraph_degrees () =
  let g = Digraph.create () in
  let a = Digraph.add_node g "a" in
  let b = Digraph.add_node g "b" in
  let c = Digraph.add_node g "c" in
  ignore (Digraph.add_edge g a b);
  ignore (Digraph.add_edge g a c);
  ignore (Digraph.add_edge g b c);
  check Alcotest.int "out a" 2 (Digraph.out_degree g a);
  check Alcotest.int "in c" 2 (Digraph.in_degree g c);
  check intl "succ a" [ b; c ] (List.sort compare (Digraph.succ_list g a));
  check intl "pred c" [ a; b ] (List.sort compare (Digraph.pred_list g c))

let test_digraph_self_loop () =
  let g = Digraph.create () in
  let a = Digraph.add_node g "a" in
  check Alcotest.bool "self loop" true (Digraph.add_edge g a a);
  check Alcotest.int "deg" 1 (Digraph.out_degree g a);
  check Alcotest.bool "remove" true (Digraph.remove_edge g a a)

let test_digraph_apply () =
  let g = mk_path 3 in
  Digraph.apply_batch g
    [ Digraph.Delete (0, 1); Digraph.Insert (2, 0); Digraph.Insert (2, 0) ];
  check Alcotest.bool "deleted" false (Digraph.mem_edge g 0 1);
  check Alcotest.bool "inserted" true (Digraph.mem_edge g 2 0);
  check Alcotest.int "edges" 2 (Digraph.n_edges g)

let test_digraph_copy () =
  let g = mk_path 3 in
  let g' = Digraph.copy g in
  ignore (Digraph.remove_edge g' 0 1);
  check Alcotest.bool "original intact" true (Digraph.mem_edge g 0 1);
  check Alcotest.bool "copy changed" false (Digraph.mem_edge g' 0 1)

let test_digraph_unknown_node () =
  let g = mk_path 2 in
  Alcotest.check_raises "bad edge" (Invalid_argument "Digraph: unknown node")
    (fun () -> ignore (Digraph.add_edge g 0 7))

(* ---- Pqueue ------------------------------------------------------------- *)

module PQ = Pqueue.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let test_pqueue_order () =
  let q = PQ.create () in
  List.iter (fun (k, p) -> PQ.insert q k p)
    [ (1, 5); (2, 3); (3, 8); (4, 1); (5, 4) ];
  let drained = ref [] in
  let rec drain () =
    match PQ.pull_min q with
    | None -> ()
    | Some (k, _) ->
        drained := k :: !drained;
        drain ()
  in
  drain ();
  check intl "min order" [ 4; 2; 5; 1; 3 ] (List.rev !drained)

let test_pqueue_decrease () =
  let q = PQ.create () in
  PQ.insert q 1 10;
  PQ.insert q 2 20;
  PQ.decrease q 2 5;
  PQ.decrease q 2 50 (* ignored: not a decrease *);
  check Alcotest.(option int) "prio" (Some 5) (PQ.priority q 2);
  check
    Alcotest.(option (pair int int))
    "min" (Some (2, 5)) (PQ.pull_min q);
  check
    Alcotest.(option (pair int int))
    "next" (Some (1, 10)) (PQ.pull_min q);
  check Alcotest.bool "empty" true (PQ.is_empty q)

let test_pqueue_insert_is_decrease () =
  let q = PQ.create () in
  PQ.insert q 7 9;
  PQ.insert q 7 3;
  check Alcotest.int "no duplicate" 1 (PQ.length q);
  check Alcotest.(option int) "lowered" (Some 3) (PQ.priority q 7)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains sorted"
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let q = PQ.create () in
      let expect = Hashtbl.create 16 in
      List.iter
        (fun (k, p) ->
          PQ.insert q k p;
          (* Mimic insert-as-decrease semantics. *)
          match Hashtbl.find_opt expect k with
          | Some p' when p' <= p -> ()
          | _ -> Hashtbl.replace expect k p)
        pairs;
      let rec drain acc =
        match PQ.pull_min q with
        | None -> List.rev acc
        | Some (k, p) -> drain ((k, p) :: acc)
      in
      let drained = drain [] in
      let prios = List.map snd drained in
      List.sort compare prios = prios
      && List.length drained = Hashtbl.length expect
      && List.for_all (fun (k, p) -> Hashtbl.find expect k = p) drained)

(* ---- Rank ---------------------------------------------------------------- *)

let test_rank_order () =
  let r = Rank.create () in
  Rank.insert_top r 1;
  Rank.insert_top r 2;
  Rank.insert_bottom r 3;
  check Alcotest.bool "1 < 2" true (Rank.compare_items r 1 2 < 0);
  check Alcotest.bool "3 < 1" true (Rank.compare_items r 3 1 < 0);
  Rank.check r

let test_rank_reassign () =
  let r = Rank.create () in
  List.iter (fun x -> Rank.insert_top r x) [ 1; 2; 3; 4 ];
  (* Permute: desired ascending order 4 3 2 1. *)
  Rank.reassign r [ 4; 3; 2; 1 ];
  check Alcotest.bool "4 lowest" true (Rank.compare_items r 4 3 < 0);
  check Alcotest.bool "3 < 2" true (Rank.compare_items r 3 2 < 0);
  check Alcotest.bool "2 < 1" true (Rank.compare_items r 2 1 < 0);
  Rank.check r

let test_rank_split () =
  let r = Rank.create () in
  List.iter (fun x -> Rank.insert_top r x) [ 1; 2; 3 ];
  Rank.split r 2 ~parts:[ 10; 11; 12 ];
  check Alcotest.bool "gone" false (Rank.mem r 2);
  check Alcotest.bool "1 < 10" true (Rank.compare_items r 1 10 < 0);
  check Alcotest.bool "10 < 11" true (Rank.compare_items r 10 11 < 0);
  check Alcotest.bool "11 < 12" true (Rank.compare_items r 11 12 < 0);
  check Alcotest.bool "12 < 3" true (Rank.compare_items r 12 3 < 0);
  check Alcotest.int "size" 5 (Rank.size r);
  Rank.check r

let test_rank_split_relabel () =
  (* Force repeated splits in the same slot until a global relabel must
     trigger; order must survive. *)
  let r = Rank.create () in
  Rank.insert_top r 0;
  Rank.insert_top r 1;
  let next = ref 2 in
  let target = ref 0 in
  for _ = 1 to 40 do
    let a = !next and b = !next + 1 in
    next := !next + 2;
    Rank.split r !target ~parts:[ a; b ];
    check Alcotest.bool "a < b" true (Rank.compare_items r a b < 0);
    check Alcotest.bool "b < top" true (Rank.compare_items r b 1 < 0);
    target := a
  done;
  Rank.check r

let test_rank_take_give () =
  let r = Rank.create () in
  List.iter (fun x -> Rank.insert_top r x) [ 1; 2; 3; 4 ];
  (* Merge 2 and 3 into fresh 9 placed between 1 and 4. *)
  let labels = Rank.take_labels r [ 1; 2; 3 ] in
  check Alcotest.int "three labels" 3 (List.length labels);
  check Alcotest.bool "ascending" true
    (List.sort Int.compare labels = labels);
  (match labels with
  | [ l1; l2; _ ] ->
      Rank.give r 1 l1;
      Rank.give r 9 l2
  | _ -> assert false);
  check Alcotest.bool "2 retired" false (Rank.mem r 2);
  check Alcotest.bool "3 retired" false (Rank.mem r 3);
  check Alcotest.bool "1 < 9" true (Rank.compare_items r 1 9 < 0);
  check Alcotest.bool "9 < 4" true (Rank.compare_items r 9 4 < 0);
  Alcotest.check_raises "double give" (Invalid_argument "Rank.give: item present")
    (fun () -> Rank.give r 9 999);
  Rank.check r

(* ---- Traverse ------------------------------------------------------------ *)

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4 *)
  let g = Digraph.create () in
  for _ = 0 to 4 do
    ignore (Digraph.add_node g "x")
  done;
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v))
    [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ];
  g

let test_bfs_forward () =
  let g = diamond () in
  let d = Traverse.bfs ~dir:`Forward g [ 0 ] in
  check Alcotest.int "d0" 0 (Hashtbl.find d 0);
  check Alcotest.int "d3" 2 (Hashtbl.find d 3);
  check Alcotest.int "d4" 3 (Hashtbl.find d 4)

let test_bfs_backward_bounded () =
  let g = diamond () in
  let d = Traverse.bfs ~bound:1 ~dir:`Backward g [ 3 ] in
  check Alcotest.bool "has 1" true (Hashtbl.mem d 1);
  check Alcotest.bool "has 2" true (Hashtbl.mem d 2);
  check Alcotest.bool "0 beyond bound" false (Hashtbl.mem d 0)

let test_ball () =
  let g = diamond () in
  let b = Traverse.ball g [ 4 ] ~d:2 in
  (* undirected: 4 -(1)- 3 -(2)- 1,2 *)
  check Alcotest.int "size" 4 (Hashtbl.length b);
  check Alcotest.bool "0 out" false (Hashtbl.mem b 0);
  check Alcotest.int "d3" 1 (Hashtbl.find b 3)

let test_reaches () =
  let g = diamond () in
  check Alcotest.bool "0->4" true (Traverse.reaches g 0 4);
  check Alcotest.bool "4->0" false (Traverse.reaches g 4 0);
  check Alcotest.bool "restricted" false
    (Traverse.reaches ~within:(fun v -> v <> 3) g 0 4);
  check Alcotest.bool "self" true (Traverse.reaches g 2 2)

(* ---- sorted iteration ------------------------------------------------------ *)

(* The adjacency iterators visit neighbors in ascending node order,
   independent of insertion order and of the process hash seed. *)
let test_iter_ascending () =
  let g = Digraph.create () in
  for _ = 0 to 5 do
    ignore (Digraph.add_node g "x")
  done;
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v))
    [ (0, 4); (0, 1); (0, 5); (0, 2); (3, 0); (1, 0); (5, 0) ];
  let succs () =
    let acc = ref [] in
    Digraph.iter_succ (fun v -> acc := v :: !acc) g 0;
    List.rev !acc
  in
  check (Alcotest.list Alcotest.int) "ascending successors" [ 1; 2; 4; 5 ]
    (succs ());
  let preds = ref [] in
  Digraph.iter_pred (fun u -> preds := u :: !preds) g 0;
  check (Alcotest.list Alcotest.int) "ascending predecessors" [ 1; 3; 5 ]
    (List.rev !preds);
  (* stays sorted across deletions *)
  ignore (Digraph.remove_edge g 0 4);
  check (Alcotest.list Alcotest.int) "ascending after delete" [ 1; 2; 5 ]
    (succs ())

let test_edges_deterministic () =
  let g = Digraph.create () in
  for _ = 0 to 3 do
    ignore (Digraph.add_node g "x")
  done;
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v))
    [ (2, 1); (0, 3); (0, 1); (3, 2) ];
  let es = ref [] in
  Digraph.iter_edges (fun u v -> es := (u, v) :: !es) g;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "edges in ascending (src, dst) order"
    [ (0, 1); (0, 3); (2, 1); (3, 2) ]
    (List.rev !es)

(* ---- Io -------------------------------------------------------------------- *)

let test_io_roundtrip () =
  let g = diamond () in
  let s = Io.to_string g in
  let g' = Io.of_string s in
  check Alcotest.int "nodes" (Digraph.n_nodes g) (Digraph.n_nodes g');
  check Alcotest.int "edges" (Digraph.n_edges g) (Digraph.n_edges g');
  Digraph.iter_edges
    (fun u v ->
      check Alcotest.bool "edge kept" true (Digraph.mem_edge g' u v))
    g

let test_io_errors () =
  let bad s =
    match Io.of_string s with
    | exception Failure _ -> true
    | _ -> false
  in
  check Alcotest.bool "undeclared" true (bad "e 0 1");
  check Alcotest.bool "garbage" true (bad "zzz");
  check Alcotest.bool "dup node" true (bad "v 0 a\nv 0 b");
  check Alcotest.bool "comments ok" false (bad "# hello\nv 0 a")

(* The documented format, written the obvious way: the reference the
   buffered writer must match byte for byte. *)
let reference_text g =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "# incgraph v1: %d nodes %d edges\n" (Digraph.n_nodes g)
       (Digraph.n_edges g));
  Digraph.iter_nodes
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "v %d %s\n" v (Digraph.label_name g v)))
    g;
  List.iter
    (fun (u, v) -> Buffer.add_string b (Printf.sprintf "e %d %d\n" u v))
    (Digraph.edges g);
  Buffer.contents b

(* Up to 130 nodes so ids reach three digits; labels of one to five
   printable non-space bytes; the graph keeps a pending overlay. *)
let prop_writer_matches_reference =
  QCheck.Test.make ~name:"writer matches the Printf reference" ~count:300
    QCheck.(
      pair
        (pair (int_range 0 130)
           (small_list
              (string_gen_of_size (Gen.int_range 1 5)
                 (Gen.char_range '!' '~'))))
        (list (pair small_nat small_nat)))
    (fun ((n, labels), edges) ->
      let g = Digraph.create () in
      let labels = Array.of_list ("x" :: labels) in
      for i = 0 to n - 1 do
        ignore (Digraph.add_node g labels.(i mod Array.length labels))
      done;
      if n > 0 then
        List.iteri
          (fun i (u, v) ->
            if i = 10 then Digraph.compact g;
            ignore (Digraph.add_edge g (u mod n) (v * 7 mod n)))
          edges;
      String.equal (Io.to_string g) (reference_text g))

let test_io_unwritable_labels () =
  List.iter
    (fun label ->
      let g = Digraph.create () in
      ignore (Digraph.add_node g "ok");
      ignore (Digraph.add_node g label);
      match Io.to_string g with
      | exception Invalid_argument msg ->
          check Alcotest.bool
            (Printf.sprintf "%S: error names node 1" label)
            true
            (String.starts_with ~prefix:"Io: node 1 " msg)
      | _ -> Alcotest.fail (Printf.sprintf "label %S written" label))
    [ "x y"; ""; "p\nq"; "a\tb"; " lead" ]

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_graph"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "set" `Quick test_vec_set;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "clear" `Quick test_vec_clear;
          Alcotest.test_case "fold/iter" `Quick test_vec_fold_iter;
        ] );
      ( "interner",
        [
          Alcotest.test_case "roundtrip" `Quick test_interner_roundtrip;
          Alcotest.test_case "bad symbol" `Quick test_interner_bad_symbol;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "remove" `Quick test_digraph_remove;
          Alcotest.test_case "degrees" `Quick test_digraph_degrees;
          Alcotest.test_case "self loop" `Quick test_digraph_self_loop;
          Alcotest.test_case "apply batch" `Quick test_digraph_apply;
          Alcotest.test_case "copy" `Quick test_digraph_copy;
          Alcotest.test_case "unknown node" `Quick test_digraph_unknown_node;
        ] );
      ( "pqueue",
        Alcotest.test_case "order" `Quick test_pqueue_order
        :: Alcotest.test_case "decrease" `Quick test_pqueue_decrease
        :: Alcotest.test_case "insert lowers" `Quick
             test_pqueue_insert_is_decrease
        :: qsuite [ prop_pqueue_sorts ] );
      ( "rank",
        [
          Alcotest.test_case "order" `Quick test_rank_order;
          Alcotest.test_case "reassign" `Quick test_rank_reassign;
          Alcotest.test_case "split" `Quick test_rank_split;
          Alcotest.test_case "split relabel" `Quick test_rank_split_relabel;
          Alcotest.test_case "take/give" `Quick test_rank_take_give;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs forward" `Quick test_bfs_forward;
          Alcotest.test_case "bfs backward bounded" `Quick
            test_bfs_backward_bounded;
          Alcotest.test_case "ball" `Quick test_ball;
          Alcotest.test_case "reaches" `Quick test_reaches;
        ] );
      ( "sorted iteration",
        [
          Alcotest.test_case "iter_succ/pred ascend" `Quick
            test_iter_ascending;
          Alcotest.test_case "iter_edges is insertion-independent" `Quick
            test_edges_deterministic;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "unwritable labels rejected" `Quick
            test_io_unwritable_labels;
        ]
        @ qsuite [ prop_writer_matches_reference ] );
    ]
