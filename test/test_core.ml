(* Integration tests through the public Core API: four incremental engines
   (Core.<Class>.Inc) driven side by side over one evolving graph. *)

let check = Alcotest.check

let build_graph () =
  let g = Core.Digraph.create () in
  (* A small social-ish graph: people (p), groups (g), posts (t). *)
  let people = List.init 6 (fun _ -> Core.Digraph.add_node g "person") in
  let groups = List.init 2 (fun _ -> Core.Digraph.add_node g "group") in
  let posts = List.init 3 (fun _ -> Core.Digraph.add_node g "post") in
  let e u v = ignore (Core.Digraph.add_edge g u v) in
  (match (people, groups, posts) with
  | [ p0; p1; p2; p3; p4; p5 ], [ g0; g1 ], [ t0; t1; t2 ] ->
      e p0 p1; e p1 p2; e p2 p0;        (* a friend triangle *)
      e p3 p4; e p4 p5;                 (* a chain *)
      e p0 g0; e p3 g0; e p5 g1;        (* memberships *)
      e g0 t0; e g1 t1; e p1 t2         (* posts *)
  | _ -> assert false);
  g

let test_engines_integrate () =
  let mk () = build_graph () in
  (* KWS: roots that can see a group and a post within 2 hops. *)
  let kws =
    Core.Kws.Inc.init (mk ())
      { Core.Kws.Batch.keywords = [ "group"; "post" ]; bound = 2 }
  in
  (* RPQ: person . person* . group *)
  let rpq =
    Core.Rpq.Inc.create (mk ())
      (Core.Regex.parse_exn "person . person* . group")
  in
  let scc = Core.Scc.Inc.init (mk ()) in
  let iso =
    Core.Iso.Inc.init (mk ())
      (Core.Iso.Pattern.create ~labels:[ "person"; "person"; "person" ]
         ~edges:[ (0, 1); (1, 2); (2, 0) ])
  in
  check Alcotest.bool "kws nonempty" true (Core.Kws.Inc.match_roots kws <> []);
  check Alcotest.bool "rpq nonempty" true (Core.Rpq.Inc.matches rpq <> []);
  check Alcotest.int "one triangle" 1 (List.length (Core.Iso.Inc.matches iso));
  check Alcotest.int "components" 9
    (List.length (Core.Scc.Inc.components scc));
  (* The same batch hits all four engines. *)
  let batch = [ Core.Digraph.Delete (1, 2); Core.Digraph.Insert (5, 3) ] in
  let dk = Core.Kws.Inc.apply_batch kws batch in
  let dr = Core.Rpq.Inc.apply_batch rpq batch in
  let ds = Core.Scc.Inc.apply_batch scc batch in
  let di = Core.Iso.Inc.apply_batch iso batch in
  (* Triangle broken. *)
  check Alcotest.int "iso removed" 1 (List.length di.Core.Iso.Inc.removed);
  (* Triangle split (1 comp) plus the chain 3-4-5 merged by (5,3): the
     three singletons retire too. *)
  check Alcotest.int "scc removals" 4 (List.length ds.Core.Scc.Inc.removed);
  ignore dk;
  ignore dr;
  (* Every engine still agrees with its batch algorithm. *)
  Ig_kws.Inc_kws.check_invariants kws;
  Ig_rpq.Inc_rpq.check_invariants rpq;
  Ig_scc.Inc_scc.check_invariants scc;
  Ig_iso.Inc_iso.check_invariants iso

let test_workload_roundtrip () =
  (* Generate a profile graph + updates, drive engines to completion. *)
  let rng = Random.State.make [| 7 |] in
  let g = Core.Workload.Profiles.instantiate ~scale:0.01 ~rng
      Core.Workload.Profiles.dbpedia_like
  in
  let ups = Core.Workload.Updates.generate ~rng g ~size:50 () in
  let kws_q = Core.Workload.Queries.kws ~rng g ~m:2 ~b:2 in
  let kws = Core.Kws.Inc.init (Core.Digraph.copy g) kws_q in
  let scc = Core.Scc.Inc.init (Core.Digraph.copy g) in
  ignore (Core.Kws.Inc.apply_batch kws ups);
  ignore (Core.Scc.Inc.apply_batch scc ups);
  Ig_kws.Inc_kws.check_invariants kws;
  Ig_scc.Inc_scc.check_invariants scc

let test_io_through_core () =
  let g = build_graph () in
  let s = Core.Io.to_string g in
  let g' = Core.Io.of_string s in
  check Alcotest.int "edges preserved" (Core.Digraph.n_edges g)
    (Core.Digraph.n_edges g')

let () =
  Alcotest.run "core"
    [
      ( "integration",
        [
          Alcotest.test_case "four sessions, one batch" `Quick
            test_engines_integrate;
          Alcotest.test_case "workload roundtrip" `Quick test_workload_roundtrip;
          Alcotest.test_case "io" `Quick test_io_through_core;
        ] );
    ]
