(* Empirical checks of the paper's two effectiveness guarantees, using the
   engines' AFF/work counters rather than wall clock:

   - localizable (Theorem 3): the work IncKWS and IncISO do for a unit
     update is bounded by the size of the b- (resp. d_Q-) neighborhood of
     the update, independent of |G|;
   - relatively bounded (Theorem 4): the auxiliary data IncRPQ and IncSCC
     touch stays far below |G| for small ΔG on structure-preserving update
     streams, and the Fig. 9 gadget shows the complementary lower bound
     (work grows unboundedly while |CHANGED| stays constant). *)

open Ig_graph
module W = Ig_workload
module O = Ig_obs.Obs

let check = Alcotest.check

let profile scale =
  let rng = Random.State.make [| 11 |] in
  W.Profiles.instantiate ~scale ~rng W.Profiles.dbpedia_like

(* The work an engine reported so far: entries identified as affected
   plus entries rewritten. Callers difference two readings. *)
let work o = O.counter o O.K.aff + O.counter o O.K.cert_rewrites

let replay_units g n =
  let rng = Random.State.make [| 12 |] in
  W.Updates.generate_replay ~rng g ~size:n ()

(* ---- KWS localizability --------------------------------------------------- *)

let test_kws_work_bounded_by_ball () =
  let g = profile 0.1 in
  let q = { Ig_kws.Batch.keywords = [ "l1"; "l2"; "l3" ]; bound = 2 } in
  let units = replay_units g 40 in
  let o = O.create () in
  let t = Ig_kws.Inc_kws.init ~obs:o g q in
  List.iter
    (fun up ->
      let u, v =
        match up with
        | Digraph.Insert (u, v) | Digraph.Delete (u, v) -> (u, v)
      in
      let before = work o in
      ignore (Ig_kws.Inc_kws.apply_batch t [ up ]);
      let w = work o - before in
      (* The paper's bound: work within the b-neighborhood of the update,
         once per keyword. The 2b-ball of the endpoints is a safe
         overapproximation of V_b for either endpoint. *)
      let ball = Hashtbl.length (Traverse.ball (Ig_kws.Inc_kws.graph t) [ u; v ] ~d:4) in
      let budget = 3 * ball in
      if w > budget then
        Alcotest.failf "KWS unit work %d exceeds 3x ball %d" w ball)
    units;
  Ig_kws.Inc_kws.check_invariants t

let test_kws_work_independent_of_graph_size () =
  (* Same unit-update workload density, graphs 4x apart: per-unit work must
     not scale with |G|. *)
  let work scale =
    let g = profile scale in
    let q = { Ig_kws.Batch.keywords = [ "l1"; "l2" ]; bound = 2 } in
    let units = replay_units g 30 in
    let o = O.create () in
    let t = Ig_kws.Inc_kws.init ~obs:o g q in
    let before = work o in
    List.iter (fun up -> ignore (Ig_kws.Inc_kws.apply_batch t [ up ])) units;
    work o - before
  in
  let small = work 0.1 and large = work 0.4 in
  (* Allow generous noise: densities differ slightly between instantiations;
     a localizable algorithm stays within a small constant factor while the
     graph grew 4x. *)
  check Alcotest.bool
    (Printf.sprintf "work %d -> %d should not scale with |G|" small large)
    true
    (float_of_int large < 3.0 *. float_of_int (max small 1))

(* ---- ISO localizability ---------------------------------------------------- *)

(* Locality as a test: k far-away nodes that carry the pattern's labels
   must not change one exact counter of IncISO or IncSim on an update
   stream that never touches them. Half of them form disjoint copies of
   the pattern, which hold matches and simulation pairs of their own; the
   other half are isolated, so they are label candidates outside R. *)
let pad g p k =
  let nq = Ig_iso.Pattern.n_nodes p in
  let add_copy () =
    let base = Digraph.n_nodes g in
    for u = 0 to nq - 1 do
      ignore (Digraph.add_node g (Ig_iso.Pattern.label p u))
    done;
    base
  in
  for _ = 1 to k / (2 * nq) do
    let base = add_copy () in
    List.iter
      (fun (u, v) -> ignore (Digraph.add_edge g (base + u) (base + v)))
      (Ig_iso.Pattern.edges p);
    ignore (add_copy ())
  done

let rec chunks n l =
  let rec take k acc = function
    | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  match take n [] l with [], _ -> [] | c, rest -> c :: chunks n rest

let test_iso_sim_counters_ignore_padding () =
  let base = profile 0.2 in
  let rng = Random.State.make [| 13 |] in
  match W.Queries.iso ~rng base ~nodes:3 ~edges:3 with
  | None -> Alcotest.skip ()
  | Some p ->
      (* Padding is appended, so the stream's node ids stay valid. Besides
         the replay stream, one image edge of each of a few matches is
         deleted and re-inserted, so that anchors fire. *)
      let replay = replay_units base 60 in
      let cut =
        List.filteri (fun i _ -> i < 8)
          (List.map
             (fun m ->
               let u, v = List.hd (Ig_iso.Pattern.edges p) in
               (m.(u), m.(v)))
             (Ig_iso.Vf2.find_all base p))
      in
      let batches =
        chunks 6 replay
        @ [
            List.map (fun (u, v) -> Digraph.Delete (u, v)) cut;
            List.map (fun (u, v) -> Digraph.Insert (u, v)) cut;
          ]
      in
      let names =
        O.K.
          [
            nodes_visited; edges_relaxed; queue_pushes; aff; changed; rematches;
          ]
      in
      let counters k =
        let g = Digraph.copy base in
        pad g p k;
        let oi = O.create () and os = O.create () in
        let ti = Ig_iso.Inc_iso.init ~obs:oi (Digraph.copy g) p in
        let ts = Ig_sim.Inc_sim.init ~obs:os g p in
        List.iter
          (fun b ->
            ignore (Ig_iso.Inc_iso.apply_batch ti b);
            ignore (Ig_sim.Inc_sim.apply_batch ts b))
          batches;
        Ig_iso.Inc_iso.check_invariants ti;
        Ig_sim.Inc_sim.check_invariants ts;
        List.concat_map
          (fun n ->
            [ ("iso." ^ n, O.counter oi n); ("sim." ^ n, O.counter os n) ])
          names
      in
      let bare = counters 0 in
      (* The stream must exercise both engines, or the test checks nothing. *)
      List.iter
        (fun n ->
          if List.assoc n bare = 0 then
            Alcotest.failf "%s is 0 on the stream" n)
        [
          "iso.rematches";
          "iso.nodes_visited";
          "sim.nodes_visited";
          "sim.edges_relaxed";
        ];
      check
        Alcotest.(list (pair string int))
        "exact counters with 1000 padding nodes" bare (counters 1000)

(* ---- RPQ / SCC relative boundedness ----------------------------------------- *)

let test_rpq_aff_small_on_replay () =
  let g = profile 0.2 in
  let rng = Random.State.make [| 14 |] in
  let q = W.Queries.rpq ~rng g ~size:4 in
  let a = Ig_nfa.Nfa.compile (Digraph.interner g) q in
  let ups = replay_units g (Digraph.n_edges g / 20) in
  let o = O.create () in
  let t = Ig_rpq.Inc_rpq.init ~obs:o g a in
  let before = work o in
  ignore (Ig_rpq.Inc_rpq.apply_batch t ups);
  let w = work o - before in
  let product = Digraph.n_nodes (Ig_rpq.Inc_rpq.graph t) * Ig_nfa.Nfa.n_states a in
  check Alcotest.bool
    (Printf.sprintf "AFF %d ≪ |V×S| = %d" w product)
    true
    (w < product / 2);
  Ig_rpq.Inc_rpq.check_invariants t

let test_scc_aff_small_on_replay () =
  let g = profile 0.2 in
  let ups = replay_units g (Digraph.n_edges g / 20) in
  let o = O.create () in
  let t = Ig_scc.Inc_scc.init ~obs:o g in
  let before = work o in
  ignore (Ig_scc.Inc_scc.apply_batch t ups);
  let w = work o - before in
  let n = Digraph.n_nodes (Ig_scc.Inc_scc.graph t) in
  (* aff counts the re-certified nodes and every rank region, and
     cert_rewrites the re-certified nodes again, so this sum bounds the
     certificate nodes plus the rank moves from above. *)
  check Alcotest.bool
    (Printf.sprintf "aff + cert_rewrites %d ≪ |V| = %d" w n)
    true (w < n);
  Ig_scc.Inc_scc.check_invariants t

(* ---- the same guarantees through the Obs counters ----------------------------- *)

(* The observability layer measures every engine with one vocabulary
   (aff, nodes_visited, edges_relaxed, queue_pushes, cert_rewrites), so the
   paper's guarantees become scale-comparison regressions: grow |G| at a
   fixed update workload and check what the total work tracks.

   Slack factors are generous (graphs at different scales differ in density
   and query selectivity, not only size) — what they must exclude is work
   proportional to |G|, which would show up as a ~4x ratio between the 0.1
   and 0.4 scales. *)

let obs_work o =
  O.counter o O.K.nodes_visited
  + O.counter o O.K.edges_relaxed
  + O.counter o O.K.queue_pushes
  + O.counter o O.K.cert_rewrites

let test_obs_kws_work_flat () =
  (* Localizability: per-unit work bounded by the b-neighborhood, so total
     work over a fixed unit workload must not grow with |G|. *)
  let work scale =
    let g = profile scale in
    let q = { Ig_kws.Batch.keywords = [ "l1"; "l2" ]; bound = 2 } in
    let units = replay_units g 30 in
    let o = O.create () in
    let t = Ig_kws.Inc_kws.init ~obs:o g q in
    List.iter (fun up -> ignore (Ig_kws.Inc_kws.apply_batch t [ up ])) units;
    obs_work o
  in
  let small = work 0.1 and large = work 0.4 in
  check Alcotest.bool
    (Printf.sprintf "obs work %d -> %d flat while |G| grew 4x" small large)
    true
    (float_of_int large < 3.0 *. float_of_int (max small 1))

let test_obs_iso_work_flat () =
  (* Localizability: each anchored VF2 run extends inside the d_Q-neighborhood
     of its inserted edge, so the nodes it binds must not grow with |G|. *)
  let work scale =
    let g = profile scale in
    let rng = Random.State.make [| 13 |] in
    match W.Queries.iso ~rng g ~nodes:3 ~edges:3 with
    | None -> None
    | Some p ->
        let units = replay_units g 30 in
        let o = O.create () in
        let t = Ig_iso.Inc_iso.init ~obs:o g p in
        List.iter (fun up -> ignore (Ig_iso.Inc_iso.apply_batch t [ up ])) units;
        let rematches = max 1 (O.counter o O.K.rematches) in
        Some (float_of_int (O.counter o O.K.nodes_visited) /. float_of_int rematches)
  in
  match (work 0.1, work 0.4) with
  | Some small, Some large ->
      check Alcotest.bool
        (Printf.sprintf "nodes per run %.1f -> %.1f flat while |G| grew 4x"
           small large)
        true
        (large < 3.0 *. Float.max small 1.0)
  | _ -> Alcotest.skip ()

let test_obs_rpq_work_tracks_aff () =
  (* Relative boundedness: total work polynomial in the measured
     |AFF ∪ CHANGED|, so work per affected entry must stay flat as |G|
     grows at fixed |ΔG|. *)
  let run scale =
    let g = profile scale in
    let rng = Random.State.make [| 14 |] in
    let q = W.Queries.rpq ~rng g ~size:4 in
    let a = Ig_nfa.Nfa.compile (Digraph.interner g) q in
    let ups = replay_units g 120 in
    let o = O.create () in
    let t = Ig_rpq.Inc_rpq.init ~obs:o g a in
    ignore (Ig_rpq.Inc_rpq.apply_batch t ups);
    (obs_work o, O.counter o O.K.aff + O.counter o O.K.changed)
  in
  let ws, afs = run 0.1 and wl, afl = run 0.4 in
  let per_aff w af = float_of_int w /. float_of_int (max 1 af) in
  check Alcotest.bool
    (Printf.sprintf "work/AFF %.1f -> %.1f flat while |G| grew 4x"
       (per_aff ws afs) (per_aff wl afl))
    true
    (per_aff wl afl < 4.0 *. Float.max 1.0 (per_aff ws afs))

let test_obs_scc_work_tracks_aff () =
  let run scale =
    let g = profile scale in
    let ups = replay_units g 120 in
    let o = O.create () in
    let t = Ig_scc.Inc_scc.init ~obs:o g in
    ignore (Ig_scc.Inc_scc.apply_batch t ups);
    (obs_work o, O.counter o O.K.aff + O.counter o O.K.changed)
  in
  let ws, afs = run 0.1 and wl, afl = run 0.4 in
  let per_aff w af = float_of_int w /. float_of_int (max 1 af) in
  check Alcotest.bool
    (Printf.sprintf "work/AFF %.1f -> %.1f flat while |G| grew 4x"
       (per_aff ws afs) (per_aff wl afl))
    true
    (per_aff wl afl < 4.0 *. Float.max 1.0 (per_aff ws afs))

(* ---- the unboundedness lower bound (Fig. 9) ---------------------------------- *)

let test_gadget_superlinear () =
  (* Work grows at least linearly in the gadget size at constant |CHANGED| —
     the empirical face of Theorem 1. *)
  match Ig_theory.Gadget.demo ~cycles:[ 32; 64; 128 ] with
  | [ a; b; c ] ->
      check Alcotest.bool "unbounded growth" true
        (b.Ig_theory.Gadget.inc_work >= 2 * a.Ig_theory.Gadget.inc_work
        && c.Ig_theory.Gadget.inc_work >= 2 * b.Ig_theory.Gadget.inc_work);
      check Alcotest.int "CHANGED constant" a.Ig_theory.Gadget.changed
        c.Ig_theory.Gadget.changed
  | _ -> Alcotest.fail "demo size"

let () =
  Alcotest.run "guarantees"
    [
      ( "localizable (Thm 3)",
        [
          Alcotest.test_case "KWS work within ball" `Quick
            test_kws_work_bounded_by_ball;
          Alcotest.test_case "KWS work independent of |G|" `Quick
            test_kws_work_independent_of_graph_size;
          Alcotest.test_case "ISO/Sim counters ignore far padding" `Quick
            test_iso_sim_counters_ignore_padding;
          Alcotest.test_case "KWS obs work independent of |G|" `Quick
            test_obs_kws_work_flat;
          Alcotest.test_case "ISO obs ball independent of |G|" `Quick
            test_obs_iso_work_flat;
        ] );
      ( "relatively bounded (Thm 4)",
        [
          Alcotest.test_case "RPQ AFF small on replay stream" `Quick
            test_rpq_aff_small_on_replay;
          Alcotest.test_case "SCC AFF small on replay stream" `Quick
            test_scc_aff_small_on_replay;
          Alcotest.test_case "RPQ obs work tracks |AFF|" `Quick
            test_obs_rpq_work_tracks_aff;
          Alcotest.test_case "SCC obs work tracks |AFF|" `Quick
            test_obs_scc_work_tracks_aff;
        ] );
      ( "unbounded (Thm 1)",
        [
          Alcotest.test_case "gadget work grows, CHANGED constant" `Quick
            test_gadget_superlinear;
        ] );
    ]
