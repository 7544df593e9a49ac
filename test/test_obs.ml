(* Tests for the observability layer (lib/obs): registry semantics first,
   then one smoke test per incremental engine checking that the probes
   report the right shape of |AFF| — nonzero for an update that touches
   the query's certificate, zero for an update in a part of the graph the
   query cannot see — and finally the sink's events: ring-buffer
   semantics, the JSON escaper they lean on, the explain rendering, and
   that recording events leaves every counter as a plain sink has it. *)

open Ig_graph
module O = Ig_obs.Obs
module T = Ig_obs.Tracer
module TE = Ig_obs.Trace_export
module J = Ig_obs.Json
module W = Ig_workload

let check = Alcotest.check

let labeled_graph labels edges =
  let g = Digraph.create () in
  List.iter (fun l -> ignore (Digraph.add_node g l)) labels;
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

(* ---- registry: counters ---------------------------------------------------- *)

let test_counter_monotonic () =
  let o = O.create () in
  check Alcotest.int "absent counter reads 0" 0 (O.counter o "x");
  O.incr o "x";
  O.add o "x" 4;
  check Alcotest.int "accumulates" 5 (O.counter o "x");
  O.add o "x" 0;
  check Alcotest.int "adding 0 is fine" 5 (O.counter o "x");
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.add: counters are monotonic") (fun () ->
      O.add o "x" (-1));
  check Alcotest.int "failed add left no trace" 5 (O.counter o "x")

let test_counter_snapshot_sorted () =
  let o = O.create () in
  O.incr o "b";
  O.incr o "a";
  O.add o "c" 2;
  check
    Alcotest.(list (pair string int))
    "sorted snapshot"
    [ ("a", 1); ("b", 1); ("c", 2) ]
    (O.counters o)

let test_changed_aggregates () =
  let o = O.create () in
  O.note_changed_input o 3;
  O.note_changed_output o 2;
  check Alcotest.int "changed_input" 3 (O.counter o O.K.changed_input);
  check Alcotest.int "changed_output" 2 (O.counter o O.K.changed_output);
  check Alcotest.int "changed = |ΔG| + |ΔO|" 5 (O.counter o O.K.changed)

let test_diff_counters () =
  let o = O.create () in
  O.add o "a" 2;
  let prev = O.counters o in
  O.add o "a" 3;
  O.incr o "b";
  check
    Alcotest.(list (pair string int))
    "diff is the work since the snapshot"
    [ ("a", 3); ("b", 1) ]
    (O.diff_counters ~prev ~cur:(O.counters o))

(* ---- registry: gauges ------------------------------------------------------- *)

let test_gauges () =
  let o = O.create () in
  O.set_gauge o "depth" 7;
  O.set_gauge o "depth" 3;
  check Alcotest.int "gauge overwrites" 3 (O.gauge o "depth")

(* ---- registry: spans -------------------------------------------------------- *)

let test_span_nesting () =
  let o = O.create () in
  check Alcotest.int "empty stack" 0 (O.span_depth o);
  O.with_span o "outer" (fun () ->
      check Alcotest.int "depth 1" 1 (O.span_depth o);
      O.with_span o "inner" (fun () ->
          check Alcotest.int "depth 2" 2 (O.span_depth o));
      check Alcotest.int "inner closed" 1 (O.span_depth o));
  check Alcotest.int "stack empties" 0 (O.span_depth o);
  check Alcotest.int "outer entered once" 1 (fst (O.span o "outer"));
  check Alcotest.int "inner entered once" 1 (fst (O.span o "inner"))

let test_span_mismatch_rejected () =
  let o = O.create () in
  O.span_begin o "a";
  Alcotest.check_raises "LIFO violation"
    (Invalid_argument "Obs.span_end: b closed while a is open") (fun () ->
      O.span_end o "b");
  O.span_end o "a";
  Alcotest.check_raises "nothing open"
    (Invalid_argument "Obs.span_end: a closed but no span is open") (fun () ->
      O.span_end o "a")

let test_open_spans () =
  let o = O.create () in
  check Alcotest.(list string) "empty" [] (O.open_spans o);
  O.span_begin o "outer";
  O.span_begin o "inner";
  check
    Alcotest.(list string)
    "innermost first"
    [ "inner"; "outer" ]
    (O.open_spans o);
  O.span_end o "inner";
  O.span_end o "outer";
  check Alcotest.(list string) "empty again" [] (O.open_spans o);
  check Alcotest.(list string) "noop has none" [] (O.open_spans O.noop)

let test_span_exception_safe () =
  let o = O.create () in
  (try O.with_span o "risky" (fun () -> failwith "boom") with
  | Failure _ -> ());
  check Alcotest.int "span closed despite raise" 0 (O.span_depth o);
  check Alcotest.int "entry recorded" 1 (fst (O.span o "risky"))

(* ---- registry: reset --------------------------------------------------------- *)

let test_reset () =
  let o = O.create () in
  O.add o "a" 5;
  O.set_gauge o "g" 1;
  O.with_span o "s" (fun () -> ());
  O.span_begin o "open";
  O.reset o;
  check Alcotest.int "counters cleared" 0 (O.counter o "a");
  check Alcotest.int "gauges cleared" 0 (O.gauge o "g");
  check Alcotest.int "spans cleared" 0 (fst (O.span o "s"));
  check Alcotest.int "open span stack emptied" 0 (O.span_depth o);
  check Alcotest.bool "still enabled after reset" true (O.enabled o)

(* ---- the disabled sink is a true no-op ---------------------------------------- *)

let test_noop_sink () =
  let o = O.noop in
  check Alcotest.bool "disabled" false (O.enabled o);
  O.add o "x" 5;
  O.add o "x" (-1) (* no validation cost either: nothing observes it *);
  O.incr o "x";
  O.set_gauge o "g" 9;
  O.note_changed_input o 4;
  O.span_begin o "s";
  O.span_end o "never-opened" (* mismatch invisible: nothing is tracked *);
  let r = O.with_span o "w" (fun () -> 7) in
  check Alcotest.int "with_span passes through" 7 r;
  check Alcotest.int "counter" 0 (O.counter o "x");
  check Alcotest.int "gauge" 0 (O.gauge o "g");
  check Alcotest.int "span depth" 0 (O.span_depth o);
  check Alcotest.bool "all snapshots empty" true
    (O.counters o = [] && O.gauges o = [] && O.spans o = [])

let test_engines_default_to_noop () =
  let g = labeled_graph [ "a"; "b" ] [ (0, 1) ] in
  let t = Ig_kws.Inc_kws.init g { Ig_kws.Batch.keywords = [ "a" ]; bound = 1 } in
  ignore (Ig_kws.Inc_kws.apply_batch t [ Digraph.Insert (1, 0) ]);
  check Alcotest.bool "no registry unless requested" false
    (O.enabled (Ig_kws.Inc_kws.obs t));
  check Alcotest.bool "and nothing was recorded" true
    (O.counters (Ig_kws.Inc_kws.obs t) = [])

(* ---- per-engine smoke: |AFF| lands where the paper says ------------------------ *)

(* Each case: an update the query can see must report aff > 0 and count its
   ΔG and ΔO in [changed]; an update in a component the query cannot see
   must report aff = 0 (while still counting its ΔG). *)

let aff o = O.counter o O.K.aff
let changed_in o = O.counter o O.K.changed_input
let changed_out o = O.counter o O.K.changed_output

let test_kws_aff () =
  (* b sees keywords a and d within bound 2; the z-z island is invisible. *)
  let g = labeled_graph [ "a"; "b"; "d"; "z"; "z" ] [ (1, 0); (1, 2) ] in
  let q = { Ig_kws.Batch.keywords = [ "a"; "d" ]; bound = 2 } in
  let o = O.create () in
  let t = Ig_kws.Inc_kws.init ~obs:o g q in
  ignore (Ig_kws.Inc_kws.apply_batch t [ Digraph.Insert (3, 4) ]);
  check Alcotest.int "island insert: ΔG counted" 1 (changed_in o);
  check Alcotest.int "island insert: aff = 0" 0 (aff o);
  O.reset o;
  ignore (Ig_kws.Inc_kws.apply_batch t [ Digraph.Delete (1, 2) ]);
  check Alcotest.bool "keyword edge delete: aff > 0" true (aff o > 0);
  check Alcotest.bool "root lost: ΔO counted" true (changed_out o > 0);
  Ig_kws.Inc_kws.check_invariants t

let test_rpq_aff () =
  let g = labeled_graph [ "a"; "b"; "z"; "z" ] [ (0, 1) ] in
  let o = O.create () in
  let t = Ig_rpq.Inc_rpq.create ~obs:o g (Ig_nfa.Regex.parse_exn "a . b") in
  check Alcotest.bool "initial match present" true (Ig_rpq.Inc_rpq.is_match t 0 1);
  ignore (Ig_rpq.Inc_rpq.apply_batch t [ Digraph.Insert (2, 3) ]);
  check Alcotest.int "z-z insert: ΔG counted" 1 (changed_in o);
  check Alcotest.int "z-z insert: aff = 0" 0 (aff o);
  O.reset o;
  ignore (Ig_rpq.Inc_rpq.apply_batch t [ Digraph.Delete (0, 1) ]);
  check Alcotest.bool "match edge delete: aff > 0" true (aff o > 0);
  check Alcotest.bool "match lost: ΔO counted" true (changed_out o > 0);
  Ig_rpq.Inc_rpq.check_invariants t

let test_scc_aff () =
  let g = labeled_graph [ "x"; "x"; "x"; "x" ] [ (0, 1); (2, 3) ] in
  let o = O.create () in
  let t = Ig_scc.Inc_scc.init ~obs:o g in
  ignore (Ig_scc.Inc_scc.apply_batch t [ Digraph.Delete (2, 3) ]);
  check Alcotest.int "inter-component delete: ΔG counted" 1 (changed_in o);
  check Alcotest.int "inter-component delete: aff = 0" 0 (aff o);
  O.reset o;
  ignore (Ig_scc.Inc_scc.apply_batch t [ Digraph.Insert (1, 0) ]);
  check Alcotest.bool "cycle-closing insert: aff ≥ 2" true (aff o >= 2);
  check Alcotest.bool "components merged: ΔO counted" true (changed_out o > 0);
  Ig_scc.Inc_scc.check_invariants t

let test_sim_aff () =
  let p = Ig_iso.Pattern.create ~labels:[ "p"; "q" ] ~edges:[ (0, 1) ] in
  let g = labeled_graph [ "p"; "q"; "z"; "z" ] [ (0, 1); (2, 3) ] in
  let o = O.create () in
  let t = Ig_sim.Inc_sim.init ~obs:o g p in
  ignore (Ig_sim.Inc_sim.apply_batch t [ Digraph.Delete (2, 3) ]);
  check Alcotest.int "z-z delete: ΔG counted" 1 (changed_in o);
  check Alcotest.int "z-z delete: aff = 0" 0 (aff o);
  O.reset o;
  ignore (Ig_sim.Inc_sim.apply_batch t [ Digraph.Delete (0, 1) ]);
  check Alcotest.bool "support edge delete: aff > 0" true (aff o > 0);
  check Alcotest.bool "pairs lost: ΔO counted" true (changed_out o > 0);
  Ig_sim.Inc_sim.check_invariants t

let test_iso_aff () =
  let p = Ig_iso.Pattern.create ~labels:[ "p"; "q" ] ~edges:[ (0, 1) ] in
  let g =
    labeled_graph [ "p"; "q"; "z"; "z"; "p"; "q" ] [ (0, 1); (2, 3) ]
  in
  let o = O.create () in
  let t = Ig_iso.Inc_iso.init ~obs:o g p in
  check Alcotest.int "one initial match" 1 (Ig_iso.Inc_iso.n_matches t);
  ignore (Ig_iso.Inc_iso.apply_batch t [ Digraph.Delete (2, 3) ]);
  check Alcotest.int "z-z delete: ΔG counted" 1 (changed_in o);
  check Alcotest.int "z-z delete: aff = 0" 0 (aff o);
  O.reset o;
  ignore (Ig_iso.Inc_iso.apply_batch t [ Digraph.Insert (4, 5) ]);
  check Alcotest.bool "match-creating insert: aff > 0" true (aff o > 0);
  check Alcotest.bool "neighborhood explored" true
    (O.counter o O.K.nodes_visited > 0);
  check Alcotest.bool "match gained: ΔO counted" true (changed_out o > 0);
  O.reset o;
  ignore (Ig_iso.Inc_iso.apply_batch t [ Digraph.Delete (0, 1) ]);
  check Alcotest.bool "match edge delete: aff > 0" true (aff o > 0);
  Ig_iso.Inc_iso.check_invariants t

(* ---- tracer: ring buffer semantics ---------------------------------------- *)

let entry_testable =
  Alcotest.testable
    (fun ppf e -> TE.pp_event ppf e)
    (fun (a : T.entry) b -> a = b)

let test_tracer_ring_wrap () =
  let o = O.create ~events:4 () in
  check Alcotest.bool "tracing" true (O.tracing o);
  for i = 0 to 5 do
    O.frontier_expand o ~node:i
  done;
  check Alcotest.int "every push counted" 6 (O.counter o O.K.queue_pushes);
  let snap = O.events o in
  check Alcotest.int "length capped" 4 (List.length snap.T.entries);
  check Alcotest.int "two dropped" 2 snap.T.drops;
  check
    Alcotest.(list entry_testable)
    "oldest dropped, rest in order"
    [
      { T.seq = 2; event = T.Frontier_expand { node = 2 } };
      { T.seq = 3; event = T.Frontier_expand { node = 3 } };
      { T.seq = 4; event = T.Frontier_expand { node = 4 } };
      { T.seq = 5; event = T.Frontier_expand { node = 5 } };
    ]
    snap.T.entries;
  O.clear_events o;
  check Alcotest.bool "clear empties and resets drops" true
    (O.events o = T.empty_snapshot);
  check Alcotest.int "clear keeps counters" 6 (O.counter o O.K.queue_pushes);
  O.with_span o "s" (fun () -> ());
  (* The logical clock keeps running across a clear. *)
  check
    Alcotest.(list entry_testable)
    "seq survives clear"
    [
      { T.seq = 6; event = T.Span_begin "s" };
      { T.seq = 7; event = T.Span_end "s" };
    ]
    (O.events o).T.entries;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Obs.create: events must be positive") (fun () ->
      ignore (O.create ~events:0 ()))

(* Without a ring the event probes record nothing: on noop they do
   nothing at all, on a plain live sink the counting ones still count. *)
let test_tracer_noop () =
  List.iter
    (fun (name, o, counted) ->
      check Alcotest.bool (name ^ ": not tracing") false (O.tracing o);
      O.aff_enter o ~node:0 ~rule:T.Kws_shorter_kdist;
      O.cert_rewrite o ~node:0 ~field:"f" ~before:"a" ~after:"b";
      O.frontier_expand o ~node:1;
      O.emit o (T.Frontier_expand { node = 2 });
      O.compaction o ~edges:3 ~overlay:1;
      O.slo_violation o ~rule:"r" ~value:2.0 ~limit:1.0;
      let r = O.with_span o "w" (fun () -> 7) in
      check Alcotest.int (name ^ ": with_span passes through") 7 r;
      O.clear_events o;
      check Alcotest.bool (name ^ ": nothing recorded") true
        (O.events o = T.empty_snapshot);
      check Alcotest.int (name ^ ": aff") counted (O.counter o O.K.aff);
      check Alcotest.int (name ^ ": queue pushes") counted
        (O.counter o O.K.queue_pushes))
    [ ("noop", O.noop, 0); ("plain", O.create (), 1) ]

(* A sink without events leaves engine outputs and counters bit-identical
   to one with events: drive two identical SCC engines through the same
   updates and compare answers and counter snapshots. *)
let test_noop_tracer_identical_run () =
  let mk () = labeled_graph [ "x"; "x"; "x"; "x" ] [ (0, 1); (1, 2); (2, 3) ] in
  let updates =
    [
      Digraph.Insert (3, 0);
      Digraph.Delete (1, 2);
      Digraph.Insert (2, 1);
      Digraph.Insert (1, 2);
    ]
  in
  let run o =
    let t = Ig_scc.Inc_scc.init ~obs:o (mk ()) in
    let deltas =
      List.map (fun u -> Ig_scc.Inc_scc.apply_batch t [ u ]) updates
    in
    let comps =
      List.sort compare
        (List.map (List.sort compare) (Ig_scc.Inc_scc.components t))
    in
    (comps, List.length deltas, O.counters o)
  in
  let traced = run (O.create ~events:O.default_events ())
  and untraced = run (O.create ()) in
  check Alcotest.bool "components identical" true
    (let c, _, _ = traced and c', _, _ = untraced in
     c = c');
  check
    Alcotest.(list (pair string int))
    "Obs counters identical"
    (let _, _, c = untraced in
     c)
    (let _, _, c = traced in
     c)

(* One seeded batch through the same engines on a plain sink and on an
   event-recording one: recording never changes a counter or a span
   count, the plain sink's log stays empty, and clearing the events
   between the batch's halves — as the fuzz harness, the durable fuzz and
   [incgraph explain] do — leaves the counters monotone. *)
let test_events_never_change_counters () =
  let module Spec = Core.Check.Spec in
  let module Oracle = Core.Check.Oracle in
  let g =
    W.Profiles.instantiate ~scale:0.02
      ~rng:(Random.State.make [| 3 |])
      W.Profiles.dbpedia_like
  in
  let batch =
    W.Updates.generate ~rng:(Random.State.make [| 4 |]) g ~size:64 ()
  in
  let half = List.length batch / 2 in
  let first = List.filteri (fun i _ -> i < half) batch
  and second = List.filteri (fun i _ -> i >= half) batch in
  let run spec o =
    let inst = Spec.make ~obs:o g spec in
    ignore (inst.Oracle.apply_batch first);
    let prev = O.counters o in
    O.clear_events o;
    check
      Alcotest.(list (pair string int))
      "clearing events keeps counters" prev (O.counters o);
    ignore (inst.Oracle.apply_batch second);
    ignore (Oracle.check_metrics ~prev inst);
    ( O.counters o,
      List.map (fun (k, (n, _)) -> (k, n)) (O.spans o),
      O.events o )
  in
  List.iter
    (fun spec ->
      let plain_c, plain_s, plain_ev = run spec (O.create ()) in
      let rec_c, rec_s, rec_ev =
        run spec (O.create ~events:O.default_events ())
      in
      check Alcotest.(list (pair string int)) "counters identical" plain_c rec_c;
      check Alcotest.(list (pair string int)) "span counts identical" plain_s
        rec_s;
      check Alcotest.bool "the batch was counted" true
        (List.mem_assoc O.K.changed plain_c);
      check Alcotest.bool "plain sink logs nothing" true
        (plain_ev = T.empty_snapshot);
      check Alcotest.bool "recording sink logs the second half" true
        (rec_ev.T.entries <> []))
    [
      Spec.Kws { Ig_kws.Batch.keywords = [ "l1"; "l2" ]; bound = 2 };
      Spec.Scc;
    ]

(* ---- tracer: engine events, explain ---------------------------------------- *)

(* A traced KWS run: every Aff_enter carries a rule tag, and the explain
   rendering names the rule. *)
let traced_kws_snapshot () =
  let g = labeled_graph [ "a"; "b"; "d" ] [ (1, 0); (1, 2) ] in
  let q = { Ig_kws.Batch.keywords = [ "a"; "d" ]; bound = 2 } in
  let o = O.create ~events:O.default_events () in
  let t = Ig_kws.Inc_kws.init ~obs:o g q in
  ignore (Ig_kws.Inc_kws.apply_batch t [ Digraph.Delete (1, 2) ]);
  O.events o

let test_engine_trace_events () =
  let snap = traced_kws_snapshot () in
  check Alcotest.bool "events recorded" true (snap.T.entries <> []);
  let affs =
    List.filter_map
      (fun (e : T.entry) ->
        match e.T.event with T.Aff_enter { rule; _ } -> Some rule | _ -> None)
      snap.T.entries
  in
  check Alcotest.bool "AFF entries recorded" true (affs <> []);
  List.iter
    (fun r ->
      check Alcotest.bool "rule tag is a known rule" true
        (List.mem r T.all_rules))
    affs;
  check Alcotest.bool "histogram nonempty" true (TE.rule_histogram snap <> []);
  let spans =
    List.filter
      (fun (e : T.entry) ->
        match e.T.event with
        | T.Span_begin _ | T.Span_end _ -> true
        | _ -> false)
      snap.T.entries
  in
  check Alcotest.int "one span pair" 2 (List.length spans)

let test_explain_rendering () =
  let snap = traced_kws_snapshot () in
  let text = TE.explain_to_string snap in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "names a rule" true
    (List.exists (fun r -> contains text (T.rule_name r)) T.all_rules);
  check Alcotest.bool "shows the event log" true (contains text "event log");
  check Alcotest.bool "empty snapshot renders" true
    (contains (TE.explain_to_string T.empty_snapshot) "0 event(s)")

(* ---- sorted_bindings / trace determinism ------------------------------------ *)

let test_sorted_bindings () =
  let tbl = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace tbl k (k * 10)) [ 5; 1; 9; 3; 7 ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "ascending by key"
    [ (1, 10); (3, 30); (5, 50); (7, 70); (9, 90) ]
    (O.sorted_bindings ~compare:Int.compare tbl);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "empty table" []
    (O.sorted_bindings ~compare:Int.compare (Hashtbl.create 4));
  let s = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace s k ()) [ "b"; "a"; "c" ];
  check
    (Alcotest.list Alcotest.string)
    "string keys" [ "a"; "b"; "c" ]
    (List.map fst (O.sorted_bindings ~compare:String.compare s))

(* Regression for the sorted-iteration fixes in Inc_kws / Inc_rpq: two
   independent traced runs of the same seeded session must render
   byte-identical event logs. In-process both runs share one hash seed;
   the cross-seed version of this check (fresh OCAMLRUNPARAM=R seed per
   process, all five engines) is the @trace-determinism alias in
   bench/dune. *)
let test_trace_byte_equality () =
  let labels = [ "a"; "b"; "c"; "d"; "a"; "b"; "c"; "d" ] in
  let edges =
    [ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6); (1, 5); (6, 3); (3, 0) ]
  in
  let updates =
    Digraph.
      [ Delete (1, 2); Insert (2, 5); Delete (3, 0); Insert (0, 4) ]
  in
  let kws_trace () =
    let o = O.create ~events:O.default_events () in
    let t =
      Ig_kws.Inc_kws.init ~obs:o
        (labeled_graph labels edges)
        { Ig_kws.Batch.keywords = [ "a"; "d" ]; bound = 3 }
    in
    ignore (Ig_kws.Inc_kws.apply_batch t updates);
    TE.explain_to_string ~limit:(-1) (O.events o)
  in
  let rpq_trace () =
    let o = O.create ~events:O.default_events () in
    let q =
      match Ig_nfa.Regex.parse "a . b* . c" with
      | Ok q -> q
      | Error e -> Alcotest.fail ("bad test regex: " ^ e)
    in
    let t = Ig_rpq.Inc_rpq.create ~obs:o (labeled_graph labels edges) q in
    ignore (Ig_rpq.Inc_rpq.apply_batch t updates);
    TE.explain_to_string ~limit:(-1) (O.events o)
  in
  check Alcotest.string "IncKWS traces byte-identical" (kws_trace ())
    (kws_trace ());
  check Alcotest.string "IncRPQ traces byte-identical" (rpq_trace ())
    (rpq_trace ())

(* ---- histograms and with_apply ----------------------------------------------- *)

module H = Ig_obs.Histogram

let test_observe_and_lookup () =
  let o = O.create () in
  check Alcotest.bool "absent histogram is None" true (O.histogram o "h" = None);
  O.observe o "h" 1.0;
  O.observe o "h" 2.0;
  O.observe o "g" 0.5;
  (match O.histogram o "h" with
  | None -> Alcotest.fail "histogram disappeared"
  | Some h ->
      check Alcotest.int "two samples" 2 (H.count h);
      check (Alcotest.float 1e-12) "sum" 3.0 (H.sum h));
  check
    (Alcotest.list Alcotest.string)
    "snapshot sorted by name" [ "g"; "h" ]
    (List.map fst (O.histograms o));
  O.reset o;
  check Alcotest.bool "reset clears histograms" true (O.histograms o = [])

let test_noop_histograms () =
  O.observe O.noop "h" 1.0;
  check Alcotest.bool "noop stores nothing" true (O.histogram O.noop "h" = None);
  check Alcotest.bool "noop snapshot empty" true (O.histograms O.noop = []);
  check Alcotest.int "with_apply passes through" 42
    (O.with_apply O.noop (fun () -> 42))

let test_with_apply_records () =
  let o = O.create () in
  for _ = 1 to 3 do
    O.with_apply o (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id)))
  done;
  List.iter
    (fun name ->
      match O.histogram o name with
      | None -> Alcotest.failf "with_apply recorded no %s" name
      | Some h ->
          check Alcotest.int (name ^ ": one sample per call") 3 (H.count h);
          if H.min_value h < 0.0 then
            Alcotest.failf "%s went negative: %g" name (H.min_value h))
    [
      O.K.apply_latency;
      O.K.gc_minor_words;
      O.K.gc_major_words;
      O.K.gc_promoted_words;
    ]

(* 1000 conses are 3000 minor words, none of which need a minor
   collection to be counted; the wrapper's own closure adds a few. *)
let test_with_apply_minor_words () =
  let o = O.create () in
  O.with_apply o (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
  match O.histogram o O.K.gc_minor_words with
  | None -> Alcotest.fail "with_apply recorded no gc_minor_words"
  | Some h ->
      let w = H.sum h in
      if w < 3000.0 || w > 3500.0 then
        Alcotest.failf "gc_minor_words %g, expected in [3000, 3500]" w

let test_with_apply_raises () =
  let o = O.create () in
  (* A raising thunk still records its sample, and so does the next call. *)
  (try O.with_apply o (fun () -> failwith "boom") with Failure _ -> ());
  O.with_apply o (fun () -> ());
  match O.histogram o O.K.apply_latency with
  | None -> Alcotest.fail "no latency recorded"
  | Some h -> check Alcotest.int "one sample per call" 2 (H.count h)

let test_monotonic_durations () =
  (* The clock contract: spans can never go negative, and the
     raw clock never steps backwards across calls. *)
  let o = O.create () in
  for _ = 1 to 100 do
    O.span_begin o "s";
    O.span_end o "s"
  done;
  let _, span_total = O.span o "s" in
  if span_total < 0.0 then Alcotest.failf "negative span total %g" span_total;
  let prev = ref (O.now_ns ()) in
  for _ = 1 to 1000 do
    let t = O.now_ns () in
    if Int64.compare t !prev < 0 then Alcotest.fail "clock stepped backwards";
    prev := t
  done

let test_engine_latency_histograms () =
  (* One engine end-to-end: every apply_batch records one sample, and the
     snapshot reaches to_json. *)
  let g = labeled_graph [ "a"; "b"; "c" ] [ (0, 1) ] in
  let o = O.create () in
  let s = Ig_scc.Inc_scc.init ~obs:o g in
  ignore (Ig_scc.Inc_scc.apply_batch s [ Digraph.Insert (1, 2) ]);
  ignore (Ig_scc.Inc_scc.apply_batch s [ Digraph.Delete (0, 1) ]);
  ignore (Ig_scc.Inc_scc.apply_batch s [ Digraph.Insert (2, 0) ]);
  (match O.histogram o O.K.apply_latency with
  | None -> Alcotest.fail "engine recorded no latency"
  | Some h -> check Alcotest.int "three calls" 3 (H.count h));
  match J.member "histograms" (O.to_json o) with
  | Some (J.Obj kvs) ->
      check Alcotest.bool "latency histogram exported" true
        (List.mem_assoc O.K.apply_latency kvs)
  | _ -> Alcotest.fail "to_json lacks a histograms object"

(* ---- the JSON escaper under the parser -------------------------------------- *)

(* Trace export leans on the hand-rolled escaper for before/after values
   that can contain anything; round-trip every byte through the parser. *)
let test_escape_all_bytes () =
  for b = 0 to 255 do
    let s = String.make 1 (Char.chr b) in
    match J.parse (J.to_string (J.Str s)) with
    | Ok (J.Str s') ->
        check Alcotest.string (Printf.sprintf "byte 0x%02x" b) s s'
    | Ok _ -> Alcotest.fail (Printf.sprintf "byte 0x%02x: not a string" b)
    | Error e ->
        Alcotest.fail (Printf.sprintf "byte 0x%02x: parse error: %s" b e)
  done

let escape_roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"escape_string round-trips under parse"
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s ->
      match J.parse (J.to_string (J.Str s)) with
      | Ok (J.Str s') -> String.equal s s'
      | _ -> false)

(* ---- BENCH reports ----------------------------------------------------------- *)

module R = Ig_obs.Report

(* A point with no registry (a batch baseline) still carries empty
   histogram and gc sections, so the written report decodes; decoding
   gives back every point's x, timings, counters, speedups, histograms
   and gc, through the printer and the parser. *)
let test_report_writer_validates () =
  let module H = Ig_obs.Histogram in
  let r = R.create ~tool:"test" ~config:[ ("scale", J.Float 0.02) ] () in
  let e = R.experiment r ~id:"exp" ~title:"exp" in
  R.add_point e ~x:"1" ~timings:[ ("batch", 0.5) ] ();
  let h = H.create () in
  List.iter (H.observe h) [ 0.001; 0.004; 2e-6 ];
  R.add_point e ~x:"2"
    ~timings:[ ("inc", 0.1); ("batch", 0.25) ]
    ~counters:[ ("inc", [ ("aff", 3); ("edges_relaxed", 17) ]) ]
    ~speedup:[ ("inc", 2.5) ]
    ~histograms:
      [ ("inc", [ ("apply_latency_s", h); ("gc_minor_words", H.create ()) ]) ]
    ~gc:[ ("inc", [ ("minor_words", 12.) ]) ]
    ();
  ignore (R.experiment r ~id:"empty" ~title:"no points");
  let text = J.to_string ~indent:true (R.to_json r) in
  match Result.bind (J.parse text) R.of_json with
  | Error e -> Alcotest.fail ("fresh report rejected: " ^ e)
  | Ok r' ->
      (* Structural equality: histograms compare by count, sum, extremes
         and buckets. *)
      check Alcotest.bool "every experiment and point comes back" true
        (r'.R.experiments = r.R.experiments);
      check Alcotest.bool "tool, created and config come back" true
        ((r'.R.tool, r'.R.created, r'.R.config)
        = (r.R.tool, r.R.created, r.R.config))

(* A v1 report, and a v2 point without the histogram/gc sections, are
   both rejected. *)
let test_report_v1_rejected () =
  let point =
    [
      ("x", J.Str "1");
      ("timings", J.Obj [ ("batch", J.Float 0.5) ]);
      ("counters", J.Obj []);
      ("speedup_vs_batch", J.Obj []);
    ]
  in
  let report v point =
    J.Obj
      [
        ("schema_version", J.Int v);
        ("tool", J.Str "test");
        ("created_unix", J.Float 0.);
        ("config", J.Obj []);
        ( "experiments",
          J.Arr
            [
              J.Obj
                [
                  ("id", J.Str "exp");
                  ("title", J.Str "exp");
                  ("points", J.Arr [ J.Obj point ]);
                ];
            ] );
      ]
  in
  let full = point @ [ ("histograms", J.Obj []); ("gc", J.Obj []) ] in
  (match R.of_json (report 2 full) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("v2 report rejected: " ^ e));
  List.iter
    (fun (what, json) ->
      match R.of_json json with
      | Ok _ -> Alcotest.failf "decoder accepted %s" what
      | Error _ -> ())
    [
      ("a v1 report", report 1 point);
      ("a v1 report with v2 sections", report 1 full);
      ("a v2 point without histograms/gc", report 2 point);
    ]

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters are monotonic" `Quick
            test_counter_monotonic;
          Alcotest.test_case "snapshots are sorted" `Quick
            test_counter_snapshot_sorted;
          Alcotest.test_case "changed aggregates ΔG + ΔO" `Quick
            test_changed_aggregates;
          Alcotest.test_case "diff_counters" `Quick test_diff_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span mismatch rejected" `Quick
            test_span_mismatch_rejected;
          Alcotest.test_case "open span names" `Quick test_open_spans;
          Alcotest.test_case "spans survive exceptions" `Quick
            test_span_exception_safe;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "disabled sink",
        [
          Alcotest.test_case "noop is a true no-op" `Quick test_noop_sink;
          Alcotest.test_case "engines default to noop" `Quick
            test_engines_default_to_noop;
        ] );
      ( "engine smoke",
        [
          Alcotest.test_case "KWS aff localization" `Quick test_kws_aff;
          Alcotest.test_case "RPQ aff localization" `Quick test_rpq_aff;
          Alcotest.test_case "SCC aff localization" `Quick test_scc_aff;
          Alcotest.test_case "Sim aff localization" `Quick test_sim_aff;
          Alcotest.test_case "ISO aff localization" `Quick test_iso_aff;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring buffer wraps, drops oldest" `Quick
            test_tracer_ring_wrap;
          Alcotest.test_case "noop tracer is a true no-op" `Quick
            test_tracer_noop;
          Alcotest.test_case "noop tracer leaves runs bit-identical" `Quick
            test_noop_tracer_identical_run;
          Alcotest.test_case "event recording never changes a counter" `Quick
            test_events_never_change_counters;
          Alcotest.test_case "engine events carry rule tags" `Quick
            test_engine_trace_events;
          Alcotest.test_case "explain rendering" `Quick test_explain_rendering;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sorted_bindings ascends" `Quick
            test_sorted_bindings;
          Alcotest.test_case "KWS/RPQ traces byte-identical across runs"
            `Quick test_trace_byte_equality;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "observe and lookup" `Quick
            test_observe_and_lookup;
          Alcotest.test_case "noop sink stores nothing" `Quick
            test_noop_histograms;
          Alcotest.test_case "with_apply records latency and GC" `Quick
            test_with_apply_records;
          Alcotest.test_case "with_apply counts minor words exactly" `Quick
            test_with_apply_minor_words;
          Alcotest.test_case "with_apply records on a raise" `Quick
            test_with_apply_raises;
          Alcotest.test_case "monotonic clock contract" `Quick
            test_monotonic_durations;
          Alcotest.test_case "engine latency end-to-end" `Quick
            test_engine_latency_histograms;
        ] );
      ( "json escaper",
        [
          Alcotest.test_case "all 256 bytes round-trip" `Quick
            test_escape_all_bytes;
          QCheck_alcotest.to_alcotest escape_roundtrip_prop;
        ] );
      ( "bench report",
        [
          Alcotest.test_case "writer output validates" `Quick
            test_report_writer_validates;
          Alcotest.test_case "v1 report rejected" `Quick
            test_report_v1_rejected;
        ] );
    ]
