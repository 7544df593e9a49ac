(* Tests for the determinism & instrumentation linter (lib/lint): one
   fixture per rule D1-D6, the three suppression shapes, the report JSON
   round-trip, a clean-tree integration run over the build
   copy of the repo's own sources, the test/lint_fixtures/ D2 fixture
   and in-process report byte-determinism (the cross-process run is
   @lint-determinism). *)

module L = Ig_lint.Lint
module J = Ig_obs.Json

let check = Alcotest.check

let rules ds = List.map (fun (d : L.diagnostic) -> d.L.rule) ds

let lint ?(path = "lib/kws/fixture.ml") src =
  let ds, _ = L.lint_source ~path src in
  ds

let suppressed ?(path = "lib/kws/fixture.ml") src =
  snd (L.lint_source ~path src)

(* ---- D1: polymorphic compare / hash ---------------------------------------- *)

let test_d1_compare () =
  check (Alcotest.list Alcotest.string) "bare compare flagged" [ "D1" ]
    (rules (lint "let f l = List.sort compare l"));
  check (Alcotest.list Alcotest.string) "Stdlib.compare flagged" [ "D1" ]
    (rules (lint "let f l = List.sort Stdlib.compare l"));
  check (Alcotest.list Alcotest.string) "Hashtbl.hash flagged" [ "D1" ]
    (rules (lint "let h x = Hashtbl.hash x"));
  check (Alcotest.list Alcotest.string) "first-class ( = ) flagged" [ "D1" ]
    (rules (lint "let eq = ( = )"));
  check (Alcotest.list Alcotest.string)
    "infix = on scalars passes (documented approximation)" []
    (rules (lint "let f a b = if a = b then a else b"));
  check (Alcotest.list Alcotest.string) "Int.compare passes" []
    (rules (lint "let f l = List.sort Int.compare l"));
  check (Alcotest.list Alcotest.string) "out of engine scope" []
    (rules (lint ~path:"lib/theory/fixture.ml" "let f l = List.sort compare l"))

(* ---- D2: unordered iteration ------------------------------------------------ *)

let fold_src = "let ks tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl []"

let test_d2_iteration () =
  check (Alcotest.list Alcotest.string) "Hashtbl.fold flagged" [ "D2" ]
    (rules (lint ~path:"lib/theory/fixture.ml" fold_src));
  check (Alcotest.list Alcotest.string) "Hashtbl.iter flagged" [ "D2" ]
    (rules (lint "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl"));
  check (Alcotest.list Alcotest.string) "Digraph.iter_succ passes" []
    (rules (lint "let f g v = Digraph.iter_succ (fun _ -> ()) g v"));
  check (Alcotest.list Alcotest.string) "sorted_bindings passes" []
    (rules (lint "let f tbl = Obs.sorted_bindings ~compare:Int.compare tbl"));
  check (Alcotest.list Alcotest.string) "out of lib/ scope" []
    (rules (lint ~path:"bench/fixture.ml" fold_src));
  (* functor-made tables (H.iter) hash with unseeded per-type functions and
     are deterministic under OCAMLRUNPARAM=R, so they are not flagged *)
  check (Alcotest.list Alcotest.string) "functor table iter passes" []
    (rules (lint "let f tbl = H.iter (fun _ _ -> ()) tbl"))

(* ---- D3: ambient nondeterminism --------------------------------------------- *)

let test_d3_ambient () =
  check (Alcotest.list Alcotest.string) "global Random flagged" [ "D3" ]
    (rules (lint "let r () = Random.int 5"));
  check (Alcotest.list Alcotest.string) "Random.self_init flagged" [ "D3" ]
    (rules (lint "let () = Random.self_init ()"));
  check (Alcotest.list Alcotest.string) "Random.State passes" []
    (rules (lint "let r st = Random.State.int st 5"));
  check (Alcotest.list Alcotest.string) "wall clock flagged" [ "D3"; "D3" ]
    (rules
       (lint "let t () = Unix.gettimeofday () +. Sys.time ()"));
  check (Alcotest.list Alcotest.string) "lib/obs exempt" []
    (rules (lint ~path:"lib/obs/fixture.ml" "let t () = Unix.gettimeofday ()"));
  check (Alcotest.list Alcotest.string) "bin/ out of scope" []
    (rules (lint ~path:"bin/fixture.ml" "let t () = Unix.gettimeofday ()"))

(* D3's filesystem half: durable I/O belongs to lib/journal alone. *)
let test_d3_filesystem () =
  check (Alcotest.list Alcotest.string) "open_out in lib/ flagged" [ "D3" ]
    (rules (lint "let f p = open_out p"));
  check (Alcotest.list Alcotest.string) "Sys.remove flagged" [ "D3" ]
    (rules (lint "let f p = Sys.remove p"));
  check (Alcotest.list Alcotest.string) "Out_channel variants flagged" [ "D3" ]
    (rules (lint "let f p = Out_channel.open_bin p"));
  check (Alcotest.list Alcotest.string) "lib/journal exempt" []
    (rules (lint ~path:"lib/journal/fixture.ml" "let f p = open_out p"));
  check (Alcotest.list Alcotest.string) "bench/ out of scope" []
    (rules (lint ~path:"bench/fixture.ml" "let f p = open_out p"));
  check (Alcotest.list Alcotest.string) "annotated artifact writer passes" []
    (rules (lint "let f p = (open_out [@lint.allow \"D3\"]) p"));
  check Alcotest.int "suppression counted" 1
    (suppressed "let f p = (open_out [@lint.allow \"D3\"]) p")

(* ---- D4: instrumented update entry points ----------------------------------- *)

let instrumented =
  "let apply_batch t ups =\n\
  \  Obs.with_apply t.obs (fun () ->\n\
  \      Obs.aff_enter t.obs ~node:0 ~rule:Tracer.Kws_prune;\n\
  \      ignore ups)\n"

let test_d4_instrumentation () =
  check (Alcotest.list Alcotest.string) "wrapped and tagged passes" []
    (rules (lint ~path:"lib/kws/inc_fixture.ml" instrumented));
  (let ds =
     lint ~path:"lib/kws/inc_fixture.ml"
       "let apply_batch t ups = ignore (t, ups)"
   in
   check (Alcotest.list Alcotest.string) "bare entry point doubly flagged"
     [ "D4"; "D4" ] (rules ds));
  check (Alcotest.list Alcotest.string)
    "wrapped but never rule-tagged flagged" [ "D4" ]
    (rules
       (lint ~path:"lib/kws/inc_fixture.ml"
          "let apply_batch t ups = Obs.with_apply t.obs (fun () -> ups)"));
  check (Alcotest.list Alcotest.string)
    "a non-Obs aff_enter does not count" [ "D4" ]
    (rules
       (lint ~path:"lib/kws/inc_fixture.ml"
          "let apply_batch t ups =\n\
          \  Obs.with_apply t.obs (fun () ->\n\
          \      Tracer.aff_enter t.trace ~node:0 ~rule:Tracer.Kws_prune;\n\
          \      ignore ups)\n"));
  check (Alcotest.list Alcotest.string) "non-inc_ file out of scope" []
    (rules
       (lint ~path:"lib/kws/batch.ml"
          "let apply_batch t ups = ignore (t, ups)"));
  check (Alcotest.list Alcotest.string) "@@-applied wrapper passes" []
    (rules
       (lint ~path:"lib/kws/inc_fixture.ml"
          ("let apply_batch t ups =\n\
           \  Obs.with_apply t.obs @@ fun () ->\n\
           \  Obs.aff_enter t.obs ~node:0 ~rule:Tracer.Kws_prune;\n\
           \  ignore ups\n")))

(* ---- D4: instrumented storage entry points ----------------------------------- *)

let test_d4_storage () =
  check (Alcotest.list Alcotest.string) "uninstrumented compact flagged"
    [ "D4" ]
    (rules (lint ~path:"lib/graph/digraph.ml" "let compact g = ignore g"));
  check (Alcotest.list Alcotest.string) "probed compact passes" []
    (rules
       (lint ~path:"lib/graph/digraph.ml"
          "let compact g = if Obs.enabled g.obs then Obs.incr g.obs Obs.K.c"));
  check (Alcotest.list Alcotest.string) "uninstrumented append flagged"
    [ "D4" ]
    (rules (lint ~path:"lib/journal/journal.ml" "let append t = ignore t"));
  check (Alcotest.list Alcotest.string) "observe_time counts as a probe" []
    (rules
       (lint ~path:"lib/journal/journal.ml"
          "let append t = Obs.observe_time t.obs Obs.K.wal (fun () -> ())"));
  check (Alcotest.list Alcotest.string) "uninstrumented undo flagged" [ "D4" ]
    (rules (lint ~path:"lib/journal/store.ml" "let undo t ~k = ignore (t, k)"));
  check (Alcotest.list Alcotest.string) "other files out of scope" []
    (rules (lint ~path:"lib/graph/io.ml" "let compact g = ignore g"));
  check (Alcotest.list Alcotest.string) "uncounted add_edge flagged" [ "D4" ]
    (rules (lint ~path:"lib/graph/digraph.ml" "let add_edge g = ignore g"));
  check (Alcotest.list Alcotest.string) "uncounted remove_edge flagged"
    [ "D4" ]
    (rules (lint ~path:"lib/graph/digraph.ml" "let remove_edge g = ignore g"));
  check (Alcotest.list Alcotest.string) "the |ΔG| count is a probe" []
    (rules
       (lint ~path:"lib/graph/digraph.ml"
          "let remove_edge g = Obs.note_changed_input g.obs 1"));
  check (Alcotest.list Alcotest.string) "other bindings out of scope" []
    (rules (lint ~path:"lib/graph/digraph.ml" "let mem_edge g = ignore g"))

(* ---- D6: probe names live in Obs.K ---------------------------------------- *)

let test_d6_probe_names () =
  check (Alcotest.list Alcotest.string) "literal counter name flagged"
    [ "D6" ]
    (rules (lint "let f o = Obs.incr o \"rematches\""));
  check (Alcotest.list Alcotest.string) "literal histogram name flagged"
    [ "D6" ]
    (rules
       (lint ~path:"lib/journal/fixture.ml"
          "let f o dt = Ig_obs.Obs.observe o \"fsync_s\" dt"));
  check (Alcotest.list Alcotest.string) "Obs.K name passes" []
    (rules (lint "let f o = Obs.add o Obs.K.edges_relaxed 3"));
  check (Alcotest.list Alcotest.string) "span names are exempt" []
    (rules (lint "let f o g = Obs.with_span o \"kws.process\" g"));
  check (Alcotest.list Alcotest.string) "out of lib/ scope" []
    (rules (lint ~path:"bench/fixture.ml" "let f o = Obs.incr o \"x\""))

(* ---- suppression ------------------------------------------------------------- *)

let test_suppression () =
  let expr = "let ks tbl = (Hashtbl.fold [@lint.allow \"D2\"]) (fun k _ a -> k :: a) tbl []" in
  check (Alcotest.list Alcotest.string) "expression allow silences" []
    (rules (lint expr));
  check Alcotest.int "expression allow counted" 1 (suppressed expr);
  let binding =
    "let ks tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl [] [@@lint.allow \"D2\"]"
  in
  check (Alcotest.list Alcotest.string) "binding allow silences" []
    (rules (lint binding));
  let file_wide =
    "[@@@lint.allow \"D2\"]\n\
     let a tbl = Hashtbl.fold (fun k _ x -> k :: x) tbl []\n\
     let b tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n"
  in
  check (Alcotest.list Alcotest.string) "file-wide allow silences all" []
    (rules (lint file_wide));
  check Alcotest.int "file-wide allow counts each site" 2
    (suppressed file_wide);
  (* an allow for one rule does not leak onto another *)
  check (Alcotest.list Alcotest.string) "wrong-rule allow does not silence"
    [ "D2" ]
    (rules
       (lint
          "let ks tbl = (Hashtbl.fold [@lint.allow \"D1\"]) (fun k _ a -> k :: a) tbl []"))

let test_syntax_error () =
  match lint "let let = in" with
  | [ d ] ->
      check Alcotest.string "syntax rule" "syntax" d.L.rule;
      check Alcotest.bool "positioned" true (d.L.line >= 1)
  | ds -> Alcotest.failf "expected 1 syntax diagnostic, got %d" (List.length ds)

(* ---- D5 + tree scan ---------------------------------------------------------- *)

let with_fixture_tree f =
  let root = Filename.temp_file "lint" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let rec rm p =
    if Sys.is_directory p then (
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm root) (fun () -> f root)

let write root rel content =
  let rec ensure d =
    if not (Sys.file_exists d) then (
      ensure (Filename.dirname d);
      Sys.mkdir d 0o755)
  in
  let full = Filename.concat root rel in
  ensure (Filename.dirname full);
  Out_channel.with_open_text full (fun oc ->
      Out_channel.output_string oc content)

let test_d5_and_run () =
  with_fixture_tree (fun root ->
      write root "lib/kws/good.ml" "let x = 1";
      write root "lib/kws/good.mli" "val x : int";
      write root "lib/kws/naked.ml" "let y = 2";
      write root "bin/tool.ml" "let () = print_string \"hi\"";
      let r = L.run ~root in
      check Alcotest.int "all files scanned" 4 r.L.files_scanned;
      (match r.L.diagnostics with
      | [ d ] ->
          check Alcotest.string "D5 fires" "D5" d.L.rule;
          check Alcotest.string "on the naked module" "lib/kws/naked.ml"
            d.L.file;
          check Alcotest.bool "as a warning" true (d.L.severity = L.Warning)
      | ds -> Alcotest.failf "expected exactly the D5 warning, got %d" (List.length ds));
      check
        (Alcotest.list Alcotest.string)
        "scan is sorted"
        [ "bin/tool.ml"; "lib/kws/good.ml"; "lib/kws/good.mli";
          "lib/kws/naked.ml" ]
        (L.scan_files ~root))

(* The repo's own sources are lint-clean. dune runs tests from
   _build/default/test, so ".." is the build copy of the tree; the
   authoritative source-tree run is the @lint alias. *)
let test_real_tree_clean () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    let r = L.run ~root:".." in
    check Alcotest.bool "scanned something" true (r.L.files_scanned > 0);
    List.iter
      (fun d -> Alcotest.failf "unexpected finding: %s" (Format.asprintf "%a" L.pp_diagnostic d))
      r.L.diagnostics
  end

(* ---- JSON round-trips --------------------------------------------------------- *)

let sample_diags =
  [
    {
      L.rule = "D2";
      file = "lib/kws/inc_kws.ml";
      line = 42;
      col = 7;
      severity = L.Error;
      message = "Hashtbl.fold iterates in hash order";
    };
    {
      L.rule = "D5";
      file = "lib/rpq/pgraph.ml";
      line = 1;
      col = 0;
      severity = L.Warning;
      message = "lib/ module has no interface (.mli)";
    };
  ]

let test_report_validates () =
  let r =
    {
      L.diagnostics = sample_diags;
      suppressed = 5;
      files_scanned = 103;
    }
  in
  let json = L.report_to_json r in
  (match L.validate json with
  | Ok (v, n) ->
      check Alcotest.int "schema version" L.report_schema_version v;
      check Alcotest.int "diagnostic count" 2 n
  | Error e -> Alcotest.fail ("fresh report rejected: " ^ e));
  (match J.parse (J.to_string ~indent:true json) with
  | Error e -> Alcotest.fail ("report reparse failed: " ^ e)
  | Ok j ->
      check Alcotest.bool "diagnostics round-trip exactly" true
        (L.diagnostics_of_json j = Ok sample_diags));
  (* Older schema versions are rejected, even when well-formed. *)
  List.iter
    (fun v ->
      match
        L.validate
          (J.Obj
             [
               ("tool", J.Str "incgraph-lint");
               ("schema_version", J.Int v);
               ("files_scanned", J.Int 10);
               ("suppressed", J.Int 0);
               ("diagnostics", J.Arr []);
             ])
      with
      | Ok _ -> Alcotest.failf "validator accepted a v%d report" v
      | Error _ -> ())
    [ 1; 2; 3 ];
  (match L.validate (J.Obj [ ("tool", J.Str "incgraph-lint") ]) with
  | Ok _ -> Alcotest.fail "validator accepted a gutted report"
  | Error _ -> ());
  match
    L.validate (J.Obj [ ("tool", J.Str "other"); ("schema_version", J.Int 1) ])
  with
  | Ok _ -> Alcotest.fail "validator accepted a foreign tool"
  | Error _ -> ()

(* ---- fixtures ------------------------------------------------------------- *)

(* dune runtest runs from _build/default/test; dune exec from the root. *)
let read_fixture name =
  let dir =
    if Sys.file_exists "lint_fixtures" then "lint_fixtures"
    else Filename.concat "test" "lint_fixtures"
  in
  In_channel.with_open_text (Filename.concat dir name) In_channel.input_all

let test_d2_to_seq_fixture () =
  let src = read_fixture "d2_to_seq.ml" in
  check
    (Alcotest.list Alcotest.string)
    "to_seq flagged under lib/" [ "D2" ]
    (rules (lint ~path:"lib/kws/d2_to_seq.ml" src))

(* Two full runs over the repo tree must render byte-identical reports
   (the list orders and json emission are all explicitly sorted). The
   cross-process, cross-hash-seed version of this check is the
   @lint-determinism alias. *)
let test_report_determinism () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    let render () =
      let r = L.run ~root:".." in
      J.to_string ~indent:true (L.report_to_json r)
    in
    let a = render () and b = render () in
    check Alcotest.string "byte-identical reports" a b
  end

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D1 polymorphic compare" `Quick test_d1_compare;
          Alcotest.test_case "D2 unordered iteration" `Quick test_d2_iteration;
          Alcotest.test_case "D3 ambient nondeterminism" `Quick
            test_d3_ambient;
          Alcotest.test_case "D3 filesystem access" `Quick test_d3_filesystem;
          Alcotest.test_case "D4 instrumentation" `Quick
            test_d4_instrumentation;
          Alcotest.test_case "D4 storage entry points" `Quick test_d4_storage;
          Alcotest.test_case "D6 probe names" `Quick test_d6_probe_names;
          Alcotest.test_case "syntax errors are diagnostics" `Quick
            test_syntax_error;
        ] );
      ( "suppression",
        [ Alcotest.test_case "allow attributes" `Quick test_suppression ] );
      ( "tree",
        [
          Alcotest.test_case "D5 and directory scan" `Quick test_d5_and_run;
          Alcotest.test_case "repo sources are clean" `Quick
            test_real_tree_clean;
        ] );
      ( "json",
        [
          Alcotest.test_case "report validates" `Quick test_report_validates;
        ] );
      (* The group keeps its historical name so the test ids stay stable. *)
      ( "interproc",
        [
          Alcotest.test_case "D2 to_seq fixture" `Quick
            test_d2_to_seq_fixture;
          Alcotest.test_case "report determinism" `Quick
            test_report_determinism;
        ] );
    ]
