(* Differential fuzzing: every incremental engine cross-checked against its
   batch oracle (kdist BFS, NFA-product reachability, Tarjan, the simulation
   fixpoint, VF2) under seeded random update streams, with check_invariants
   validating the auxiliary certificates after every unit update.

   Tier-1 runs a bounded number of steps per algorithm inside `dune
   runtest`; `dune build @fuzz` reruns the same cases as a soak (see
   FUZZ_STEPS below). The mutation tests plant a bug — a corrupted kdist
   certificate entry, then an engine that drops certain deletions — and
   assert the harness both detects it and ddmin-shrinks the failing stream
   to a minimal reproducer. *)

open Ig_graph
module O = Ig_check.Oracle
module A = Ig_check.Adapters
module St = Ig_check.Stream
module Sh = Ig_check.Shrink
module H = Ig_check.Harness
module Sc = Ig_check.Scenarios
module Sp = Ig_check.Spec

let check = Alcotest.check

(* Tier-1 bound: 400 mixed insert/delete steps per algorithm. The @fuzz
   alias overrides via FUZZ_STEPS for soak runs. *)
let steps =
  match Sys.getenv_opt "FUZZ_STEPS" with
  | Some s -> ( try int_of_string s with Failure _ -> 400)
  | None -> 400

(* ---- differential fuzz, one case per algorithm -------------------------- *)

(* A generated base graph keeps its last edges in the delta overlay (it is
   built edge by edge and compacts only past the overlay threshold). The
   "csr" groups rerun each case with the base compacted first, so every
   base edge sits in the CSR arrays and the stream's deletions hit
   tombstones of the base rows rather than overlay entries. *)
let compacted (s : Sc.t) =
  let base = Digraph.copy s.Sc.base in
  Digraph.compact base;
  { s with Sc.base; make = (fun () -> Sp.make base s.Sc.spec) }

(* The SCC scenario with its engine built explicitly: "incn" with the
   default engine (IncSCCn is IncSCC called once per update, which is how
   the harness applies every update), "dyn" with the DynSCC stand-in,
   whose reachability checks and dirty marks no other case reaches. *)
let scc_configs = [ ("incn", false); ("dyn", true) ]

let with_scc_config dyn (s : Sc.t) =
  let make () =
    Sp.scc
      (Ig_scc.Inc_scc.init ~dyn
         ~obs:(Ig_obs.Obs.create ~events:Ig_obs.Obs.default_events ())
         (Digraph.copy s.Sc.base))
  in
  { s with Sc.make }

let lookup ~csr ?config ~rng name =
  Sc.by_name ~rng name
  |> Option.map (if csr then compacted else Fun.id)
  |> Option.map
       (match config with
       | None -> Fun.id
       | Some (_, dyn) -> with_scc_config dyn)

let label ?config name =
  match config with None -> name | Some (tag, _) -> name ^ "-" ^ tag

let scenario_case ~csr ?config (name, seed) =
  Alcotest.test_case
    (Printf.sprintf "%s: %d steps vs batch oracle" (label ?config name) steps)
    `Quick
    (fun () ->
      let rng = Random.State.make [| 0x90; seed |] in
      match lookup ~csr ?config ~rng name with
      | None -> Alcotest.failf "unknown scenario %s" name
      | Some s -> (
          match
            H.run ~make:s.Sc.make ~focus:s.Sc.focus ~steps ~seed ()
          with
          | Ok n -> check Alcotest.int "steps completed" steps n
          | Error f -> Alcotest.failf "%a" H.pp_failure f))

let scenario_seeds =
  [
    ("kws", 101);
    ("rpq", 102);
    ("scc", 103);
    ("sim", 104);
    ("iso", 105);
    (* The Fig. 9 two-cycle gadget: the stream keeps toggling the Δ1/Δ2
       bridge edges whose interaction the RPQ unboundedness proof turns
       on. *)
    ("gadget", 106);
  ]

let scenario_cases =
  List.map (scenario_case ~csr:false) scenario_seeds
  @ List.map2
      (fun config seed -> scenario_case ~csr:false ~config ("scc", seed))
      scc_configs [ 107; 108 ]

let scenario_cases_csr = List.map (scenario_case ~csr:true) scenario_seeds

(* ---- durable fuzz: journaled do/undo/crash-recover interleavings -------- *)

(* Each engine under Ig_check.Durable: every update write-ahead journaled,
   random interleaved undo k, do→undo byte-identity pairs, snapshots, and
   clean/torn crash-recoveries — with the differential oracle consulted
   after every action. Step count is fixed (not FUZZ_STEPS-scaled): the
   crash actions rebuild the engine from scratch, so soak scaling belongs
   to the cheaper differential cases above. *)
let durable_steps = 200

let durable_case ~csr ?config (name, seed) =
  let label = label ?config name in
  Alcotest.test_case
    (Printf.sprintf "%s: %d journaled do/undo/crash steps" label durable_steps)
    `Quick
    (fun () ->
      let rng = Random.State.make [| 0xd0; seed |] in
      match lookup ~csr ?config ~rng name with
      | None -> Alcotest.failf "unknown scenario %s" name
      | Some s -> (
          match
            Ig_check.Durable.run ~scenario:s
              ~dir:
                (Printf.sprintf "durable_%s%s"
                   (if csr then "csr_" else "")
                   label)
              ~steps:durable_steps ~seed ()
          with
          | Ok n -> check Alcotest.int "steps completed" durable_steps n
          | Error msg -> Alcotest.fail msg))

let durable_seeds =
  [ ("kws", 201); ("rpq", 202); ("scc", 203); ("sim", 204); ("iso", 205) ]

let durable_cases =
  List.map (durable_case ~csr:false) durable_seeds
  @ List.map2
      (fun config seed -> durable_case ~csr:false ~config ("scc", seed))
      scc_configs [ 206; 207 ]

let durable_cases_csr = List.map (durable_case ~csr:true) durable_seeds

(* ---- stream driver ------------------------------------------------------ *)

let test_stream_deterministic () =
  let run () =
    let grng = Random.State.make [| 99 |] in
    let g = Ig_workload.Generate.uniform ~rng:grng ~nodes:20 ~edges:50 ~labels:3 () in
    let st =
      St.create ~rng:(Random.State.make [| 123 |]) ~focus:[ (0, 1); (2, 3) ] g
    in
    let us = ref [] in
    for _ = 1 to 300 do
      let u = St.next st in
      ignore (Digraph.apply g u);
      us := u :: !us
    done;
    List.rev !us
  in
  check Alcotest.bool "same seed, same stream" true (run () = run ())

let test_stream_mixes_ops () =
  let grng = Random.State.make [| 7 |] in
  let g = Ig_workload.Generate.uniform ~rng:grng ~nodes:15 ~edges:40 ~labels:3 () in
  let st = St.create ~rng:(Random.State.make [| 5 |]) g in
  let ins = ref 0 and del = ref 0 and noop = ref 0 and loops = ref 0 in
  for _ = 1 to 500 do
    let u = St.next st in
    (match u with
    | Digraph.Insert (a, b) ->
        incr ins;
        if a = b then incr loops
    | Digraph.Delete _ -> incr del);
    if not (Digraph.apply g u) then incr noop
  done;
  check Alcotest.bool "inserts present" true (!ins > 100);
  check Alcotest.bool "deletes present" true (!del > 100);
  check Alcotest.bool "no-ops exercised (dups, absent deletes)" true (!noop > 10);
  check Alcotest.bool "self-loops exercised" true (!loops > 0)

(* ---- ddmin -------------------------------------------------------------- *)

let test_ddmin_pure () =
  (* Failure needs the pair {x, y}; everything else is noise. *)
  let x = Digraph.Insert (1, 2) and y = Digraph.Delete (3, 4) in
  let noise i = Digraph.Insert (100 + i, 200 + i) in
  let stream =
    List.init 12 noise @ [ x ] @ List.init 9 (fun i -> noise (50 + i)) @ [ y ]
    @ List.init 7 (fun i -> noise (80 + i))
  in
  let fails s = List.mem x s && List.mem y s in
  check Alcotest.bool "shrinks to the pair" true
    (Sh.ddmin ~fails stream = [ x; y ]);
  check Alcotest.bool "non-failing input unchanged" true
    (Sh.ddmin ~fails:(fun _ -> false) stream = stream)

(* ---- mutation smoke tests ----------------------------------------------- *)

(* Corrupt one kdist certificate entry after init; the harness's invariant
   check must flag it (the differential layer proves it catches planted
   auxiliary-structure bugs, not just output bugs). *)
let test_mutation_kdist_detected () =
  let g = Digraph.create () in
  let k = Digraph.add_node g "key" in
  let a = Digraph.add_node g "x" in
  let b = Digraph.add_node g "x" in
  ignore (Digraph.add_edge g a k);
  ignore (Digraph.add_edge g b a);
  ignore (Digraph.add_edge g k b);
  let q = { Ig_kws.Batch.keywords = [ "key" ]; bound = 2 } in
  let make () =
    let t = Ig_kws.Inc_kws.init (Digraph.copy g) q in
    if not (Ig_kws.Inc_kws.corrupt_certificate_for_testing t) then
      Alcotest.fail "no kdist entry to corrupt";
    Sp.kws t
  in
  match H.run ~make ~steps:40 ~seed:7 () with
  | Ok _ -> Alcotest.fail "planted kdist corruption went undetected"
  | Error f ->
      check Alcotest.int "caught by the post-init check" 0 f.H.step;
      check Alcotest.bool "invariant violation reported" true
        (String.length f.H.reason > 0);
      check Alcotest.bool "shrunk to <= 10 updates" true
        (List.length f.H.shrunk <= 10)

(* A deliberately buggy engine: deletions of edges leaving node 0 are
   dropped on the floor, so the maintained answer drifts from the truth.
   The engine stays internally consistent — check_invariants cannot see the
   bug; only the differential comparison can. The harness must catch the
   first divergence and ddmin the stream to a minimal reproducer. *)
let buggy_scc g =
  let module I = Ig_scc.Inc_scc in
  let truth = Digraph.copy g in
  let eng =
    I.init ~obs:(Ig_obs.Obs.create ~events:Ig_obs.Obs.default_events ()) g
  in
  let kept = function Digraph.Delete (0, _) -> false | _ -> true in
  {
    O.name = "buggy-scc";
    series = "BuggySCC";
    graph = truth;
    obs = I.obs eng;
    apply_batch =
      (fun us ->
        Digraph.apply_batch truth us;
        (* The planted bug: the engine never sees those deletions. A
           batch left empty is not applied at all, so the dropped step
           leaves no event, not even a span. *)
        (match List.filter kept us with
        | [] -> ()
        | us -> ignore (I.apply_batch eng us));
        (0, 0));
    delta_line = (fun _ -> "");
    describe = (fun () -> "");
    answer = (fun () -> A.canon_comps (I.components eng));
    recompute = (fun () -> A.canon_comps (Ig_scc.Tarjan.scc truth));
    check_invariants = (fun () -> I.check_invariants eng);
    cert_snapshot = (fun () -> I.cert_snapshot eng);
  }

let test_mutation_buggy_engine_shrinks () =
  let g = Digraph.create () in
  for _ = 0 to 5 do
    ignore (Digraph.add_node g "x")
  done;
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v))
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 3); (2, 3) ];
  let make () = buggy_scc (Digraph.copy g) in
  match H.run ~make ~focus:[ (0, 1) ] ~steps:200 ~seed:5 () with
  | Ok _ -> Alcotest.fail "planted divergence went undetected"
  | Error f ->
      check Alcotest.bool "nonempty reproducer" true (f.H.shrunk <> []);
      check Alcotest.bool "shrunk to <= 10 updates" true
        (List.length f.H.shrunk <= 10);
      check Alcotest.bool "reproducer replays to a failure" true
        (H.replay_fails ~make f.H.shrunk);
      (* The failure arrives with the failing step's event log attached.
         For this planted bug the log is empty — the engine dropped the
         update on the floor — and that silence is exactly the diagnosis
         the trace is meant to surface. *)
      (match f.H.trace with
      | None -> Alcotest.fail "no trace attached to the reproducer"
      | Some snap ->
          check Alcotest.bool "dropped update leaves an empty event log" true
            (snap.Ig_obs.Tracer.entries = []));
      (* The failure artefacts: every path save_failure returns exists,
         the .explain file renders the empty log, and the journal plans a
         recovery with one batch per shrunk update. *)
      let dir = Filename.temp_file "fuzz" "" in
      Sys.remove dir;
      Sys.mkdir dir 0o700;
      let rec rm p =
        if Sys.is_directory p then (
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p)
        else Sys.remove p
      in
      Fun.protect ~finally:(fun () -> rm dir) (fun () ->
          match H.save_failure ~dir ~base:g ~spec:Sp.Scc f with
          | gpath, upath, Some epath, Some jpath ->
              List.iter
                (fun (what, p) ->
                  check Alcotest.bool (what ^ " written") true
                    (Sys.file_exists p))
                [
                  (".graph", gpath);
                  (".updates", upath);
                  (".explain", epath);
                  (".journal", jpath);
                ];
              check Alcotest.string ".explain file is the empty log"
                "0 event(s)"
                (In_channel.with_open_text epath In_channel.input_line
                |> Option.value ~default:"");
              (match Ig_journal.Store.plan ~dir:jpath () with
              | Error e -> Alcotest.fail ("journal does not plan: " ^ e)
              | Ok p ->
                  check Alcotest.int "one journaled batch per shrunk update"
                    (List.length f.H.shrunk)
                    (List.length p.Ig_journal.Store.replay))
          | _ -> Alcotest.fail "no .explain or .journal artefact saved");
      (* 1-minimality: removing any single update loses the failure. *)
      List.iteri
        (fun i _ ->
          let sub = List.filteri (fun j _ -> j <> i) f.H.shrunk in
          check Alcotest.bool
            (Printf.sprintf "1-minimal (drop %d)" i)
            false (H.replay_fails ~make sub))
        f.H.shrunk

(* ---- harness replay plumbing -------------------------------------------- *)

let test_clean_replay_passes () =
  let rng = Random.State.make [| 31 |] in
  let s = Option.get (Sc.by_name ~rng "scc") in
  (* A healthy engine must replay any recorded stream without failing. *)
  let st =
    St.create ~rng:(Random.State.make [| 77 |]) (Digraph.copy s.Sc.base)
  in
  let g = Digraph.copy s.Sc.base in
  let us = ref [] in
  for _ = 1 to 100 do
    let u = St.next st in
    ignore (Digraph.apply g u);
    us := u :: !us
  done;
  check Alcotest.bool "no false positives" false
    (H.replay_fails ~make:s.Sc.make (List.rev !us))

(* ---- query specs -------------------------------------------------------- *)

(* Malformed specs are parse errors, never exceptions: ISO/Sim patterns
   with out of range endpoints, no labels, a disconnected pattern or a bad
   edge, and a negative KWS bound. *)
let test_spec_bad_patterns () =
  List.iter
    (fun (cls, bound, args) ->
      match Sp.of_args ~cls ~bound ~args with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "%s %s: accepted" cls (String.concat " " args)
      | exception e ->
          Alcotest.failf "%s %s: raised %s" cls (String.concat " " args)
            (Printexc.to_string e))
    [
      ("iso", 2, [ "a"; "b"; "0-5" ]);
      ("iso", 2, [ "0-1" ]);
      ("sim", 2, [ "l1"; "0-3" ]);
      ("iso", 2, [ "l1"; "l2"; "0-7" ]);
      ("sim", 2, [ "l1"; "l2" ]);
      ("iso", 2, [ "l1"; "l2"; "0-x" ]);
      ("iso", 2, [ "l1"; "l2"; "0-1-2" ]);
      ("kws", -1, [ "l1"; "l2" ]);
    ]

(* The journal-header path of replay/undo recovery: a scenario's query,
   written out by to_args and parsed back by of_args, rebuilds an engine
   whose answer on the base graph equals the original's. *)
let test_spec_round_trip () =
  let rng = Random.State.make [| 0x5e; 1 |] in
  List.iter
    (fun (s : Sc.t) ->
      let cls, bound, args = Sp.to_args s.Sc.spec in
      match Sp.of_args ~cls ~bound ~args with
      | Error e -> Alcotest.failf "%s: %s" s.Sc.name e
      | Ok spec ->
          check Alcotest.string
            (s.Sc.name ^ ": same answer")
            ((s.Sc.make ()).O.answer ())
            ((Sp.make s.Sc.base spec).O.answer ()))
    (Sc.all ~rng ())

(* Batches that touch one edge twice: an absent edge inserted then deleted,
   and an edge inside a strongly connected component deleted then
   re-inserted. Each leaves the graph as it was. *)
let bounce_chunks rng g =
  let n = Digraph.n_nodes g in
  let rec absent k =
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if Digraph.mem_edge g u v && k > 0 then absent (k - 1) else (u, v)
  in
  let comp = Array.make n (-1) in
  List.iteri
    (fun i ms -> List.iter (fun v -> comp.(v) <- i) ms)
    (Ig_scc.Tarjan.scc g);
  let edges = Digraph.edges g in
  let present =
    match List.filter (fun (u, v) -> comp.(u) = comp.(v)) edges with
    | [] -> edges
    | intra -> intra
  in
  let au, av = absent 100 in
  [ [ Digraph.Insert (au, av); Digraph.Delete (au, av) ] ]
  @
  match present with
  | [] -> []
  | _ ->
      let i = Random.State.int rng (List.length present) in
      let u, v = List.nth present i in
      [ [ Digraph.Delete (u, v); Digraph.Insert (u, v) ] ]

(* The items of a canonical answer ({!A}): "{a b}" lists them between
   spaces, "[..][..]" as bracketed groups. *)
let items canon =
  let n = String.length canon in
  if n > 0 && canon.[0] = '{' then
    String.split_on_char ' ' (String.sub canon 1 (n - 2))
    |> List.filter (( <> ) "")
  else String.split_on_char ']' canon |> List.filter (( <> ) "")

(* The batch face: every scenario's oracle, driven through [apply_batch]
   in chunks of 8 stream updates, with the full differential and metrics
   checks after each chunk, and ΔO's sizes checked against the items that
   entered and left the canonical answer. Every third chunk is
   followed by [bounce_chunks]. A replica updated by [Digraph.apply_batch]
   pins the batch semantics: the engine's graph must equal it after every
   chunk, whatever the order of updates to one edge. [Spec.make] works on a
   copy, so the scenario's base graph must come out untouched. *)
let test_spec_apply_batch () =
  let digest = Ig_journal.Journal.graph_digest in
  let rng = Random.State.make [| 0xba7c; 8 |] in
  List.iter
    (fun (s : Sc.t) ->
      let name = s.Sc.name in
      let before = digest s.Sc.base in
      let inst = s.Sc.make () in
      let replica = Digraph.copy inst.O.graph in
      let stream =
        St.create
          ~rng:(Random.State.make [| 0xba7c; 9 |])
          ~focus:s.Sc.focus inst.O.graph
      in
      let prev = ref (Ig_obs.Obs.counters inst.O.obs) in
      let run chunk us =
        match
          let before = items (inst.O.answer ()) in
          let d = inst.O.apply_batch us in
          let after = items (inst.O.answer ()) in
          let gone = List.filter (fun x -> not (List.mem x after)) before in
          let came = List.filter (fun x -> not (List.mem x before)) after in
          if d <> (List.length came, List.length gone) then
            raise
              (O.Check_failed
                 (Printf.sprintf "ΔO sizes %s, answer gained %d and lost %d"
                    (inst.O.delta_line d) (List.length came)
                    (List.length gone)));
          Digraph.apply_batch replica us;
          O.check inst;
          prev := O.check_metrics ~prev:!prev inst;
          if digest inst.O.graph <> digest replica then
            raise (O.Check_failed "graph differs from Digraph.apply_batch")
        with
        | () -> ()
        | exception O.Check_failed msg ->
            Alcotest.failf "%s: chunk %s: %s" name chunk msg
      in
      for chunk = 1 to 12 do
        run (string_of_int chunk) (List.init 8 (fun _ -> St.next stream));
        if chunk mod 3 = 0 then
          List.iteri
            (fun i us -> run (Printf.sprintf "%d bounce %d" chunk i) us)
            (bounce_chunks rng inst.O.graph)
      done;
      check Alcotest.string (name ^ ": base graph untouched") before
        (digest s.Sc.base))
    (Sc.all ~rng ())

(* The durable path reports no stale ΔO: every scenario commits batches
   through [Durable.client_of] and undoes two of them, after which an
   empty [apply_batch] must report |ΔO| = 0. ΔO that the durable path left
   unreported would surface here as the empty batch's own changes. *)
let test_durable_no_stale_delta () =
  let rng = Random.State.make [| 0x57a1e; 1 |] in
  List.iter
    (fun (s : Sc.t) ->
      let name = s.Sc.name in
      let inst = s.Sc.make () in
      let store =
        Ig_journal.Store.init ~dir:("durable_stale_" ^ name)
          ~header:(Sp.header (Sp.to_args s.Sc.spec) s.Sc.base)
          ~client:(Ig_check.Durable.client_of inst) ()
      in
      let stream =
        St.create
          ~rng:(Random.State.make [| 0x57a1e; 2 |])
          ~focus:s.Sc.focus inst.O.graph
      in
      for _ = 1 to 12 do
        ignore
          (Ig_journal.Store.do_batch store
             (List.init 4 (fun _ -> St.next stream)))
      done;
      (match Ig_journal.Store.undo store ~k:2 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: undo: %s" name e);
      Ig_journal.Store.close store;
      O.check inst;
      let d = inst.O.apply_batch [] in
      check
        Alcotest.(pair int int)
        (Printf.sprintf "%s: empty batch ΔO (%s)" name (inst.O.delta_line d))
        (0, 0) d)
    (List.filter
       (fun (s : Sc.t) -> s.Sc.name <> "gadget")
       (Sc.all ~rng ()))

let () =
  Alcotest.run "ig_check"
    [
      ("differential fuzz", scenario_cases);
      ("differential fuzz csr", scenario_cases_csr);
      ("durable fuzz", durable_cases);
      ("durable fuzz csr", durable_cases_csr);
      ( "stream driver",
        [
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "op mix" `Quick test_stream_mixes_ops;
        ] );
      ("ddmin", [ Alcotest.test_case "pure shrink" `Quick test_ddmin_pure ]);
      ( "mutation",
        [
          Alcotest.test_case "kdist corruption detected" `Quick
            test_mutation_kdist_detected;
          Alcotest.test_case "buggy engine shrunk" `Quick
            test_mutation_buggy_engine_shrinks;
        ] );
      ( "replay",
        [ Alcotest.test_case "clean replay" `Quick test_clean_replay_passes ]
      );
      ( "spec",
        [
          Alcotest.test_case "malformed patterns are errors" `Quick
            test_spec_bad_patterns;
          Alcotest.test_case "args round-trip" `Quick test_spec_round_trip;
          Alcotest.test_case "apply_batch matches batch rerun" `Quick
            test_spec_apply_batch;
          Alcotest.test_case "durable path leaves no stale ΔO" `Quick
            test_durable_no_stale_delta;
        ] );
    ]
