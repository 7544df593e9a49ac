(* incgraph — command-line front end.

   Subcommands:
     generate   produce a synthetic labeled graph (profiles of Section 6)
     query      answer one query with the batch algorithm
     stream     maintain a query incrementally over a random update stream
                (with an optional flight recorder + SLO tracker armed)
     top        ASCII dashboard over a stream --metrics-out directory
     fuzz       differential soak: incremental engines vs batch oracles
     stats      cost-accounting snapshot of one incremental session
     explain    per-update AFF provenance with the paper-rule histogram
     lint       determinism & instrumentation linter over the repo sources
     journal    inspect or grow a journaled session directory (WAL + snapshots)
     replay     crash-recover a journaled session (newest snapshot + tail)
     snapshot   write a certificate snapshot at the current tip
     undo       roll back the last N update batches (compensating append)

   Incremental-vs-batch timing reports and their regression comparison
   are bench/main.exe and bench/compare.exe.

   Examples:
     incgraph generate -p dbpedia -s 0.1 -o kg.txt
     incgraph query -g kg.txt rpq 'l1 . l2* . l3'
     incgraph query -g kg.txt kws -b 2 actor award
     incgraph query -g kg.txt scc
     incgraph stream -g kg.txt --batches 5 --size 500 kws -b 2 actor award
     incgraph stream -g kg.txt --metrics-out m --slo slo.cfg scc
     incgraph top m
     incgraph fuzz --algo scc --steps 5000 --seed 2017
     incgraph stats -g kg.txt --json kws -b 2 actor award
     incgraph explain -g kg.txt --batches 2 --limit=-1 scc
     incgraph explain --gadget 4
     incgraph journal sess rpq 'l1 . l2*' --init -g kg.txt --apply +3-7
     incgraph replay sess --check
     incgraph undo sess -k 2
     incgraph replay sess --as-of 1 *)

open Cmdliner

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---- common arguments --------------------------------------------------- *)

let graph_arg =
  let doc = "Graph file in the incgraph text format (see Core.Io)." in
  Arg.(required & opt (some file) None & info [ "g"; "graph" ] ~doc ~docv:"FILE")

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 2017 & info [ "seed" ] ~doc ~docv:"N")

(* Numeric flags whose zero or negative values the library rejects by
   assertion are checked here instead, as usage errors. *)
let checked_conv what ok of_string pp =
  let parse s =
    match of_string s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "%S is not a %s" s what))
  in
  Arg.conv (parse, pp)

let pos_int =
  checked_conv "positive integer" (fun n -> n > 0) int_of_string_opt
    Format.pp_print_int

let nonneg_float =
  checked_conv "non-negative number" (fun x -> x >= 0.) float_of_string_opt
    Format.pp_print_float

(* Every graph file the CLI reads goes through here: a malformed or
   unreadable file is a usage error naming the file (and, for a parse
   error, the line), not an uncaught exception. [k] runs on the loaded
   graph; with [announce], its size is printed first. *)
let with_graph ?(announce = false) path k =
  match Core.Io.load path with
  | exception (Failure msg | Sys_error msg) ->
      let prefix = "Io.read: " in
      let n = String.length prefix in
      let msg =
        if String.starts_with ~prefix msg then
          String.sub msg n (String.length msg - n)
        else msg
      in
      `Error (false, path ^ ": " ^ msg)
  | g ->
      if announce then
        Format.printf "loaded %s: %d nodes, %d edges@." path
          (Core.Digraph.n_nodes g)
          (Core.Digraph.n_edges g);
      k g

(* The Fig. 9 gadget needs two cycles of at least two nodes each. *)
let with_gadget n k =
  if n >= 2 then k (Core.Theory.Gadget.make ~cycle:n)
  else `Error (false, Printf.sprintf "--gadget %d: cycle must be >= 2" n)

(* ---- generate ------------------------------------------------------------ *)

let profile_conv =
  let parse = function
    | "dbpedia" -> Ok Core.Workload.Profiles.dbpedia_like
    | "livej" -> Ok Core.Workload.Profiles.livej_like
    | "synthetic" -> Ok Core.Workload.Profiles.synthetic
    | s -> Error (`Msg (Printf.sprintf "unknown profile %S" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf p.Core.Workload.Profiles.name)

let generate_cmd =
  let profile =
    Arg.(
      value
      & opt profile_conv Core.Workload.Profiles.synthetic
      & info [ "p"; "profile" ] ~doc:"Profile: dbpedia, livej or synthetic."
          ~docv:"NAME")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "s"; "scale" ] ~doc:"Scale factor for the profile." ~docv:"X")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~doc:"Output file." ~docv:"FILE")
  in
  let gadget =
    Arg.(
      value
      & opt (some int) None
      & info [ "gadget" ]
          ~doc:
            "Write the Fig. 9 unboundedness gadget with N-node cycles \
             instead of a profile graph, printing its RPQ query and the \
             Δ1/Δ2 bridge insertions."
          ~docv:"N")
  in
  let run profile scale out seed gadget =
    match gadget with
    | Some n ->
        with_gadget n @@ fun gd ->
        Core.Io.save out gd.Core.Theory.Gadget.graph;
        let edge = function
          | Core.Digraph.Insert (u, v) | Core.Digraph.Delete (u, v) ->
              Printf.sprintf "+%d-%d" u v
        in
        Format.printf "wrote %s: Fig. 9 gadget, %d nodes, %d edges@." out
          (Core.Digraph.n_nodes gd.Core.Theory.Gadget.graph)
          (Core.Digraph.n_edges gd.Core.Theory.Gadget.graph);
        Format.printf "query: %s@.Δ1: %s  Δ2: %s@."
          (Core.Regex.to_string gd.Core.Theory.Gadget.query)
          (edge gd.Core.Theory.Gadget.delta1)
          (edge gd.Core.Theory.Gadget.delta2);
        `Ok ()
    | None ->
        let rng = Random.State.make [| seed |] in
        let g =
          Core.Workload.Profiles.instantiate ~scale ~rng profile
        in
        Core.Io.save out g;
        Format.printf "wrote %s: %d nodes, %d edges, %d labels@." out
          (Core.Digraph.n_nodes g) (Core.Digraph.n_edges g)
          (Core.Interner.size (Core.Digraph.interner g));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic labeled graph.")
    Term.(
      ret (const run $ profile $ scale $ out $ seed_arg $ gadget))

(* ---- query class arguments ------------------------------------------------ *)

module Spec = Core.Check.Spec
module Oracle = Core.Check.Oracle

let cls_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CLASS" ~doc:"Query class: kws, rpq, scc, sim or iso.")

let qargs_arg =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"QUERY"
       ~doc:"Query arguments (keywords, regex, or pattern labels/edges).")

let bound_arg =
  Arg.(value & opt int 2 & info [ "b"; "bound" ] ~doc:"KWS hop bound." ~docv:"B")

(* A malformed query is a usage error. *)
let spec_of ~cls ~bound ~args =
  match Spec.of_args ~cls ~bound ~args with
  | Ok spec -> `Ok spec
  | Error e -> `Error (false, e)

let spec_arg =
  Term.(
    ret
      (const (fun cls bound args -> spec_of ~cls ~bound ~args)
      $ cls_arg $ bound_arg $ qargs_arg))

(* ---- query ----------------------------------------------------------------- *)

let query_cmd =
  let run path spec =
    with_graph ~announce:true path @@ fun g ->
    let line, t = time (fun () -> Spec.run_batch g spec) in
    Format.printf "%s in %.3fs@." line t;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer one query with the batch algorithm.")
    Term.(ret (const run $ graph_arg $ spec_arg))

(* ---- the session loop ------------------------------------------------------ *)

module Obs = Core.Obs
module Trace_export = Obs.Trace_export

(* The one loop behind stream, stats and explain: build the query's
   engine over a copy of [g], then draw [batches] seeded random batches of
   [size] unit updates against the engine's own graph and hand each to
   [step], which applies it to the engine. Returns the engine. *)
let drive ?obs ?ratio g spec ~seed ~batches ~size step =
  let inst = Spec.make ?obs g spec in
  let rng = Random.State.make [| seed |] in
  for round = 1 to batches do
    let ups =
      Core.Workload.Updates.generate ~rng inst.Oracle.graph ~size ?ratio ()
    in
    step inst round ups
  done;
  inst

let batches_arg =
  Arg.(
    value & opt int 5
    & info [ "batches" ] ~doc:"Update batches to apply." ~docv:"N")

let size_arg =
  Arg.(
    value & opt int 100
    & info [ "size" ] ~doc:"Unit updates per batch." ~docv:"N")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit machine-readable json instead of text.")

(* ---- stream / top ---------------------------------------------------------- *)

let stream_cmd =
  let ratio =
    Arg.(
      value & opt nonneg_float 1.0
      & info [ "ratio" ] ~doc:"Insert/delete ratio ρ." ~docv:"R")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:
            "Run the flight recorder: append one line per snapshot to the \
             metrics.jsonl history in $(docv), created if missing. Inspect \
             with $(b,incgraph top)."
          ~docv:"DIR")
  in
  let slo_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "slo" ]
          ~doc:
            "Arm the SLO budgets in $(docv) — lines of NAME SOURCE LIMIT \
             [trip=K] [clear=K] with SOURCE one of p99:H, p50:H, \
             ratio:A/B, gauge:G, counter:C. Trips emit Slo_violation trace \
             events and a final summary line."
          ~docv:"CFG")
  in
  let every_arg =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "snapshot-every" ]
          ~doc:
            "Flight-recorder cadence in applied unit updates (default: one \
             snapshot per batch)."
          ~docv:"N")
  in
  let retain_arg =
    Arg.(
      value & opt pos_int 32
      & info [ "retain" ]
          ~doc:
            "Snapshots kept in metrics.jsonl: the file is compacted to the \
             newest $(docv) lines whenever it doubles."
          ~docv:"N")
  in
  let det_arg =
    Arg.(
      value & flag
      & info [ "deterministic-metrics" ]
          ~doc:
            "Drop clock- and GC-derived series from the snapshots so two \
             runs of the same update sequence write byte-identical \
             metrics.jsonl files.")
  in
  let run path spec batches size ratio seed metrics_out slo_cfg every
      retain det =
    let slo =
      match slo_cfg with
      | None -> Ok None
      | Some p -> (
          match
            Obs.Slo.of_config (In_channel.with_open_text p In_channel.input_all)
          with
          | Ok rules -> Ok (Some (Obs.Slo.create rules))
          | Error e -> Error (Printf.sprintf "%s: %s" p e))
    in
    match slo with
    | Error e -> `Error (false, e)
    | Ok slo ->
        with_graph ~announce:true path @@ fun g ->
        let o =
          if Option.is_some slo || Option.is_some metrics_out then
            Obs.create ~events:Obs.default_events ()
          else Obs.create ()
        in
        let flight =
          Option.map
            (fun dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let every = match every with Some n -> n | None -> max 1 size in
              ( Obs.Flight.create ~every ~retain ~deterministic:det ?slo ~dir
                  ~obs:o (),
                every ))
            metrics_out
        in
        let inst =
          drive ~obs:o ~ratio g spec ~seed ~batches ~size
            (fun inst round ups ->
              let d_o, t = time (fun () -> inst.Oracle.apply_batch ups) in
              (match flight with
              | Some (fr, _) -> List.iter (fun _ -> Obs.Flight.tick fr) ups
              | None ->
                  Option.iter
                    (fun s -> ignore (Obs.Slo.evaluate s ~obs:o))
                    slo);
              Format.printf "round %d: |ΔG|=%d  %s  (%.3fs)@." round
                (List.length ups) (inst.Oracle.delta_line d_o) t)
        in
        Format.printf "final: %s@." (inst.Oracle.describe ());
        Option.iter
          (fun (fr, every) ->
            (* Capture the final state unless the cadence just did. *)
            if Obs.Flight.snapshots fr = 0 || Obs.Flight.updates fr mod every <> 0
            then Obs.Flight.snapshot fr;
            Format.printf "metrics: %d snapshot(s) over %d update(s) -> %s@."
              (Obs.Flight.snapshots fr) (Obs.Flight.updates fr)
              (Obs.Flight.dir fr))
          flight;
        Option.iter
          (fun s ->
            let tripped = Obs.Slo.tripped s in
            Format.printf "SLO violations: %d%s@." (Obs.Slo.violations s)
              (if tripped = [] then ""
               else " (tripped: " ^ String.concat ", " tripped ^ ")"))
          slo;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Maintain a query incrementally over a random update stream. With \
          $(b,--metrics-out), snapshot the engine's metrics registry into \
          a flight-recorder history on a logical (update-count) cadence; \
          with $(b,--slo), evaluate declarative cost budgets at each \
          snapshot and report violations.")
    Term.(
      ret
        (const run $ graph_arg $ spec_arg $ batches_arg
       $ size_arg $ ratio $ seed_arg $ metrics_out $ slo_arg $ every_arg
       $ retain_arg $ det_arg))

(* `incgraph top` — one-shot ASCII dashboard over a flight-recorder
   directory, read off the last two lines of its metrics.jsonl history:
   the newest snapshot's counters with their change since the one before,
   gauges, spans, histogram quantiles and SLO state. Reads only what
   stream wrote. *)
let top_cmd =
  let module J = Obs.Json in
  let dir_pos =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:"Flight-recorder directory (from stream --metrics-out).")
  in
  (* The fields of object [k] of snapshot [j]'s metrics. *)
  let section k j =
    Option.bind (J.member "metrics" j) (J.member k)
    |> Fun.flip Option.bind J.to_obj_opt
    |> Option.value ~default:[]
  in
  let get conv k j = Option.bind (J.member k j) conv in
  let int j = Option.value ~default:0 (J.to_int_opt j) in
  (* A headed block of rows, left out when there are none. *)
  let block head row = function
    | [] -> ()
    | xs ->
        Format.printf "@.  %s@." head;
        List.iter row xs
  in
  let print dir now prev hists =
    Format.printf "incgraph top: %s%s@." dir
      (match (get J.to_int_opt "seq" now, get J.to_int_opt "updates" now) with
      | Some s, Some u -> Printf.sprintf " — snapshot %d after %d update(s)" s u
      | _ -> "");
    let before = Option.fold ~none:[] ~some:(section "counters") prev in
    block
      (Printf.sprintf "%-44s %14s %12s" "counter" "total" "Δ last")
      (fun (k, v) ->
        Format.printf "  %-44s %14d %12s@." k (int v)
          (match List.assoc_opt k before with
          | Some p -> Printf.sprintf "%+d" (int v - int p)
          | None -> "-"))
      (section "counters" now);
    block
      (Printf.sprintf "%-44s %14s" "gauge" "value")
      (fun (k, v) -> Format.printf "  %-44s %14d@." k (int v))
      (section "gauges" now);
    block
      (Printf.sprintf "%-44s %14s %12s" "span" "calls" "seconds")
      (fun (k, v) ->
        Format.printf "  %-44s %14d %12s@." k
          (Option.fold ~none:0 ~some:int (J.member "count" v))
          (match get J.to_float_opt "seconds" v with
          | Some s -> Printf.sprintf "%.4g" s
          | None -> "-"))
      (section "spans" now);
    block
      (Printf.sprintf "%-32s %10s %12s %11s %11s" "histogram" "count" "sum"
         "p50" "p99")
      (fun (k, h) ->
        Format.printf "  %-32s %10d %12.4g %11.3g %11.3g@." k
          (Obs.Histogram.count h) (Obs.Histogram.sum h) (Obs.Histogram.p50 h)
          (Obs.Histogram.p99 h))
      hists;
    let slo_rows =
      match J.member "slo" now with
      | Some (J.Arr rules) ->
          List.filter_map
            (fun r ->
              let num k = get J.to_float_opt k r in
              match (get J.to_str_opt "rule" r, num "value", num "limit") with
              | Some n, Some v, Some l ->
                  Some
                    ( n,
                      v,
                      l,
                      J.member "tripped" r = Some (J.Bool true),
                      Option.fold ~none:0 ~some:int (J.member "trips" r) )
              | _ -> None)
            rules
      | _ -> []
    in
    block
      (Printf.sprintf "%-24s %12s %12s %8s %6s" "slo rule" "value" "limit"
         "state" "trips")
      (fun (n, v, l, tripped, trips) ->
        Format.printf "  %-24s %12.4g %12.4g %8s %6d@." n v l
          (if tripped then "TRIPPED" else "ok")
          trips)
      slo_rows;
    (* The trips total is the greppable bottom line. *)
    Format.printf "@.SLO violations: %d@."
      (List.fold_left (fun a (_, _, _, _, t) -> a + t) 0 slo_rows)
  in
  let run dir =
    let path = Filename.concat dir "metrics.jsonl" in
    let fail e = `Error (false, Printf.sprintf "%s: %s" path e) in
    let lines =
      if not (Sys.file_exists path) then []
      else
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
        |> List.rev
    in
    let decode acc (k, j) =
      match (acc, Obs.Histogram.of_json j) with
      | Ok hs, Ok h -> Ok ((k, h) :: hs)
      | Ok _, Error e -> Error (Printf.sprintf "histogram %s: %s" k e)
      | (Error _ as e), _ -> e
    in
    match lines with
    | [] -> fail "no snapshot (run incgraph stream --metrics-out DIR first)"
    | last :: rest -> (
        match J.parse last with
        | Error e -> fail e
        | Ok now -> (
            let prev =
              Option.bind (List.nth_opt rest 0) (fun l ->
                  Result.to_option (J.parse l))
            in
            match List.fold_left decode (Ok []) (section "histograms" now) with
            | Error e -> fail e
            | Ok hists ->
                print dir now prev (List.rev hists);
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "ASCII dashboard over a flight-recorder directory written by \
          $(b,incgraph stream --metrics-out), read from the last two \
          snapshots of its metrics.jsonl history: counters with their \
          change since the previous snapshot, gauges, spans, histogram \
          p50/p99 and the armed SLO budgets with their trip state. \
          One-shot and read-only.")
    Term.(ret (const run $ dir_pos))

(* ---- stats ----------------------------------------------------------------- *)

let apply_each inst _ ups = ignore (inst.Oracle.apply_batch ups)

let stats_cmd =
  let histo =
    Arg.(
      value & flag
      & info [ "histogram" ]
          ~doc:
            "Also print the per-batch latency and GC/allocation histograms \
             (ASCII bars, one row per non-empty bucket).")
  in
  let run path spec batches size seed json histo =
    with_graph path @@ fun g ->
    let inst =
      drive ~obs:(Obs.create ()) g spec ~seed ~batches ~size apply_each
    in
    let o = inst.Oracle.obs in
    if json then
      print_endline (Obs.Json.to_string ~indent:true (Obs.to_json o))
    else begin
      Format.printf "%s after %d batches of %d unit updates:@."
        inst.Oracle.series batches size;
      List.iter
        (fun (k, v) -> Format.printf "  %-16s %10d@." k v)
        (Obs.counters o);
      List.iter
        (fun (k, (n, s)) ->
          Format.printf "  span %-11s %10d calls %9.4fs@." k n s)
        (Obs.spans o);
      let aff = Obs.counter o Obs.K.aff in
      let changed = Obs.counter o Obs.K.changed in
      if changed > 0 then
        Format.printf "  |AFF| / |CHANGED| = %.2f@."
          (float_of_int aff /. float_of_int changed);
      if histo then
        List.iter
          (fun (name, h) ->
            Format.printf "@.  histogram %s:@.    @[<v>%a@]@." name
              Obs.Histogram.pp h)
          (Obs.histograms o)
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Drive one incremental session over a random update stream and dump \
          its metrics registry: cost counters (measured |AFF|, |CHANGED|, \
          work counters), span timings and — with $(b,--histogram) — the \
          per-batch latency and GC histograms, as text or json.")
    Term.(
      ret
        (const run $ graph_arg $ spec_arg $ batches_arg
       $ size_arg $ seed_arg $ json_flag $ histo))

(* ---- explain --------------------------------------------------------------- *)

(* Print each batch's event log: the events are cleared before every
   batch, so the first one does not carry the engine's init events. *)
let explain_batch ~limit name inst ups =
  Obs.clear_events inst.Oracle.obs;
  let added, removed = inst.Oracle.apply_batch ups in
  Format.printf "@.== %s ==@.%a@." (name (added + removed))
    (Trace_export.pp_explain ~limit)
    (Obs.events inst.Oracle.obs)

(* Worked explanation of the Figure 9 gadget: Δ1 is output-silent yet the
   trace shows Ω(cycle) settling work; Δ2 flips the whole answer on. *)
let explain_gadget n limit gd =
  let inst =
    Spec.make gd.Core.Theory.Gadget.graph
      (Spec.Rpq gd.Core.Theory.Gadget.query)
  in
  let explain title u =
    explain_batch ~limit
      (fun d_o -> Printf.sprintf "%s: |ΔO| = %d" title d_o)
      inst [ u ]
  in
  Format.printf
    "Figure 9 gadget, cycle length %d (two disjoint cycles + sink):@." n;
  explain "Δ1 (bridge the cycles — output stays empty)"
    gd.Core.Theory.Gadget.delta1;
  explain "Δ2 (connect to the sink — every v-node now matches)"
    gd.Core.Theory.Gadget.delta2

let explain_cmd =
  let gadget =
    Arg.(
      value
      & opt (some int) None
      & info [ "gadget" ]
          ~doc:
            "Explain the Figure 9 two-cycle gadget of cycle length $(docv) \
             instead of a graph/class run (no other arguments needed)."
          ~docv:"N")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ]
          ~doc:
            "Events to print per update batch; negative prints all. Write a \
             negative value as $(b,--limit=-1): after a space, -1 reads as \
             an option."
          ~docv:"N")
  in
  let graph_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "g"; "graph" ]
          ~doc:"Graph file in the incgraph text format (see Core.Io)."
          ~docv:"FILE")
  in
  let cls_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"CLASS" ~doc:"Query class: kws, rpq, scc, sim or iso.")
  in
  let run gadget limit path cls bound args batches size seed =
    match gadget with
    | Some n ->
        with_gadget n @@ fun gd ->
        explain_gadget n limit gd;
        `Ok ()
    | None -> (
        match (path, cls) with
        | None, _ | _, None ->
            `Error
              (false, "need either --gadget N or a graph (-g) and a CLASS")
        | Some path, Some cls -> (
            match spec_of ~cls ~bound ~args with
            | `Error _ as e -> e
            | `Ok spec ->
                with_graph path @@ fun g ->
                ignore
                  (drive g spec ~seed ~batches ~size
                     (fun inst round ups ->
                       explain_batch ~limit
                         (fun _ ->
                           Printf.sprintf "%s batch %d (|ΔG| = %d)"
                             inst.Oracle.series round (List.length ups))
                         inst ups));
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Per-update AFF provenance: apply update batches with tracing on \
          and print, for each batch, which rules of the paper's algorithms \
          put nodes into AFF (rule histogram), which certificate fields were \
          rewritten, and the event log. With $(b,--gadget), runs the Figure \
          9 two-cycle counterexample instead: Δ1 is output-silent yet \
          traces Ω(n) settling work, Δ2 then flips the answer on.")
    Term.(
      ret
        (const run $ gadget $ limit $ graph_opt $ cls_opt
       $ bound_arg $ qargs_arg $ batches_arg $ size_arg $ seed_arg))

(* ---- lint ----------------------------------------------------------------- *)

let lint_cmd =
  let module L = Core.Lint in
  let root_arg =
    Arg.(
      value & pos 0 dir "."
      & info [] ~docv:"ROOT"
          ~doc:"Repository root to lint (bench/, bin/, lib/, test/ under it).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~doc:"Also write the json report to $(docv)."
          ~docv:"FILE")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Fail on warnings too, not just on errors: the gate for a \
             clean tree.")
  in
  let run root json out strict =
    let r = L.run ~root in
    let report = L.report_to_json r in
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              (Core.Obs.Json.to_string ~indent:true report);
            Out_channel.output_char oc '\n'))
      out;
    if json then print_endline (Core.Obs.Json.to_string ~indent:true report)
    else begin
      List.iter (Format.printf "%a@." L.pp_diagnostic) r.L.diagnostics;
      Format.printf "lint: %d file(s), %d finding(s), %d suppressed@."
        r.L.files_scanned
        (List.length r.L.diagnostics)
        r.L.suppressed
    end;
    let failing =
      if strict then r.L.diagnostics
      else List.filter (fun d -> d.L.severity = L.Error) r.L.diagnostics
    in
    if failing <> [] then
      `Error
        (false, Printf.sprintf "%d lint finding(s)" (List.length failing))
    else `Ok ()
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Determinism & instrumentation linter: a parse-only static-analysis \
          pass over the repo's OCaml sources enforcing the discipline behind \
          the engines' cross-hash-seed determinism — no polymorphic compare \
          or hash in engine modules (D1), no unordered Hashtbl \
          iteration outside the sorted helpers unless annotated with \
          [@lint.allow] (D2), no ambient randomness or wall-clock reads in \
          lib/ outside lib/obs (D3), Obs.with_apply-wrapped and rule-tagged \
          update entry points in every engine (D4), an .mli for every \
          lib/ module (D5), and Obs.K names rather than string literals \
          for the counter, gauge and histogram probes in lib/ (D6). Exits \
          non-zero on errors (and on warnings under $(b,--strict)).")
    Term.(
      ret
        (const run $ root_arg $ json_flag $ out_arg $ strict_arg))

(* ---- fuzz ----------------------------------------------------------------- *)

let fuzz_cmd =
  let module C = Core.Check in
  let algo =
    Arg.(
      value & opt string "all"
      & info [ "algo" ]
          ~doc:"Scenario: kws, rpq, scc, sim, iso, gadget or all." ~docv:"NAME")
  in
  let steps =
    Arg.(
      value & opt int 1000
      & info [ "steps" ] ~doc:"Unit updates per scenario." ~docv:"N")
  in
  let nodes =
    Arg.(
      value
      & opt int C.Scenarios.default_size.C.Scenarios.nodes
      & info [ "nodes" ] ~doc:"Base graph node count." ~docv:"N")
  in
  let edges =
    Arg.(
      value
      & opt int C.Scenarios.default_size.C.Scenarios.edges
      & info [ "edges" ] ~doc:"Base graph edge count." ~docv:"N")
  in
  let labels =
    Arg.(
      value
      & opt int C.Scenarios.default_size.C.Scenarios.labels
      & info [ "labels" ] ~doc:"Base graph label alphabet size." ~docv:"N")
  in
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "out-dir" ]
          ~doc:"Directory for failure reproduction artifacts." ~docv:"DIR")
  in
  let run algo steps nodes edges labels out_dir seed =
    let size : C.Scenarios.size = { nodes; edges; labels } in
    let rng = Random.State.make [| seed |] in
    let scenarios =
      if algo = "all" then Ok (C.Scenarios.all ~rng ~size ())
      else
        match C.Scenarios.by_name ~rng ~size algo with
        | Some s -> Ok [ s ]
        | None -> Error (Printf.sprintf "unknown fuzz scenario %S" algo)
    in
    match scenarios with
    | Error e -> `Error (false, e)
    | Ok scenarios ->
        let failed = ref false in
        List.iter
          (fun (s : C.Scenarios.t) ->
            Format.printf
              "fuzz %-6s seed %d: %d steps against batch oracle...@?"
              s.C.Scenarios.name seed steps;
            let result, t =
              time (fun () ->
                  C.Harness.run ~make:s.C.Scenarios.make
                    ~focus:s.C.Scenarios.focus ~steps ~seed ())
            in
            match result with
            | Ok n -> Format.printf " ok (%d steps, %.2fs)@." n t
            | Error f ->
                failed := true;
                Format.printf " FAILED@.%a@." C.Harness.pp_failure f;
                let gpath, upath, epath, jpath =
                  C.Harness.save_failure ~dir:out_dir ~base:s.C.Scenarios.base
                    ~spec:s.C.Scenarios.spec f
                in
                Format.printf "artifacts: %s, %s%s%s@." gpath upath
                  (match epath with
                  | Some p -> ", " ^ p
                  | None -> "")
                  (match jpath with
                  | Some p -> ", " ^ p ^ " (incgraph replay)"
                  | None -> ""))
          scenarios;
        if !failed then `Error (false, "fuzzing found failures (see above)")
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential soak: drive every incremental engine through a seeded \
          random update stream, cross-checking answers and certificates \
          against batch recomputation after each unit update; failures are \
          ddmin-shrunk to minimal reproducers.")
    Term.(
      ret
        (const run $ algo $ steps $ nodes $ edges $ labels $ out_dir
       $ seed_arg))

(* ---- journal / replay / snapshot / undo ------------------------------------ *)

module J = Core.Journal

let jdigest = J.Log.digest_hex

let dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Journaled session directory.")

let update_of_spec s =
  let bad () = Error (Printf.sprintf "bad update %S (want +U-V or -U-V)" s) in
  if String.length s < 2 then bad ()
  else
    match s.[0] with
    | ('+' | '-') as sign -> (
        match
          String.split_on_char '-' (String.sub s 1 (String.length s - 1))
        with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some u, Some v ->
                Ok
                  (if sign = '+' then Core.Digraph.Insert (u, v)
                   else Core.Digraph.Delete (u, v))
            | _ -> bad ())
        | _ -> bad ())
    | _ -> bad ()

(* A comma-separated batch spec, e.g. +0-1,-2-3, is one journaled batch;
   a malformed element is a usage error. Parses to the spec and its
   updates. *)
let batch_spec =
  let parse s =
    List.fold_right
      (fun e acc ->
        match (update_of_spec e, acc) with
        | Ok u, Ok (_, us) -> Ok (s, u :: us)
        | Error e, _ -> Error (`Msg e)
        | _, (Error _ as err) -> err)
      (String.split_on_char ',' s)
      (Ok (s, []))
  in
  Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)

(* Recover a store from DIR: plan, rebuild the engine the header names
   over the planned snapshot's graph (falling back to a graph-only client
   when the header's query does not parse), replay, attach. *)
let attach_store ?as_of ?(from_scratch = false) ~dir () =
  match J.Store.plan ?as_of ~from_scratch ~dir () with
  | Error e -> Error e
  | Ok plan ->
      let base = J.Snapshot.graph plan.J.Store.snapshot in
      let h = plan.J.Store.header in
      let inst =
        Spec.of_args ~cls:h.J.Record.cls ~bound:h.J.Record.bound
          ~args:h.J.Record.qargs
        |> Result.to_option
        |> Option.map (Spec.make base)
      in
      let client =
        match inst with
        | Some i -> Core.Check.Durable.client_of i
        | None -> J.Store.graph_client base
      in
      Result.map
        (fun store -> (store, plan, inst, base))
        (J.Store.attach ~dir ~plan ~client ())

let kind_str = function
  | J.Record.Do -> "do"
  | J.Record.Undo k -> Printf.sprintf "undo(%d)" k

let short d = if String.length d >= 8 then String.sub d 0 8 else d

let journal_cmd =
  let init_flag =
    Arg.(
      value & flag
      & info [ "init" ]
          ~doc:
            "Create DIR with snapshot-0 of the graph given by $(b,-g) and a \
             fresh journal headed by CLASS/QUERY.")
  in
  let graph_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "g"; "graph" ] ~doc:"Base graph file (with --init)." ~docv:"FILE")
  in
  let cls_opt =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"CLASS" ~doc:"Query class (with --init).")
  in
  let qargs_opt = Arg.(value & pos_right 1 string [] & info [] ~docv:"QUERY") in
  let apply_specs =
    Arg.(
      value & opt_all batch_spec []
      & info [ "apply" ]
          ~doc:"Journal and apply one update batch, e.g. +3-7, -0-2 or \
                +0-1,-2-3 (comma-separated updates form one batch). \
                Repeatable; each spec is its own batch."
          ~docv:"SPEC")
  in
  let repair_flag =
    Arg.(
      value & flag
      & info [ "repair" ] ~doc:"Truncate a torn journal tail in place.")
  in
  let chop =
    Arg.(
      value
      & opt (some int) None
      & info [ "chop" ]
          ~doc:
            "Crash injection for tests: cut N bytes off the journal file."
          ~docv:"N")
  in
  (* An update naming a node the session's graph lacks is a usage error,
     found before any batch is journaled. Batches add no nodes, so the
     graph the session starts from decides every batch. *)
  let unknown_node g batches =
    let bad (spec, us) =
      List.find_map
        (fun up ->
          let sign, u, v =
            match up with
            | Core.Digraph.Insert (u, v) -> ('+', u, v)
            | Core.Digraph.Delete (u, v) -> ('-', u, v)
          in
          List.find_opt (fun w -> not (Core.Digraph.mem_node g w)) [ u; v ]
          |> Option.map (fun w ->
                 Printf.sprintf
                   "--apply %s: update %c%d-%d names unknown node %d (the \
                    graph has %d nodes)"
                   spec sign u v w (Core.Digraph.n_nodes g)))
        us
    in
    List.find_map bad batches
  in
  let apply_all store batches =
    List.iter
      (fun (spec, us) ->
        match J.Store.do_batch store us with
        | None -> Format.printf "%s: no-op, not journaled@." spec
        | Some b ->
            Format.printf "%s: seq=%d graph=%s@." spec b.J.Record.seq
              (short (J.Store.digest store)))
      batches
  in
  let run dir init graph_file cls bound qargs batches repair chop =
    if init then
      match (graph_file, cls) with
      | None, _ | _, None ->
          `Error (false, "--init needs -g FILE and a CLASS argument")
      | Some file, Some cls -> (
          match Spec.of_args ~cls ~bound ~args:qargs with
          | Error e -> `Error (false, e)
          | Ok spec ->
              with_graph file @@ fun g ->
              match unknown_node g batches with
              | Some e -> `Error (false, e)
              | None ->
                  let store =
                    J.Store.init ~dir
                      ~header:(Spec.header (cls, bound, qargs) g)
                      ~client:
                        (Core.Check.Durable.client_of (Spec.make g spec))
                      ()
                  in
                  Format.printf "initialized %s: class %s, graph %s@." dir cls
                    (short (J.Store.digest store));
                  apply_all store batches;
                  J.Store.close store;
                  `Ok ())
    else if repair then
      match J.Log.repair ~path:(J.Store.journal_path ~dir) with
      | Error e -> `Error (false, e)
      | Ok 0 ->
          Format.printf "journal clean, nothing to repair@.";
          `Ok ()
      | Ok n ->
          Format.printf "dropped %d torn byte(s)@." n;
          `Ok ()
    else
      match chop with
      | Some n ->
          J.Log.chop ~path:(J.Store.journal_path ~dir) n;
          Format.printf "chopped %d byte(s) off %s@." n
            (J.Store.journal_path ~dir);
          `Ok ()
      | None -> (
          if batches <> [] then
            match attach_store ~dir () with
            | Error e -> `Error (false, e)
            | Ok (store, _, _, g) -> (
                match unknown_node g batches with
                | Some e ->
                    J.Store.close store;
                    `Error (false, e)
                | None ->
                    apply_all store batches;
                    J.Store.close store;
                    `Ok ())
          else
            (* Inspect: read-only scan, no engine rebuild. *)
            match J.Log.scan ~path:(J.Store.journal_path ~dir) with
            | Error e -> `Error (false, e)
            | Ok s ->
                let h = s.J.Log.header in
                Format.printf "journal %s: class %s, bound %d, base %s@." dir
                  h.J.Record.cls h.J.Record.bound
                  (short h.J.Record.base_digest);
                List.iter
                  (fun (b : J.Record.batch) ->
                    Format.printf "  seq=%d %s %d op(s): %s@." b.J.Record.seq
                      (kind_str b.J.Record.kind)
                      (List.length b.J.Record.ops)
                      (String.concat ", "
                         (List.map J.Record.op_to_string b.J.Record.ops)))
                  s.J.Log.batches;
                (match s.J.Log.tail with
                | J.Log.Clean ->
                    Format.printf "  tail: clean (%d committed batch(es))@."
                      (List.length s.J.Log.batches)
                | J.Log.Torn { offset; dropped; reason } ->
                    Format.printf
                      "  tail: TORN at byte %d (%d byte(s) dropped): %s@."
                      offset dropped reason);
                (match J.Snapshot.list_seqs ~dir with
                | [] -> Format.printf "  snapshots: none@."
                | seqs ->
                    Format.printf "  snapshots: %s@."
                      (String.concat ", " (List.map string_of_int seqs)));
                `Ok ())
  in
  Cmd.v
    (Cmd.info "journal"
       ~doc:
         "Inspect or grow a journaled session directory: a write-ahead \
          journal of atomic graph ops (length-prefixed, checksummed, \
          torn-tail detecting) plus certificate snapshots.")
    Term.(
      ret
        (const run $ dir_arg $ init_flag $ graph_file $ cls_opt $ bound_arg
       $ qargs_opt $ apply_specs $ repair_flag $ chop))

let as_of_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "as-of" ]
        ~doc:
          "Recover to this sequence number instead of the tip (time travel; \
           the store attaches read-only)."
        ~docv:"N")

let replay_cmd =
  let from_scratch =
    Arg.(
      value & flag
      & info [ "from-scratch" ]
          ~doc:"Ignore newer snapshots and replay the whole journal from \
                snapshot-0.")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After recovery, run the differential oracle: certificate \
             invariants plus incremental-vs-batch answer equality.")
  in
  let run dir as_of from_scratch check =
    match attach_store ?as_of ~from_scratch ~dir () with
    | Error e -> `Error (false, e)
    | Ok (store, plan, inst, _) -> (
        if plan.J.Store.dropped > 0 then
          Format.printf "torn tail: dropped %d byte(s)@." plan.J.Store.dropped;
        Format.printf
          "recovered %s from snapshot-%d: replayed %d batch(es) to seq %d%s@."
          dir (J.Snapshot.seq plan.J.Store.snapshot)
          (List.length plan.J.Store.replay)
          plan.J.Store.cut
          (if J.Store.writable store then "" else " (read-only)");
        Format.printf "graph digest %s@." (J.Store.digest store);
        let finish r =
          J.Store.close store;
          r
        in
        match (check, inst) with
        | false, _ -> finish (`Ok ())
        | true, None ->
            finish
              (`Error
                 (false, "--check: header names no buildable query class"))
        | true, Some i -> (
            match Core.Check.Oracle.check i with
            | () ->
                Format.printf "oracle agrees: answer digest %s@."
                  (jdigest (i.Core.Check.Oracle.answer ()));
                finish (`Ok ())
            | exception Core.Check.Oracle.Check_failed msg ->
                finish (`Error (false, "oracle check failed: " ^ msg))))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Crash-recover a journaled session: pick the newest intact \
          snapshot, rebuild the engine, replay the journal tail with \
          per-batch digest verification.")
    Term.(ret (const run $ dir_arg $ as_of_arg $ from_scratch $ check_flag))

let undo_cmd =
  let k_arg =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~doc:"Number of trailing batches to roll back." ~docv:"N")
  in
  let run dir k =
    match attach_store ~dir () with
    | Error e -> `Error (false, e)
    | Ok (store, _, inst, _) -> (
        match J.Store.undo store ~k with
        | Error e ->
            J.Store.close store;
            `Error (false, e)
        | Ok b ->
            Format.printf "undid %d batch(es): seq=%d graph=%s@." k
              b.J.Record.seq
              (short (J.Store.digest store));
            (match inst with
            | Some i -> (
                match Core.Check.Oracle.check i with
                | () -> Format.printf "oracle agrees after undo@."
                | exception Core.Check.Oracle.Check_failed msg ->
                    Format.printf "WARNING: oracle disagrees: %s@." msg)
            | None -> ());
            J.Store.close store;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "undo"
       ~doc:
         "Roll back the last N update batches by appending a compensating \
          batch (undo of an undo is redo); the rolled-back graph digest is \
          verified byte-for-byte against the journaled pre-state.")
    Term.(ret (const run $ dir_arg $ k_arg))

let snapshot_cmd =
  let run dir =
    match attach_store ~dir () with
    | Error e -> `Error (false, e)
    | Ok (store, _, _, _) ->
        let p = J.Store.snapshot store in
        Format.printf "wrote %s at seq %d@." p (J.Store.tip store);
        J.Store.close store;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Write a certificate snapshot (graph, canonical answer digest and \
          the engine's certificate dump) at the current tip, \
          bounding future recovery replay.")
    Term.(ret (const run $ dir_arg))

let () =
  let info =
    Cmd.info "incgraph" ~version:"1.0.0"
      ~doc:"Incremental graph computations: doable and undoable (SIGMOD'17)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            query_cmd;
            stream_cmd;
            top_cmd;
            fuzz_cmd;
            stats_cmd;
            explain_cmd;
            lint_cmd;
            journal_cmd;
            replay_cmd;
            snapshot_cmd;
            undo_cmd;
          ]))
