(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (Section 6). One target per experiment id:

     fig8a..fig8i   runtime vs |ΔG| (Exp-1), per class and dataset
     fig8j..fig8l   runtime vs query complexity (Exp-2)
     fig8m..fig8p   runtime vs |G| (Exp-3)
     unit_updates   Exp-1(5): unit-update speedups (reported in prose)
     opt_gain       batch-update optimization gain (prose summary)
     rho_sweep      ρ-insensitivity (prose of Exp-1)
     unbounded      Theorem 1 / Fig. 9 empirical unboundedness demo
     sim_delta      graph simulation (the paper's fifth class) vs |ΔG|
     journal        WAL append/undo/snapshot/recovery throughput (lib/journal)
     trav           batch traversal (Tarjan/NFA/kdist) scaling vs |G|;
                    at --scale 20 the top point is a million-node graph
     micro          Bechamel micro-benchmarks, one per figure

   Usage: dune exec bench/main.exe [-- options]
     -e ID[,ID...]   run selected experiments (default: all)
     --scale X       graph scale factor (default 0.25; paper shapes hold
                     across scales, see EXPERIMENTS.md)
     --reps N        repetitions averaged per point (default 1)
     --seed N        RNG seed (default 2017)
     --points N      keep only the first N |ΔG| points per sweep (0 = all;
                     the @bench-gate alias uses this for a fast run)
     --quota S       bechamel time quota per micro-bench (default 0.5s)
     --out PATH      BENCH json output path (default BENCH_incgraph.json)

   Besides the tables printed to stdout, every data point is recorded —
   timings, per-engine Obs counter snapshots (measured |AFF|, |CHANGED|,
   work counters), speedups against the batch baseline, and (schema v2)
   the per-update latency histograms plus GC/allocation deltas the
   engines record through Obs.with_apply — into a schema-versioned json
   report (see lib/obs/report.ml and EXPERIMENTS.md).

   Absolute numbers are not comparable to the paper's (different machine,
   language, graph sizes); the reproduction target is the shape: who wins,
   by what factor, where the crossovers sit. *)

module D = Core.Digraph
module W = Core.Workload

(* ---- configuration ------------------------------------------------------- *)

type config = {
  mutable selected : string list; (* empty = all *)
  mutable scale : float;
  mutable reps : int;
  mutable seed : int;
  mutable points : int; (* 0 = every |ΔG| point *)
  mutable quota : float;
  mutable out : string;
}

let cfg =
  {
    selected = [];
    scale = 0.25;
    reps = 1;
    seed = 2017;
    points = 0;
    quota = 0.5;
    out = "BENCH_incgraph.json";
  }

let parse_args () =
  let rec go = function
    | [] -> ()
    | "-e" :: v :: rest ->
        cfg.selected <- cfg.selected @ String.split_on_char ',' v;
        go rest
    | "--scale" :: v :: rest ->
        cfg.scale <- float_of_string v;
        go rest
    | "--reps" :: v :: rest ->
        cfg.reps <- int_of_string v;
        go rest
    | "--seed" :: v :: rest ->
        cfg.seed <- int_of_string v;
        go rest
    | "--points" :: v :: rest ->
        cfg.points <- int_of_string v;
        go rest
    | "--quota" :: v :: rest ->
        cfg.quota <- float_of_string v;
        go rest
    | "--out" :: v :: rest ->
        cfg.out <- v;
        go rest
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv))

let rng_of_point tag =
  Random.State.make [| cfg.seed; Hashtbl.hash tag |]

module Obs = Core.Obs
module Histogram = Core.Obs.Histogram
module Report = Core.Obs.Report
module Json = Core.Obs.Json

(* Wall measurements ride the same monotonic clock as the Obs probes. *)
let time f =
  let t0 = Obs.now_s () in
  let r = f () in
  (r, Obs.now_s () -. t0)

(* ---- measurement cells and the json report -------------------------------- *)

(* One series of one data point: the timed run, the Obs counter snapshot
   of the engine that produced it, and its latency/GC histograms (both
   empty for batch baselines, which maintain no auxiliary structures to
   account for). *)
type cell = {
  time : float;
  ctrs : (string * int) list;
  hists : (string * Histogram.t) list;
}

let cell_times = List.map (fun c -> c.time)

let merge_ctrs a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun k ->
      ( k,
        Option.value ~default:0 (List.assoc_opt k a)
        + Option.value ~default:0 (List.assoc_opt k b) ))
    keys

(* Histograms merge exactly (element-wise buckets), so reps accumulate
   samples instead of averaging them away. *)
let merge_hists a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun k ->
      match (List.assoc_opt k a, List.assoc_opt k b) with
      | Some ha, Some hb -> (k, Histogram.merge ha hb)
      | Some h, None | None, Some h -> (k, h)
      | None, None -> assert false)
    keys

let cell_add a b =
  {
    time = a.time +. b.time;
    ctrs = merge_ctrs a.ctrs b.ctrs;
    hists = merge_hists a.hists b.hists;
  }

let cell_scale reps c =
  {
    time = c.time /. float_of_int reps;
    ctrs = List.map (fun (k, v) -> (k, v / reps)) c.ctrs;
    hists = c.hists (* distributions keep every sample *);
  }

(* Build an engine against a fresh metrics registry, run the workload, and
   snapshot what it cost. Construction is outside the timed section (the
   incremental problem takes the old output as given) but inside the
   registry's lifetime, so counters cover exactly this cell's updates. *)
let measured mk apply =
  let o = Obs.create () in
  let s = mk o in
  Obs.reset o;
  let t = snd (time (fun () -> apply s)) in
  {
    time = t;
    ctrs = Obs.counters o;
    hists = List.map (fun (k, h) -> (k, Histogram.copy h)) (Obs.histograms o);
  }

let no_cell time = { time; ctrs = []; hists = [] }
let report = ref None

(* GC words per batch, summarized from the gc_* histograms: total words
   over the cell's updates, keyed by stat name minus the gc_ prefix. *)
let gc_of_hists hists =
  List.filter_map
    (fun (k, h) ->
      if String.length k > 3 && String.sub k 0 3 = "gc_" then
        Some (String.sub k 3 (String.length k - 3), Histogram.sum h)
      else None)
    hists

let record ~id ~title ~x ~series ?(batch = -1) cells =
  match !report with
  | None -> ()
  | Some r ->
      let e = Report.experiment r ~id ~title in
      let timings = List.map2 (fun s c -> (s, c.time)) series cells in
      let counters = List.map2 (fun s c -> (s, c.ctrs)) series cells in
      let histograms =
        List.concat
          (List.map2
             (fun s c -> if c.hists = [] then [] else [ (s, c.hists) ])
             series cells)
      in
      let gc =
        List.concat
          (List.map2
             (fun s c ->
               match gc_of_hists c.hists with [] -> [] | g -> [ (s, g) ])
             series cells)
      in
      let speedup =
        if batch < 0 then []
        else
          let bt = (List.nth cells batch).time in
          List.concat
            (List.mapi
               (fun i (s, c) ->
                 if i = batch then []
                 else [ (s, bt /. Float.max 1e-9 c.time) ])
               (List.combine series cells))
      in
      Report.add_point e ~x ~timings ~counters ~speedup ~histograms ~gc ()

(* ---- table printing ------------------------------------------------------- *)

let print_table ~title ~xlabel ~series rows =
  Format.printf "@.== %s ==@." title;
  Format.printf "%-14s" xlabel;
  List.iter (fun s -> Format.printf "%12s" s) series;
  Format.printf "@.";
  List.iter
    (fun (x, cells) ->
      Format.printf "%-14s" x;
      List.iter (fun v -> Format.printf "%12.4f" v) cells;
      Format.printf "@.")
    rows

(* Where the first series stops beating the last one (paper: "outperform
   batch even when |ΔG| is up to X%"). *)
let report_crossover ~inc ~batch rows =
  let last_winning = ref None in
  List.iter
    (fun (x, cells) ->
      let get i = List.nth cells i in
      if get inc < get batch then last_winning := Some x)
    rows;
  (match !last_winning with
  | Some x -> Format.printf "incremental beats batch up to |ΔG| = %s@." x
  | None -> Format.printf "incremental never beats batch at this scale@.");
  (* Speedup at the 10%% point, if present. *)
  match List.assoc_opt "10%" rows with
  | Some cells ->
      Format.printf "speedup at 10%%: %.1fx@."
        (List.nth cells batch /. Float.max 1e-9 (List.nth cells inc))
  | None -> ()

(* ---- workload construction ------------------------------------------------ *)

let instantiate profile =
  let rng = rng_of_point ("graph", profile.W.Profiles.name) in
  W.Profiles.instantiate ~scale:cfg.scale ~rng profile

let all_delta_percents = [ 5; 10; 15; 20; 25; 30; 35; 40 ]

(* Honors --points: the gate alias runs just the head of each sweep. *)
let delta_percents () =
  if cfg.points <= 0 then all_delta_percents
  else List.filteri (fun i _ -> i < cfg.points) all_delta_percents

(* Replay-style workload (see Updates.generate_replay): returns the base
   graph (the master copy minus the insert pool) together with the batch. *)
let updates_for g pct rep =
  let rng = rng_of_point ("updates", pct, rep) in
  let size = pct * D.n_edges g / 100 in
  let base = D.copy g in
  let ups = W.Updates.generate_replay ~rng base ~size () in
  (base, ups)

(* Pick a query whose answer is nontrivial but bounded, retrying seeds. *)
let rec pick (k : int -> 'a option) (seed : int) : 'a =
  if seed > 64 then failwith "bench: no suitable query found"
  else match k seed with Some q -> q | None -> pick k (seed + 1)

let pick_rpq g size =
  pick
    (fun seed ->
      let rng = rng_of_point ("rpq", size, seed) in
      let q = W.Queries.rpq ~rng g ~size in
      let n = List.length (Core.Rpq.Batch.run_query g q) in
      (* Nontrivial answers only; the batch cost is driven by the source
         count and product reach, not the match count, so a low bar is
         enough. *)
      if n >= 1 && n < 200_000 then Some q else None)
    0

let pick_iso g nodes edges =
  (* Prefer dense, small-diameter patterns as in the paper's query sets
     ((4,6,2) etc.); progressively relax if the graph cannot supply them. *)
  let attempt ~min_edges ~max_diam seed =
    let rng = rng_of_point ("iso", nodes, edges, seed) in
    match W.Queries.iso ~rng g ~nodes ~edges with
    | None -> None
    | Some p ->
        if
          Core.Iso.Pattern.n_edges p < min_edges
          || Core.Iso.Pattern.diameter p > max_diam
        then None
        else
          let n = List.length (Core.Iso.Vf2.find_all g p) in
          if n > 0 && n < 100_000 then Some p else None
  in
  let rec first = function
    | [] -> failwith "bench: no suitable iso pattern found"
    | (min_edges, max_diam) :: rest -> (
        let rec go seed =
          if seed > 40 then None
          else
            match attempt ~min_edges ~max_diam seed with
            | Some p -> Some p
            | None -> go (seed + 1)
        in
        match go 0 with Some p -> p | None -> first rest)
  in
  first
    [
      (min edges nodes, 3);
      (nodes - 1, 4);
      (1, max_int);
    ]

let pick_kws g m b =
  pick
    (fun seed ->
      let rng = rng_of_point ("kws", m, b, seed) in
      let q = W.Queries.kws ~rng g ~m ~b in
      let n = List.length (Core.Kws.Batch.run g q) in
      if n > 0 then Some q else None)
    0

(* ---- per-class runners -----------------------------------------------------

   Each runner measures, for one update batch:
     - the grouped incremental engine (IncX),
     - the unit-at-a-time variant (IncXn),
     - batch recomputation (the paper's batch counterpart), which is given
       G and ΔG and must produce Q(G ⊕ ΔG) — applying ΔG is part of its
       timed work.
   Session construction (the "old output" Q(G) plus auxiliary structures) is
   not timed: the incremental problem takes them as given. *)

let batch_time g ups run =
  let g' = D.copy g in
  snd
    (time (fun () ->
         D.apply_batch g' ups;
         run g'))

let kws_point g q ups =
  let run grouped =
    measured
      (fun o -> Core.Kws.Inc.init ~grouped ~obs:o (D.copy g) q)
      (fun s -> ignore (Core.Kws.Inc.apply_batch s ups))
  in
  let inc = run true in
  let incn = run false in
  let batch =
    no_cell (batch_time g ups (fun g' -> ignore (Core.Kws.Batch.run g' q)))
  in
  [ inc; incn; batch ]

let rpq_point g q ups =
  let a = Core.Nfa.compile (D.interner g) q in
  let run grouped =
    measured
      (fun o -> Core.Rpq.Inc.init ~grouped ~obs:o (D.copy g) a)
      (fun s -> ignore (Core.Rpq.Inc.apply_batch s ups))
  in
  let inc = run true in
  let incn = run false in
  let batch =
    no_cell (batch_time g ups (fun g' -> ignore (Core.Rpq.Batch.run g' a)))
  in
  [ inc; incn; batch ]

let scc_point g ups =
  let with_config config =
    measured
      (fun o -> Core.Scc.Inc.init ~config ~obs:o (D.copy g))
      (fun s -> ignore (Core.Scc.Inc.apply_batch s ups))
  in
  let inc = with_config Core.Scc.Inc.inc_config in
  let incn = with_config Core.Scc.Inc.incn_config in
  let batch =
    no_cell (batch_time g ups (fun g' -> ignore (Core.Scc.Tarjan.scc g')))
  in
  let dyn = with_config Core.Scc.Inc.dyn_config in
  [ inc; incn; batch; dyn ]

let iso_point g p ups =
  let run grouped =
    measured
      (fun o -> Core.Iso.Inc.init ~grouped ~obs:o (D.copy g) p)
      (fun s -> ignore (Core.Iso.Inc.apply_batch s ups))
  in
  let inc = run true in
  let incn = run false in
  let batch =
    no_cell (batch_time g ups (fun g' -> ignore (Core.Iso.Vf2.find_all g' p)))
  in
  [ inc; incn; batch ]

(* Graph simulation (the fifth class wired through `incgraph`): IncSim
   against the batch fixpoint SimFix. *)
let sim_point g p ups =
  let inc =
    measured
      (fun o -> Core.Sim.Inc.init ~obs:o (D.copy g) p)
      (fun s -> ignore (Core.Sim.Inc.apply_batch s ups))
  in
  let batch =
    no_cell (batch_time g ups (fun g' -> ignore (Core.Sim.Batch.run p g')))
  in
  [ inc; batch ]

(* Average a point over cfg.reps distinct update batches (counters are
   averaged alongside the timings). *)
let averaged point_of pct g =
  let acc = ref None in
  for rep = 1 to cfg.reps do
    let base, ups = updates_for g pct rep in
    let cells = point_of base ups in
    acc :=
      Some
        (match !acc with
        | None -> cells
        | Some prev -> List.map2 cell_add prev cells)
  done;
  List.map (cell_scale cfg.reps) (Option.get !acc)

(* ---- Exp-1: runtime vs |ΔG| ------------------------------------------------ *)

let exp1 ~figure ~cls ~profile =
  let g = instantiate profile in
  Format.printf "@.[%s] %s: %d nodes, %d edges@." figure profile.W.Profiles.name
    (D.n_nodes g) (D.n_edges g);
  let series, point =
    match cls with
    | `Kws ->
        let q = pick_kws g 3 2 in
        ([ "IncKWS"; "IncKWSn"; "BLINKS" ], fun base ups -> kws_point base q ups)
    | `Rpq ->
        let q = pick_rpq g 4 in
        Format.printf "query: %s@." (Core.Regex.to_string q);
        ([ "IncRPQ"; "IncRPQn"; "RPQNFA" ], fun base ups -> rpq_point base q ups)
    | `Scc ->
        ([ "IncSCC"; "IncSCCn"; "Tarjan"; "DynSCC" ], fun base ups -> scc_point base ups)
    | `Iso ->
        let p = pick_iso g 4 6 in
        Format.printf "pattern: |VQ|=%d |EQ|=%d dQ=%d@."
          (Core.Iso.Pattern.n_nodes p) (Core.Iso.Pattern.n_edges p)
          (Core.Iso.Pattern.diameter p);
        ([ "IncISO"; "IncISOn"; "VF2" ], fun base ups -> iso_point base p ups)
  in
  let rows =
    List.map
      (fun pct ->
        (Printf.sprintf "%d%%" pct, averaged point pct g))
      (delta_percents ())
  in
  let batch_col = match cls with `Scc -> 2 | _ -> List.length series - 1 in
  let title =
    Printf.sprintf "Fig 8(%s) — %s varying |ΔG| (%s)"
      (String.sub figure 4 1)
      (match cls with
      | `Kws -> "KWS" | `Rpq -> "RPQ" | `Scc -> "SCC" | `Iso -> "ISO")
      profile.W.Profiles.name
  in
  List.iter
    (fun (x, cells) ->
      record ~id:figure ~title ~x ~series ~batch:batch_col cells)
    rows;
  let trows = List.map (fun (x, cells) -> (x, cell_times cells)) rows in
  print_table ~title ~xlabel:"|ΔG|/|G|" ~series trows;
  report_crossover ~inc:0 ~batch:batch_col trows

(* ---- Exp-2: query complexity ------------------------------------------------ *)

let exp2_kws () =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf "@.[fig8j] dbpedia-like: %d nodes, %d edges@." (D.n_nodes g)
    (D.n_edges g);
  let rows =
    List.map
      (fun (m, b) ->
        let q = pick_kws g m b in
        let base, ups = updates_for g 10 1 in
        (Printf.sprintf "(%d,%d)" m b, kws_point base q ups))
      [ (2, 1); (3, 2); (4, 3); (5, 4); (6, 5) ]
  in
  let title = "Fig 8(j) — KWS varying (m,b), |ΔG| = 10% (dbpedia)" in
  let series = [ "IncKWS"; "IncKWSn"; "BLINKS" ] in
  List.iter
    (fun (x, cells) -> record ~id:"fig8j" ~title ~x ~series ~batch:2 cells)
    rows;
  print_table ~title ~xlabel:"(m,b)" ~series
    (List.map (fun (x, cells) -> (x, cell_times cells)) rows)

let exp2_rpq () =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf "@.[fig8k] dbpedia-like: %d nodes, %d edges@." (D.n_nodes g)
    (D.n_edges g);
  let rows =
    List.map
      (fun size ->
        let q = pick_rpq g size in
        let base, ups = updates_for g 10 1 in
        (string_of_int size, rpq_point base q ups))
      [ 3; 4; 5; 6; 7 ]
  in
  let title = "Fig 8(k) — RPQ varying |Q|, |ΔG| = 10% (dbpedia)" in
  let series = [ "IncRPQ"; "IncRPQn"; "RPQNFA" ] in
  List.iter
    (fun (x, cells) -> record ~id:"fig8k" ~title ~x ~series ~batch:2 cells)
    rows;
  print_table ~title ~xlabel:"|Q|" ~series
    (List.map (fun (x, cells) -> (x, cell_times cells)) rows)

let exp2_iso () =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf "@.[fig8l] dbpedia-like: %d nodes, %d edges@." (D.n_nodes g)
    (D.n_edges g);
  let rows =
    List.map
      (fun (vq, eq) ->
        let p = pick_iso g vq eq in
        let base, ups = updates_for g 10 1 in
        ( Printf.sprintf "(%d,%d,%d)" vq eq (Core.Iso.Pattern.diameter p),
          iso_point base p ups ))
      [ (3, 5); (4, 6); (5, 7); (6, 8); (7, 9) ]
  in
  let title = "Fig 8(l) — ISO varying (|VQ|,|EQ|,dQ), |ΔG| = 10% (dbpedia)" in
  let series = [ "IncISO"; "IncISOn"; "VF2" ] in
  List.iter
    (fun (x, cells) -> record ~id:"fig8l" ~title ~x ~series ~batch:2 cells)
    rows;
  print_table ~title ~xlabel:"(V,E,d)" ~series
    (List.map (fun (x, cells) -> (x, cell_times cells)) rows)

(* ---- Exp-3: runtime vs |G| --------------------------------------------------- *)

let exp3 ~figure ~cls =
  Format.printf "@.[%s] synthetic, scale sweep@." figure;
  let full = instantiate W.Profiles.synthetic in
  let fixed_dg = 15 * D.n_edges full / 100 in
  let rows =
    List.map
      (fun factor ->
        let rng = rng_of_point ("exp3graph", figure, factor) in
        let g =
          W.Profiles.instantiate
            ~scale:(cfg.scale *. factor)
            ~rng W.Profiles.synthetic
        in
        let rng = rng_of_point ("exp3ups", figure, factor) in
        let base = D.copy g in
        let ups =
          W.Updates.generate_replay ~rng base
            ~size:(min fixed_dg (D.n_edges g / 2))
            ()
        in
        let cells =
          match cls with
          | `Kws ->
              let q = pick_kws g 3 2 in
              kws_point base q ups
          | `Rpq ->
              let q = pick_rpq g 4 in
              rpq_point base q ups
          | `Scc -> scc_point base ups
          | `Iso ->
              let p = pick_iso g 4 6 in
              iso_point base p ups
        in
        (Printf.sprintf "%.1f" factor, cells))
      [ 0.2; 0.4; 0.6; 0.8; 1.0 ]
  in
  let series =
    match cls with
    | `Kws -> [ "IncKWS"; "IncKWSn"; "BLINKS" ]
    | `Rpq -> [ "IncRPQ"; "IncRPQn"; "RPQNFA" ]
    | `Scc -> [ "IncSCC"; "IncSCCn"; "Tarjan"; "DynSCC" ]
    | `Iso -> [ "IncISO"; "IncISOn"; "VF2" ]
  in
  let batch_col = match cls with `Scc -> 2 | _ -> List.length series - 1 in
  let title =
    Printf.sprintf "Fig 8(%s) — %s varying |G| (synthetic, |ΔG| fixed)"
      (String.sub figure 4 1)
      (match cls with
      | `Kws -> "KWS" | `Rpq -> "RPQ" | `Scc -> "SCC" | `Iso -> "ISO")
  in
  List.iter
    (fun (x, cells) ->
      record ~id:figure ~title ~x ~series ~batch:batch_col cells)
    rows;
  print_table ~title ~xlabel:"scale" ~series
    (List.map (fun (x, cells) -> (x, cell_times cells)) rows)

(* ---- unit updates (Exp-1(5)) -------------------------------------------------- *)

let unit_updates () =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf "@.[unit_updates] dbpedia-like: %d nodes, %d edges@."
    (D.n_nodes g) (D.n_edges g);
  let base = D.copy g in
  let units =
    let rng = rng_of_point "unit_updates" in
    W.Updates.generate_replay ~rng base ~size:20 ()
  in
  let g = base in
  let bench_units inc_time batch_time =
    let ti = ref 0.0 and tb = ref 0.0 and k = ref 0 in
    List.iter
      (fun up ->
        ti := !ti +. inc_time up;
        tb := !tb +. batch_time up;
        incr k)
      units;
    (!ti /. float_of_int !k, !tb /. float_of_int !k)
  in
  let row name (inc, batch) =
    Format.printf "%-8s avg unit-update: inc %.6fs  batch %.6fs  speedup %.0fx@."
      name inc batch (batch /. Float.max 1e-9 inc)
  in
  (* KWS *)
  let q = pick_kws g 3 2 in
  let s = Core.Kws.Inc.init (D.copy g) q in
  row "KWS"
    (bench_units
       (fun up -> snd (time (fun () -> ignore (Core.Kws.Inc.apply_batch s [ up ]))))
       (fun _ -> snd (time (fun () -> ignore (Core.Kws.Batch.run (Core.Kws.Inc.graph s) q)))));
  (* RPQ *)
  let q = pick_rpq g 4 in
  let a = Core.Nfa.compile (D.interner g) q in
  let s = Core.Rpq.Inc.init (D.copy g) a in
  row "RPQ"
    (bench_units
       (fun up -> snd (time (fun () -> ignore (Core.Rpq.Inc.apply_batch s [ up ]))))
       (fun _ -> snd (time (fun () -> ignore (Core.Rpq.Batch.run (Core.Rpq.Inc.graph s) a)))));
  (* SCC, with the DynSCC comparison the paper quotes (5.7x). *)
  let s = Core.Scc.Inc.init (D.copy g) in
  let d = Core.Scc.Inc.init ~config:Core.Scc.Inc.dyn_config (D.copy g) in
  let inc, batch =
    bench_units
      (fun up -> snd (time (fun () -> ignore (Core.Scc.Inc.apply_batch s [ up ]))))
      (fun _ -> snd (time (fun () -> ignore (Core.Scc.Tarjan.scc (Core.Scc.Inc.graph s)))))
  in
  row "SCC" (inc, batch);
  let dyn =
    let t = ref 0.0 in
    List.iter
      (fun up ->
        t := !t +. snd (time (fun () -> ignore (Core.Scc.Inc.apply_batch d [ up ]))))
      units;
    !t /. float_of_int (List.length units)
  in
  Format.printf "         DynSCC avg %.6fs (IncSCC is %.1fx faster)@." dyn
    (dyn /. Float.max 1e-9 inc);
  (* ISO *)
  let p = pick_iso g 4 6 in
  let s = Core.Iso.Inc.init (D.copy g) p in
  row "ISO"
    (bench_units
       (fun up -> snd (time (fun () -> ignore (Core.Iso.Inc.apply_batch s [ up ]))))
       (fun _ -> snd (time (fun () -> ignore (Core.Iso.Vf2.find_all (Core.Iso.Inc.graph s) p)))))

(* ---- optimization gain summary (prose) ----------------------------------------- *)

let opt_gain () =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf
    "@.[opt_gain] IncX vs IncXn at |ΔG| = 10%% (dbpedia-like, %d edges)@."
    (D.n_edges g);
  let base, ups = updates_for g 10 1 in
  let ratio name cells =
    match cells with
    | inc :: incn :: _ ->
        record ~id:"opt_gain" ~title:"IncX vs IncXn at |ΔG| = 10%" ~x:name
          ~series:[ "IncX"; "IncXn" ]
          [ inc; incn ];
        Format.printf "%-6s IncX %.4fs  IncXn %.4fs  gain %.2fx@." name
          inc.time incn.time
          (incn.time /. Float.max 1e-9 inc.time)
    | _ -> ()
  in
  ratio "KWS" (kws_point base (pick_kws g 3 2) ups);
  ratio "RPQ" (rpq_point base (pick_rpq g 4) ups);
  ratio "SCC" (scc_point base ups);
  ratio "ISO" (iso_point base (pick_iso g 4 6) ups)

(* ---- ρ sweep (prose) ------------------------------------------------------------ *)

let rho_sweep () =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf "@.[rho_sweep] insert/delete ratio, |ΔG| = 10%% (dbpedia-like)@.";
  let size = D.n_edges g / 10 in
  let kq = pick_kws g 3 2 in
  let rq = pick_rpq g 4 in
  let ra = Core.Nfa.compile (D.interner g) rq in
  let ip = pick_iso g 4 6 in
  let rows =
    List.map
      (fun rho ->
        let rng = rng_of_point ("rho", int_of_float (rho *. 10.)) in
        let g = D.copy g in
        let ups = W.Updates.generate_replay ~rng g ~size ~ratio:rho () in
        let t_kws =
          let s = Core.Kws.Inc.init (D.copy g) kq in
          snd (time (fun () -> ignore (Core.Kws.Inc.apply_batch s ups)))
        in
        let t_rpq =
          let s = Core.Rpq.Inc.init (D.copy g) ra in
          snd (time (fun () -> ignore (Core.Rpq.Inc.apply_batch s ups)))
        in
        let t_scc =
          let s = Core.Scc.Inc.init (D.copy g) in
          snd (time (fun () -> ignore (Core.Scc.Inc.apply_batch s ups)))
        in
        let t_iso =
          let s = Core.Iso.Inc.init (D.copy g) ip in
          snd (time (fun () -> ignore (Core.Iso.Inc.apply_batch s ups)))
        in
        (Printf.sprintf "ρ=%.1f" rho, [ t_kws; t_rpq; t_scc; t_iso ]))
      [ 0.2; 1.0; 5.0 ]
  in
  print_table ~title:"ρ-insensitivity of the incremental algorithms"
    ~xlabel:"ratio" ~series:[ "IncKWS"; "IncRPQ"; "IncSCC"; "IncISO" ] rows

(* ---- graph simulation vs |ΔG| ----------------------------------------------------- *)

(* The fifth query class the CLI serves; exp1-shaped so its points carry
   the same latency/GC histogram sections as the four paper classes. *)
let sim_delta () =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf "@.[sim_delta] dbpedia-like: %d nodes, %d edges@." (D.n_nodes g)
    (D.n_edges g);
  let p = pick_iso g 3 3 in
  Format.printf "pattern: |VQ|=%d |EQ|=%d@." (Core.Iso.Pattern.n_nodes p)
    (Core.Iso.Pattern.n_edges p);
  let series = [ "IncSim"; "SimFix" ] in
  let rows =
    List.map
      (fun pct ->
        ( Printf.sprintf "%d%%" pct,
          averaged (fun base ups -> sim_point base p ups) pct g ))
      (delta_percents ())
  in
  let title = "Graph simulation varying |ΔG| (dbpedia)" in
  List.iter
    (fun (x, cells) -> record ~id:"sim_delta" ~title ~x ~series ~batch:1 cells)
    rows;
  let trows = List.map (fun (x, cells) -> (x, cell_times cells)) rows in
  print_table ~title ~xlabel:"|ΔG|/|G|" ~series trows;
  report_crossover ~inc:0 ~batch:1 trows

(* ---- journal throughput ------------------------------------------------------------ *)

(* The durability tax (lib/journal): unit updates pushed through the
   write-ahead store — normalize, frame + checksum + flush, apply, verify
   the post digest — against raw Digraph.apply on the same stream, plus
   the undo, snapshot and crash-recovery paths. The store runs over the
   engine-free graph client, so the numbers isolate journaling cost from
   engine maintenance (every engine pays the same WAL surcharge). *)
let journal_throughput () =
  let module J = Core.Journal in
  let g = instantiate W.Profiles.synthetic in
  Format.printf "@.[journal] synthetic: %d nodes, %d edges@." (D.n_nodes g)
    (D.n_edges g);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "incgraph_bench_journal"
  in
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let base = D.copy g in
  let n = max 100 (D.n_edges g / 40) in
  let rng = rng_of_point ("journal", n) in
  let ups = W.Updates.generate_replay ~rng base ~size:n () in
  let t_raw =
    let gr = D.copy base in
    snd (time (fun () -> List.iter (fun u -> ignore (D.apply gr u)) ups))
  in
  let o = Obs.create () in
  let header =
    {
      J.Record.version = J.Record.format_version;
      cls = "scc";
      bound = 0;
      qargs = [];
      base_digest = J.Log.graph_digest base;
    }
  in
  let store =
    J.Store.init ~obs:o ~dir ~header ~client:(J.Store.graph_client (D.copy base)) ()
  in
  Obs.reset o;
  let t_append =
    snd
      (time (fun () ->
           List.iter (fun u -> ignore (J.Store.do_batch store [ u ])) ups))
  in
  let applied = J.Store.tip store in
  let t_snap = snd (time (fun () -> ignore (J.Store.snapshot store))) in
  let undo_n = applied / 2 in
  let t_undo =
    snd
      (time (fun () ->
           for _ = 1 to undo_n do
             match J.Store.undo store ~k:1 with
             | Ok _ -> ()
             | Error e -> failwith ("journal bench: undo: " ^ e)
           done))
  in
  let cell =
    {
      time = t_append;
      ctrs = Obs.counters o;
      hists = List.map (fun (k, h) -> (k, Histogram.copy h)) (Obs.histograms o);
    }
  in
  J.Store.close store;
  let attach_time ~from_scratch =
    snd
      (time (fun () ->
           match J.Store.plan ~from_scratch ~dir () with
           | Error e -> failwith ("journal bench: plan: " ^ e)
           | Ok plan -> (
               let base' = J.Snapshot.graph plan.J.Store.snapshot in
               match
                 J.Store.attach ~dir ~plan
                   ~client:(J.Store.graph_client base') ()
               with
               | Error e -> failwith ("journal bench: attach: " ^ e)
               | Ok st -> J.Store.close st)))
  in
  (* From snapshot-[applied]: replays just the undo tail; from scratch:
     the whole history. The gap is what snapshot cadence buys. *)
  let t_rec_snap = attach_time ~from_scratch:false in
  let t_rec_scratch = attach_time ~from_scratch:true in
  let title = "Journal throughput — WAL + undo + recovery (synthetic)" in
  let series = [ "journal" ] in
  let rows =
    [
      (Printf.sprintf "append(%d)" applied, cell);
      (Printf.sprintf "undo(%d)" undo_n, no_cell t_undo);
      ("snapshot", no_cell t_snap);
      ("recover/snap", no_cell t_rec_snap);
      ("recover/scratch", no_cell t_rec_scratch);
    ]
  in
  List.iter (fun (x, c) -> record ~id:"journal" ~title ~x ~series [ c ]) rows;
  print_table ~title ~xlabel:"phase" ~series
    (List.map (fun (x, c) -> (x, [ c.time ])) rows);
  Format.printf
    "raw apply of the same %d updates: %.4fs — WAL surcharge %.1fx, %.0f \
     journaled op/s@."
    (List.length ups) t_raw
    (t_append /. Float.max 1e-9 t_raw)
    (float_of_int applied /. Float.max 1e-9 t_append)

(* ---- traversal scaling ----------------------------------------------------------- *)

(* Batch traversal kernels against graph size — the regime where the graph
   core's memory layout, not engine bookkeeping, dominates cost. Each point
   builds a fresh synthetic graph at a fraction of --scale and runs each
   kernel once inside [Obs.with_apply], so the latency and gc_* histograms
   capture work attributable to the traversal itself. At --scale 20 the
   top point is a million-node, two-million-edge graph. *)
let trav () =
  let factors =
    let all = [ 0.2; 0.4; 0.6; 0.8; 1.0 ] in
    if cfg.points <= 0 then all
    else List.filteri (fun i _ -> i < cfg.points) all
  in
  let series = [ "Tarjan"; "NFA"; "kdist" ] in
  let batch_cell run =
    let o = Obs.create () in
    let t = snd (time (fun () -> Obs.with_apply o run)) in
    {
      time = t;
      ctrs = Obs.counters o;
      hists = List.map (fun (k, h) -> (k, Histogram.copy h)) (Obs.histograms o);
    }
  in
  let title = "Batch traversal (Tarjan/NFA/kdist) vs |G| (synthetic)" in
  let rows =
    List.map
      (fun f ->
        let scale = cfg.scale *. f in
        let rng = rng_of_point ("trav-graph", f) in
        let g =
          W.Profiles.instantiate ~scale ~rng W.Profiles.synthetic
        in
        let n = D.n_nodes g in
        Format.printf "@.[trav] synthetic ×%.2f: %d nodes, %d edges@." f n
          (D.n_edges g);
        (* Fixed-shape queries, cheap to draw at any scale: pick_* would run
           batch suitability probes, which at a million nodes would dwarf
           the measurement itself. *)
        let kq = W.Queries.kws ~rng:(rng_of_point ("trav-kws", f)) g ~m:3 ~b:2 in
        let rq = W.Queries.rpq ~rng:(rng_of_point ("trav-rpq", f)) g ~size:3 in
        let a = Core.Nfa.compile (D.interner g) rq in
        let cells =
          [
            batch_cell (fun () -> ignore (Core.Scc.Tarjan.scc g));
            batch_cell (fun () -> ignore (Core.Rpq.Batch.run g a));
            batch_cell (fun () -> ignore (Core.Kws.Batch.run g kq));
          ]
        in
        let x = string_of_int n in
        record ~id:"trav" ~title ~x ~series cells;
        (x, cells))
      factors
  in
  print_table ~title ~xlabel:"|V|" ~series
    (List.map (fun (x, cells) -> (x, cell_times cells)) rows)

(* ---- unboundedness demo ----------------------------------------------------------- *)

let unbounded () =
  Format.printf
    "@.[unbounded] Fig. 9 gadget: work for the output-silent Δ1 vs |CHANGED|@.";
  Format.printf "%-10s%12s%14s@." "cycle n" "|CHANGED|" "inc work";
  List.iter
    (fun p ->
      Format.printf "%-10d%12d%14d@." p.Core.Theory.Gadget.n
        p.Core.Theory.Gadget.changed p.Core.Theory.Gadget.inc_work)
    (Core.Theory.Gadget.demo ~cycles:[ 64; 128; 256; 512; 1024 ])

(* ---- bechamel micro-benchmarks ------------------------------------------------------ *)

(* Each figure gets one Test.make of its headline incremental kernel on a
   small fixed workload. The kernel applies a batch and then its inverse,
   returning the session to its original answer, so repeated runs measure a
   stable quantity. *)

let inverse_updates ups =
  List.rev_map
    (function
      | D.Insert (u, v) -> D.Delete (u, v)
      | D.Delete (u, v) -> D.Insert (u, v))
    ups

let micro () =
  let open Bechamel in
  let rng = Random.State.make [| cfg.seed |] in
  let g =
    W.Profiles.instantiate ~scale:0.02 ~rng W.Profiles.dbpedia_like
  in
  let gs = W.Profiles.instantiate ~scale:0.02 ~rng W.Profiles.synthetic in
  let gl = W.Profiles.instantiate ~scale:0.02 ~rng W.Profiles.livej_like in
  (* Mutates its argument into the base graph (replay methodology). *)
  let mk_ups graph =
    W.Updates.generate_replay ~rng graph ~size:(D.n_edges graph / 20) ()
  in
  let roundtrip apply ups =
    let inv = inverse_updates ups in
    fun () ->
      apply ups;
      apply inv
  in
  let kws_test name graph =
    let q = pick_kws graph 3 2 in
    let graph = D.copy graph in
    let ups = mk_ups graph in
    let s = Core.Kws.Inc.init graph q in
    Test.make ~name
      (Staged.stage (roundtrip (fun u -> ignore (Core.Kws.Inc.apply_batch s u)) ups))
  in
  let rpq_test name graph =
    let q = pick_rpq graph 4 in
    let graph = D.copy graph in
    let ups = mk_ups graph in
    let s = Core.Rpq.Inc.create graph q in
    Test.make ~name
      (Staged.stage (roundtrip (fun u -> ignore (Core.Rpq.Inc.apply_batch s u)) ups))
  in
  let scc_test name graph =
    let graph = D.copy graph in
    let ups = mk_ups graph in
    let s = Core.Scc.Inc.init graph in
    Test.make ~name
      (Staged.stage (roundtrip (fun u -> ignore (Core.Scc.Inc.apply_batch s u)) ups))
  in
  let iso_test name graph =
    let p = pick_iso graph 4 6 in
    let graph = D.copy graph in
    let ups = mk_ups graph in
    let s = Core.Iso.Inc.init graph p in
    Test.make ~name
      (Staged.stage (roundtrip (fun u -> ignore (Core.Iso.Inc.apply_batch s u)) ups))
  in
  let tests =
    Test.make_grouped ~name:"figures"
      [
        kws_test "fig8a:inc-kws-dbpedia" g;
        rpq_test "fig8b:inc-rpq-dbpedia" g;
        scc_test "fig8c:inc-scc-dbpedia" g;
        iso_test "fig8d:inc-iso-dbpedia" g;
        kws_test "fig8e:inc-kws-livej" gl;
        rpq_test "fig8f:inc-rpq-livej" gl;
        scc_test "fig8g:inc-scc-livej" gl;
        iso_test "fig8h:inc-iso-livej" gl;
        scc_test "fig8i:inc-scc-synthetic" gs;
        kws_test "fig8j:kws-query-sweep" g;
        rpq_test "fig8k:rpq-query-sweep" g;
        iso_test "fig8l:iso-query-sweep" g;
        kws_test "fig8m:kws-scale" gs;
        rpq_test "fig8n:rpq-scale" gs;
        scc_test "fig8o:scc-scale" gs;
        iso_test "fig8p:iso-scale" gs;
      ]
  in
  Format.printf "@.[micro] bechamel, quota %.2fs per test@." cfg.quota;
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg' =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second cfg.quota) ~kde:(Some 1000)
        ()
    in
    Benchmark.all cfg' instances tests
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name res ->
      match Bechamel.Analyze.OLS.estimates res with
      | Some [ est ] ->
          Format.printf "%-28s %12.3f ms/run@." name (est /. 1e6)
      | _ -> Format.printf "%-28s (no estimate)@." name)
    results

(* ---- experiment registry -------------------------------------------------------------- *)

let experiments : (string * (unit -> unit)) list =
  [
    ("fig8a", fun () -> exp1 ~figure:"fig8a" ~cls:`Kws ~profile:W.Profiles.dbpedia_like);
    ("fig8b", fun () -> exp1 ~figure:"fig8b" ~cls:`Rpq ~profile:W.Profiles.dbpedia_like);
    ("fig8c", fun () -> exp1 ~figure:"fig8c" ~cls:`Scc ~profile:W.Profiles.dbpedia_like);
    ("fig8d", fun () -> exp1 ~figure:"fig8d" ~cls:`Iso ~profile:W.Profiles.dbpedia_like);
    ("fig8e", fun () -> exp1 ~figure:"fig8e" ~cls:`Kws ~profile:W.Profiles.livej_like);
    ("fig8f", fun () -> exp1 ~figure:"fig8f" ~cls:`Rpq ~profile:W.Profiles.livej_like);
    ("fig8g", fun () -> exp1 ~figure:"fig8g" ~cls:`Scc ~profile:W.Profiles.livej_like);
    ("fig8h", fun () -> exp1 ~figure:"fig8h" ~cls:`Iso ~profile:W.Profiles.livej_like);
    ("fig8i", fun () -> exp1 ~figure:"fig8i" ~cls:`Scc ~profile:W.Profiles.synthetic);
    ("fig8j", exp2_kws);
    ("fig8k", exp2_rpq);
    ("fig8l", exp2_iso);
    ("fig8m", fun () -> exp3 ~figure:"fig8m" ~cls:`Kws);
    ("fig8n", fun () -> exp3 ~figure:"fig8n" ~cls:`Rpq);
    ("fig8o", fun () -> exp3 ~figure:"fig8o" ~cls:`Scc);
    ("fig8p", fun () -> exp3 ~figure:"fig8p" ~cls:`Iso);
    ("unit_updates", unit_updates);
    ("opt_gain", opt_gain);
    ("rho_sweep", rho_sweep);
    ("sim_delta", sim_delta);
    ("journal", journal_throughput);
    ("trav", trav);
    ("unbounded", unbounded);
    ("micro", micro);
  ]

let () =
  parse_args ();
  let wanted =
    match cfg.selected with
    | [] -> List.map fst experiments
    | sel -> sel
  in
  report :=
    Some
      (Report.create ~tool:"incgraph-bench"
         ~config:
           [
             ("scale", Json.Float cfg.scale);
             ("reps", Json.Int cfg.reps);
             ("seed", Json.Int cfg.seed);
             ("points", Json.Int cfg.points);
             ("quota", Json.Float cfg.quota);
             ( "experiments",
               Json.Arr (List.map (fun id -> Json.Str id) wanted) );
           ]
         ());
  Format.printf
    "incgraph bench — scale %.2f, reps %d, seed %d@.reproducing: %s@."
    cfg.scale cfg.reps cfg.seed
    (String.concat ", " wanted);
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> (
          match time f with
          | (), t -> Format.printf "[%s done in %.1fs]@." id t
          | exception e ->
              Format.printf "[%s FAILED: %s]@." id (Printexc.to_string e))
      | None -> Format.printf "unknown experiment %s (skipped)@." id)
    wanted;
  (match !report with
  | Some r -> Report.write ~path:cfg.out r
  | None -> ());
  Format.printf "@.all experiments complete; report written to %s@." cfg.out
