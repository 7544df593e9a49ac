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
     trav           batch traversal (Tarjan/NFA/kdist) scaling vs |G|;
                    at --scale 20 the top point is a million-node graph

   Usage: dune exec bench/main.exe [-- options]
     -e ID[,ID...]   run selected experiments (default: all)
     --scale X       graph scale factor (default 0.25; paper shapes hold
                     across scales, see EXPERIMENTS.md)
     --reps N        repetitions per point, each on its own update batch;
                     a point's time is their median and its counters
                     their total (default 1)
     --seed N        RNG seed (default 2017)
     --points N      keep only the first N |ΔG| points per sweep (0 = all;
                     the @bench-gate alias uses this for a fast run)
     --out PATH      BENCH json output path (default BENCH_incgraph.json)

   A failed or unknown experiment makes the exit status 1, once the
   report is written.

   Besides the tables printed to stdout, every data point is recorded —
   timings, per-engine Obs counter snapshots (measured |AFF|, |CHANGED|,
   work counters), and the per-update latency histograms plus
   GC/allocation deltas the engines record through Obs.with_apply — into
   a schema-versioned json report (see lib/obs/report.ml and
   EXPERIMENTS.md).

   Every comparison experiment (fig8a..fig8p, unit_updates, opt_gain,
   rho_sweep, sim_delta) reads its engines from one table, [table] below:
   per query, the class name and its ordered columns, every one but
   DynSCC built through Core.Check.Spec, which also wires the CLI and the
   differential fuzzer.

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
  mutable out : string;
}

let cfg =
  {
    selected = [];
    scale = 0.25;
    reps = 1;
    seed = 2017;
    points = 0;
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

(* Seconds [f] takes, on the same monotonic clock as the Obs probes. *)
let time f =
  let t0 = Obs.now_s () in
  f ();
  Obs.now_s () -. t0

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

(* The union of two assoc lists, [merge] combining a key both carry. *)
let merge_assoc merge a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun k ->
      match (List.assoc_opt k a, List.assoc_opt k b) with
      | Some x, Some y -> (k, merge x y)
      | Some x, None | None, Some x -> (k, x)
      | None, None -> assert false)
    keys

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One point over its reps: the median time, each counter's total over the
   reps (exact, so one unit of work more in any rep shows), and every
   histogram sample (histograms merge exactly, element-wise). *)
let over_reps cells =
  let merge f field =
    List.fold_left (fun acc c -> merge_assoc f acc (field c)) [] cells
  in
  {
    time = median (cell_times cells);
    ctrs = merge ( + ) (fun c -> c.ctrs);
    hists = merge Histogram.merge (fun c -> c.hists);
  }

(* What registry [o] counted over a run that took [time] seconds. *)
let snapshot o time =
  {
    time;
    ctrs = Obs.counters o;
    hists = List.map (fun (k, h) -> (k, Histogram.copy h)) (Obs.histograms o);
  }

let no_cell time = { time; ctrs = []; hists = [] }
let report = ref None

let record ~id ~title ~x ~series cells =
  match !report with
  | None -> ()
  | Some r ->
      let e = Report.experiment r ~id ~title in
      let named = List.combine series cells in
      let timings = List.map (fun (s, c) -> (s, c.time)) named in
      let counters = List.map (fun (s, c) -> (s, c.ctrs)) named in
      let histograms =
        List.filter_map
          (fun (s, c) -> if c.hists = [] then None else Some (s, c.hists))
          named
      in
      Report.add_point e ~x ~timings ~counters ~histograms ()

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

(* The points where the first series beats the last one, and those where
   the last wins or ties (paper: "outperform batch even when |ΔG| is up to
   X%"). Naming every point keeps a loss left of the last win visible. Below
   five reps a point's median is too noisy to call: two single-rep runs of
   one seed have disagreed. *)
let report_wins ~inc ~batch rows =
  (if cfg.reps < 5 then
     Format.printf "no win/loss verdict below --reps 5 (ran %d)@." cfg.reps
   else
     let wins, losses =
       List.partition
         (fun (_, cells) -> List.nth cells inc < List.nth cells batch)
         rows
     in
     let xs = function
       | [] -> "none"
       | rows -> String.concat ", " (List.map fst rows)
     in
     Format.printf "incremental wins at |ΔG| = %s; batch wins at %s@."
       (xs wins) (xs losses));
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

(* Honors --points: the gate alias runs just the head of each sweep. *)
let sweep points =
  if cfg.points <= 0 then points
  else List.filteri (fun i _ -> i < cfg.points) points

(* Replay-style workload (see Updates.generate_replay): returns the base
   graph (the master copy minus the insert pool) together with the batch. *)
let updates_for g pct rep =
  let rng = rng_of_point ("updates", pct, rep) in
  let size = pct * D.n_edges g / 100 in
  let base = D.copy g in
  let ups = W.Updates.generate_replay ~rng base ~size () in
  (base, ups)

(* The first query [k] accepts, trying seeds [seed..limit]. *)
let rec first_seed ~limit k seed =
  if seed > limit then None
  else
    match k seed with
    | Some q -> Some q
    | None -> first_seed ~limit k (seed + 1)

(* Pick a query whose answer is nontrivial but bounded, retrying seeds. *)
let pick k =
  match first_seed ~limit:64 k 0 with
  | Some q -> q
  | None -> failwith "bench: no suitable query found"

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
  match
    List.find_map
      (fun (min_edges, max_diam) ->
        first_seed ~limit:40 (attempt ~min_edges ~max_diam) 0)
      [ (min edges nodes, 3); (nodes - 1, 4); (1, max_int) ]
  with
  | Some p -> p
  | None -> failwith "bench: no suitable iso pattern found"

let pick_kws g m b =
  pick
    (fun seed ->
      let rng = rng_of_point ("kws", m, b, seed) in
      let q = W.Queries.kws ~rng g ~m ~b in
      let n = List.length (Core.Kws.Batch.run g q) in
      if n > 0 then Some q else None)

(* ---- the per-class table ---------------------------------------------------

   Every Fig. 8 panel and both prose results compare the same columns, in
   the same order: the incremental engine handed the whole batch (IncX),
   the one-by-one variant (IncXn), batch recomputation (the paper's batch
   counterpart), and for SCC the DynSCC stand-in. [table] builds them from
   Spec, the place that wires each class for the CLI and the fuzzer: IncX
   and IncXn drive the oracle Spec.make builds, the batch column runs
   Spec.batch, so the engines timed here are the ones @fuzz checks. Only
   DynSCC is wired here. The pickers below say which query each class runs
   by default. The batch column is given G and ΔG and must produce
   Q(G ⊕ ΔG) — applying ΔG is part of its timed work. An incremental
   column's [start] builds its engine over a copy of the graph it is
   handed (the "old output" Q(G) plus auxiliary structures, untimed: the
   incremental problem takes them as given) and returns the timed step. *)

module Spec = Core.Check.Spec
module Oracle = Core.Check.Oracle

type column =
  | Inc of string * (Obs.t -> D.t -> D.update list -> unit)
  | Batch of string * (D.t -> unit)

type row = { name : string; columns : column list }

let series = function Inc (s, _) | Batch (s, _) -> s

let batch_col row =
  Option.get
    (List.find_index (function Batch _ -> true | Inc _ -> false) row.columns)

(* An oracle's timed step: the batch in one call (IncX) or one call per
   update (IncXn). *)
let whole inst ups = ignore (inst.Oracle.apply_batch ups)
let per_update inst = List.iter (fun u -> whole inst [ u ])

(* IncSCC's engine built with [~dyn:true], called once per update. *)
let dyn_scc =
  Inc
    ( "DynSCC",
      fun o g ->
        per_update (Spec.scc (Core.Scc.Inc.init ~dyn:true ~obs:o (D.copy g)))
    )

(* [g] supplies the interner an RPQ compiles against. Graph simulation has
   no one-by-one column. *)
let table g spec =
  let name = Spec.label spec and b = Spec.batch g spec in
  let inc suffix step =
    Inc ("Inc" ^ name ^ suffix, fun o g -> step (Spec.make ~obs:o g spec))
  in
  let batch = Batch (b.Spec.series, fun g -> ignore (b.Spec.run g)) in
  let columns =
    match spec with
    | Spec.Sim _ -> [ inc "" whole; batch ]
    | Spec.Scc -> [ inc "" whole; inc "n" per_update; batch; dyn_scc ]
    | Spec.Kws _ | Spec.Rpq _ | Spec.Iso _ ->
        [ inc "" whole; inc "n" per_update; batch ]
  in
  { name; columns }

(* Default queries: what Exp-1, Exp-3 and the prose experiments run. *)
let kws g = Spec.Kws (pick_kws g 3 2)
let rpq g = Spec.Rpq (pick_rpq g 4)
let scc (_ : D.t) = Spec.Scc
let iso g = Spec.Iso (pick_iso g 4 6)
let sim g = Spec.Sim (pick_iso g 3 3)
let paper_classes = [ kws; rpq; scc; iso ]

let describe = function
  | Spec.Rpq q -> Format.printf "query: %s@." (Core.Regex.to_string q)
  | Spec.Iso p ->
      Format.printf "pattern: |VQ|=%d |EQ|=%d dQ=%d@."
        (Core.Iso.Pattern.n_nodes p) (Core.Iso.Pattern.n_edges p)
        (Core.Iso.Pattern.diameter p)
  | Spec.Sim p ->
      Format.printf "pattern: |VQ|=%d |EQ|=%d@." (Core.Iso.Pattern.n_nodes p)
        (Core.Iso.Pattern.n_edges p)
  | Spec.Kws _ | Spec.Scc -> ()

(* ---- measurement ------------------------------------------------------------ *)

(* An incremental column runs the workload twice, each time on an engine
   built untimed on its own copy of [g]: timed on [Obs.noop], as the batch
   columns are, then untimed against a fresh registry whose counters and
   histograms the cell keeps. Counters are deterministic, so the two runs
   do the same work. *)
let cell g ups = function
  | Inc (_, start) ->
      let apply = start Obs.noop g in
      let t = time (fun () -> apply ups) in
      let o = Obs.create () in
      let apply = start o g in
      Obs.reset o;
      apply ups;
      snapshot o t
  | Batch (_, run) ->
      let g' = D.copy g in
      no_cell
        (time (fun () ->
             D.apply_batch g' ups;
             run g'))

let point row g ups = List.map (cell g ups) row.columns

(* Each column over its reps, from one list of cells per rep. *)
let by_column runs =
  List.mapi
    (fun i _ -> over_reps (List.map (fun r -> List.nth r i) runs))
    (List.hd runs)

(* A point over cfg.reps distinct update batches. *)
let repeated row pct g =
  by_column
    (List.init cfg.reps (fun i ->
         let base, ups = updates_for g pct (i + 1) in
         point row base ups))

let header id name g =
  Format.printf "@.[%s] %s: %d nodes, %d edges@." id name (D.n_nodes g)
    (D.n_edges g)

(* Record one table's points in the report and print it. Every point ran
   the columns of one class; [title] gets its name. Returns the printed
   rows. *)
let emit ~id ~title ~xlabel points =
  let row, _, _ = List.hd points in
  let series = List.map series row.columns and title = title row.name in
  let trows =
    List.map
      (fun (_, x, cells) ->
        record ~id ~title ~x ~series cells;
        (x, cell_times cells))
      points
  in
  print_table ~title ~xlabel ~series trows;
  trows

(* ---- Exp-1: runtime vs |ΔG| ------------------------------------------------ *)

(* One query on [g], swept over |ΔG|; [title] gets the class name. *)
let delta_sweep ~id ~title g pick =
  let spec = pick g in
  describe spec;
  let row = table g spec in
  let points =
    List.map
      (fun pct -> (row, Printf.sprintf "%d%%" pct, repeated row pct g))
      (sweep [ 5; 10; 15; 20; 25; 30; 35; 40 ])
  in
  let trows = emit ~id ~title ~xlabel:"|ΔG|/|G|" points in
  report_wins ~inc:0 ~batch:(batch_col row) trows

let exp1 profile pick id =
  let g = instantiate profile in
  let graph = profile.W.Profiles.name in
  header id graph g;
  delta_sweep ~id g pick ~title:(fun cls ->
      Printf.sprintf "Fig 8(%c) — %s varying |ΔG| (%s)" id.[4] cls graph)

(* The fifth query class, exp1-shaped so its points carry the same
   latency/GC histogram sections as the four paper classes. *)
let sim_delta id =
  let g = instantiate W.Profiles.dbpedia_like in
  header id "dbpedia-like" g;
  delta_sweep ~id g sim ~title:(fun _ ->
      "Graph simulation varying |ΔG| (dbpedia)")

(* ---- Exp-2: query complexity ------------------------------------------------ *)

(* [pick g p] is parameter [p]'s query on [g] and the name of its row. *)
let exp2 ~varying ~xlabel pick params id =
  let g = instantiate W.Profiles.dbpedia_like in
  header id "dbpedia-like" g;
  let points =
    List.map
      (fun param ->
        let x, spec = pick g param in
        let row = table g spec in
        (row, x, repeated row 10 g))
      params
  in
  ignore
    (emit ~id ~xlabel points ~title:(fun cls ->
         Printf.sprintf "Fig 8(%c) — %s varying %s, |ΔG| = 10%% (dbpedia)"
           id.[4] cls varying))

(* ---- Exp-3: runtime vs |G| --------------------------------------------------- *)

let exp3 pick id =
  Format.printf "@.[%s] synthetic, scale sweep@." id;
  let full = instantiate W.Profiles.synthetic in
  let fixed_dg = 15 * D.n_edges full / 100 in
  let points =
    List.map
      (fun factor ->
        let rng = rng_of_point ("exp3graph", id, factor) in
        let g =
          W.Profiles.instantiate
            ~scale:(cfg.scale *. factor)
            ~rng W.Profiles.synthetic
        in
        let row = table g (pick g) in
        let rep i =
          let rng =
            if i = 1 then rng_of_point ("exp3ups", id, factor)
            else rng_of_point ("exp3ups", id, factor, i)
          in
          let base = D.copy g in
          let ups =
            W.Updates.generate_replay ~rng base
              ~size:(min fixed_dg (D.n_edges g / 2))
              ()
          in
          point row base ups
        in
        ( row,
          Printf.sprintf "%.1f" factor,
          by_column (List.init cfg.reps (fun i -> rep (i + 1))) ))
      [ 0.2; 0.4; 0.6; 0.8; 1.0 ]
  in
  ignore
    (emit ~id ~xlabel:"scale" points ~title:(fun cls ->
         Printf.sprintf "Fig 8(%c) — %s varying |G| (synthetic, |ΔG| fixed)"
           id.[4] cls))

(* ---- unit updates (Exp-1(5)) -------------------------------------------------- *)

(* Unit updates per rep, and how many of them the batch rerun is timed
   after: a rerun costs a whole batch run, so it is sampled. *)
let unit_count = 1000
let rerun_sample = 20

(* Seconds per unit update, per class: IncX called once per update,
   against the batch algorithm rerun after each of the first
   [rerun_sample] units, plus every column past the batch one (DynSCC,
   whose comparison the paper quotes as 5.7x). Each rep replays its own
   [unit_count] units onto its own base graph; a column's time is the
   median over reps of its mean seconds per update, and its counters are
   totals over the reps. *)
let unit_updates id =
  let full = instantiate W.Profiles.dbpedia_like in
  header id "dbpedia-like" full;
  let reps =
    List.init cfg.reps (fun i ->
        let g = D.copy full in
        let rng = rng_of_point ("unit_updates", i + 1) in
        (g, W.Updates.generate_replay ~rng g ~size:unit_count ()))
  in
  let per_unit (g, units) = function
    | Inc (s, start) ->
        let one_by_one o g =
          let step = start o g in
          List.iter (fun u -> step [ u ])
        in
        let c = cell g units (Inc (s, one_by_one)) in
        { c with time = c.time /. float_of_int (List.length units) }
    | Batch (_, run) ->
        let g' = D.copy g in
        let times =
          List.map
            (fun up ->
              D.apply_batch g' [ up ];
              time (fun () -> run g'))
            (List.filteri (fun i _ -> i < rerun_sample) units)
        in
        no_cell
          (List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times))
  in
  List.iter
    (fun pick ->
      let row = table full (pick full) in
      let b = batch_col row in
      let columns =
        List.hd row.columns :: List.filteri (fun i _ -> i >= b) row.columns
      in
      let cells =
        by_column (List.map (fun rep -> List.map (per_unit rep) columns) reps)
      in
      record ~id ~title:"Unit updates: seconds per update (dbpedia)"
        ~x:row.name ~series:(List.map series columns) cells;
      let inc = List.hd cells and batch = List.nth cells 1 in
      Format.printf
        "%-8s per unit update: inc %.2fus  batch rerun %.2fus  speedup %.0fx@."
        row.name (inc.time *. 1e6) (batch.time *. 1e6)
        (batch.time /. Float.max 1e-12 inc.time);
      List.iteri
        (fun i c ->
          if i > 1 then
            Format.printf "         %s %.2fus (%.1fx %s's time)@."
              (series (List.nth columns i)) (c.time *. 1e6)
              (c.time /. Float.max 1e-12 inc.time)
              (series (List.hd columns)))
        cells)
    paper_classes

(* ---- optimization gain summary (prose) ----------------------------------------- *)

let opt_gain id =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf "@.[%s] IncX vs IncXn at |ΔG| = 10%% (dbpedia-like, %d edges)@."
    id (D.n_edges g);
  let batches = List.init cfg.reps (fun i -> updates_for g 10 (i + 1)) in
  List.iter
    (fun pick ->
      let row = table g (pick g) in
      let columns = List.filteri (fun i _ -> i < 2) row.columns in
      let cells =
        by_column
          (List.map
             (fun (base, ups) -> List.map (cell base ups) columns)
             batches)
      in
      let inc = List.nth cells 0 and incn = List.nth cells 1 in
      record ~id ~title:"IncX vs IncXn at |ΔG| = 10%" ~x:row.name
        ~series:[ "IncX"; "IncXn" ] cells;
      Format.printf "%-6s IncX %.4fs  IncXn %.4fs  gain %.2fx@." row.name
        inc.time incn.time
        (incn.time /. Float.max 1e-9 inc.time))
    paper_classes

(* ---- ρ sweep (prose) ------------------------------------------------------------ *)

let rho_sweep id =
  let g = instantiate W.Profiles.dbpedia_like in
  Format.printf "@.[%s] insert/delete ratio, |ΔG| = 10%% (dbpedia-like)@." id;
  let size = D.n_edges g / 10 in
  let leads =
    List.map
      (fun pick ->
        match (table g (pick g)).columns with
        | Inc (s, start) :: _ -> (s, start)
        | _ -> assert false)
      paper_classes
  in
  let rows =
    List.map
      (fun rho ->
        let rng = rng_of_point ("rho", int_of_float (rho *. 10.)) in
        let g = D.copy g in
        let ups = W.Updates.generate_replay ~rng g ~size ~ratio:rho () in
        ( Printf.sprintf "ρ=%.1f" rho,
          List.map
            (fun (_, start) ->
              let apply = start Obs.noop g in
              time (fun () -> apply ups))
            leads ))
      [ 0.2; 1.0; 5.0 ]
  in
  print_table ~title:"ρ-insensitivity of the incremental algorithms"
    ~xlabel:"ratio" ~series:(List.map fst leads) rows

(* ---- traversal scaling ----------------------------------------------------------- *)

(* Batch traversal kernels against graph size — the regime where the graph
   core's memory layout, not engine bookkeeping, dominates cost. Each point
   builds a fresh synthetic graph at a fraction of --scale and runs each
   kernel once inside [Obs.with_apply], so the latency and gc_* histograms
   capture work attributable to the traversal itself. At --scale 20 the
   top point is a million-node, two-million-edge graph. *)
let trav id =
  let series = [ "Tarjan"; "NFA"; "kdist" ] in
  let batch_cell run =
    let o = Obs.create () in
    snapshot o (time (fun () -> Obs.with_apply o run))
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
        Format.printf "@.[%s] synthetic ×%.2f: %d nodes, %d edges@." id f n
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
        record ~id ~title ~x ~series cells;
        (x, cells))
      (sweep [ 0.2; 0.4; 0.6; 0.8; 1.0 ])
  in
  print_table ~title ~xlabel:"|V|" ~series
    (List.map (fun (x, cells) -> (x, cell_times cells)) rows)

(* ---- unboundedness demo ----------------------------------------------------------- *)

let unbounded id =
  Format.printf
    "@.[%s] Fig. 9 gadget: work for the output-silent Δ1 vs |CHANGED|@." id;
  Format.printf "%-10s%12s%14s@." "cycle n" "|CHANGED|" "inc work";
  List.iter
    (fun p ->
      Format.printf "%-10d%12d%14d@." p.Core.Theory.Gadget.n
        p.Core.Theory.Gadget.changed p.Core.Theory.Gadget.inc_work)
    (Core.Theory.Gadget.demo ~cycles:[ 64; 128; 256; 512; 1024 ])

(* ---- experiment registry -------------------------------------------------------------- *)

(* Each experiment is handed its own id. *)
let experiments : (string * (string -> unit)) list =
  [
    ("fig8a", exp1 W.Profiles.dbpedia_like kws);
    ("fig8b", exp1 W.Profiles.dbpedia_like rpq);
    ("fig8c", exp1 W.Profiles.dbpedia_like scc);
    ("fig8d", exp1 W.Profiles.dbpedia_like iso);
    ("fig8e", exp1 W.Profiles.livej_like kws);
    ("fig8f", exp1 W.Profiles.livej_like rpq);
    ("fig8g", exp1 W.Profiles.livej_like scc);
    ("fig8h", exp1 W.Profiles.livej_like iso);
    ("fig8i", exp1 W.Profiles.synthetic scc);
    ( "fig8j",
      exp2 ~varying:"(m,b)" ~xlabel:"(m,b)"
        (fun g (m, b) ->
          (Printf.sprintf "(%d,%d)" m b, Spec.Kws (pick_kws g m b)))
        [ (2, 1); (3, 2); (4, 3); (5, 4); (6, 5) ] );
    ( "fig8k",
      exp2 ~varying:"|Q|" ~xlabel:"|Q|"
        (fun g size -> (string_of_int size, Spec.Rpq (pick_rpq g size)))
        [ 3; 4; 5; 6; 7 ] );
    ( "fig8l",
      exp2 ~varying:"(|VQ|,|EQ|,dQ)" ~xlabel:"(V,E,d)"
        (fun g (vq, eq) ->
          let p = pick_iso g vq eq in
          ( Printf.sprintf "(%d,%d,%d)" vq eq (Core.Iso.Pattern.diameter p),
            Spec.Iso p ))
        [ (3, 5); (4, 6); (5, 7); (6, 8); (7, 9) ] );
    ("fig8m", exp3 kws);
    ("fig8n", exp3 rpq);
    ("fig8o", exp3 scc);
    ("fig8p", exp3 iso);
    ("unit_updates", unit_updates);
    ("opt_gain", opt_gain);
    ("rho_sweep", rho_sweep);
    ("sim_delta", sim_delta);
    ("trav", trav);
    ("unbounded", unbounded);
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
             ( "experiments",
               Json.Arr (List.map (fun id -> Json.Str id) wanted) );
           ]
         ());
  Format.printf
    "incgraph bench — scale %.2f, reps %d, seed %d@.reproducing: %s@."
    cfg.scale cfg.reps cfg.seed
    (String.concat ", " wanted);
  (* A failed or unknown experiment does not stop the others, but makes
     the exit status 1 once the report is written. *)
  let failed = ref false in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> (
          match time (fun () -> f id) with
          | t -> Format.printf "[%s done in %.1fs]@." id t
          | exception e ->
              failed := true;
              Format.printf "[%s FAILED: %s]@." id (Printexc.to_string e))
      | None ->
          failed := true;
          Format.printf "unknown experiment %s (skipped)@." id)
    wanted;
  (match !report with
  | Some r -> Report.write ~path:cfg.out r
  | None -> ());
  Format.printf "@.all experiments complete; report written to %s@." cfg.out;
  if !failed then exit 1
