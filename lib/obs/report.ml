(* Schema-versioned BENCH reports.

   One report = one bench invocation: tool identity, configuration, and a
   list of experiments, each a list of data points. A point carries the
   x-axis label, per-series wall-clock timings (seconds), per-series
   counter snapshots (the Obs counters of the engine that produced the
   series), and per-series speedups against the point's batch baseline.

   Schema (version 2, the only one read or written):

     { "schema_version": 2,
       "tool": <string>,
       "created_unix": <number>,
       "config": { <string>: <json>, ... },
       "experiments": [
         { "id": <string>, "title": <string>,
           "points": [
             { "x": <string>,
               "timings": { <series>: <seconds>, ... },
               "counters": { <series>: { <counter>: <int>, ... }, ... },
               "speedup_vs_batch": { <series>: <ratio>, ... },
               "histograms": { <series>: { <name>: <histogram>, ... }, ... },
               "gc": { <series>: { <stat>: <words>, ... }, ... } } ] } ] }

   The "histograms" section carries {!Histogram.to_json} values — per-
   update latency ("apply_latency_s") and GC-delta distributions — and
   "gc" the per-point word totals. Both are present on every point,
   empty for a series that keeps no registry (batch baselines). Two runs
   are compared by joining on
   (experiment id, point x, series); see {!compare_reports}. *)

let schema_version = 2

type point = {
  x : string;
  timings : (string * float) list;
  counters : (string * (string * int) list) list;
  speedup : (string * float) list;
  hists : (string * (string * Histogram.t) list) list;
  gc : (string * (string * float) list) list;
}

type experiment = {
  id : string;
  title : string;
  mutable points : point list; (* reverse insertion order *)
}

type t = {
  tool : string;
  created : float;
  config : (string * Json.t) list;
  mutable experiments : experiment list; (* reverse insertion order *)
}

let create ~tool ~config () =
  { tool; created = Unix.time (); config; experiments = [] }

let experiment t ~id ~title =
  match List.find_opt (fun e -> e.id = id) t.experiments with
  | Some e -> e
  | None ->
      let e = { id; title; points = [] } in
      t.experiments <- e :: t.experiments;
      e

let add_point e ~x ?(timings = []) ?(counters = []) ?(speedup = [])
    ?(histograms = []) ?(gc = []) () =
  let counters = List.filter (fun (_, cs) -> cs <> []) counters in
  let hists = List.filter (fun (_, hs) -> hs <> []) histograms in
  let gc = List.filter (fun (_, ws) -> ws <> []) gc in
  e.points <- { x; timings; counters; speedup; hists; gc } :: e.points

let point_to_json p =
  let base =
    [
      ("x", Json.Str p.x);
      ( "timings",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) p.timings) );
      ( "counters",
        Json.Obj
          (List.map
             (fun (series, cs) ->
               (series, Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs)))
             p.counters) );
      ( "speedup_vs_batch",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) p.speedup) );
    ]
  in
  Json.Obj
    (base
    @ [
        ( "histograms",
          Json.Obj
            (List.map
               (fun (series, hs) ->
                 ( series,
                   Json.Obj
                     (List.map (fun (k, h) -> (k, Histogram.to_json h)) hs) ))
               p.hists) );
        ( "gc",
          Json.Obj
            (List.map
               (fun (series, ws) ->
                 (series, Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) ws)))
               p.gc) );
      ])

let to_json t =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("tool", Json.Str t.tool);
      ("created_unix", Json.Float t.created);
      ("config", Json.Obj t.config);
      ( "experiments",
        Json.Arr
          (List.rev_map
             (fun e ->
               Json.Obj
                 [
                   ("id", Json.Str e.id);
                   ("title", Json.Str e.title);
                   ("points", Json.Arr (List.rev_map point_to_json e.points));
                 ])
             t.experiments) );
    ]

let write ~path t =
  let oc = (open_out [@lint.allow "D3"]) path in
  output_string oc (Json.to_string ~indent:true (to_json t));
  output_char oc '\n';
  close_out oc

(* ---- reading ---------------------------------------------------------------- *)

let ( let* ) = Result.bind

let field obj k what conv =
  match Option.bind (Json.member k obj) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed %S (%s)" k what)

(* [f] over every element, in order; the first failure wins. *)
let decode_all f xs =
  Result.map List.rev
    (List.fold_left
       (fun acc x ->
         let* ys = acc in
         let* y = f x in
         Ok (y :: ys))
       (Ok []) xs)

let point_of_json eid p =
  let* x = field p "x" "string" Json.to_str_opt in
  let fail fmt =
    Printf.ksprintf (fun e -> Error (Printf.sprintf "%s/%s: %s" eid x e)) fmt
  in
  let* timings = field p "timings" "object" Json.to_obj_opt in
  let* counters = field p "counters" "object" Json.to_obj_opt in
  let* speedup = field p "speedup_vs_batch" "object" Json.to_obj_opt in
  let number (k, v) =
    match Json.to_float_opt v with
    | Some f -> Ok (k, f)
    | None -> fail "timing %S is not a number" k
  in
  let* timings = decode_all number timings in
  let* speedup = decode_all number speedup in
  let* hists = field p "histograms" "object" Json.to_obj_opt in
  let* gc = field p "gc" "object" Json.to_obj_opt in
  (* A per-series section: an object of objects, each value through [f]. *)
  let section name f (series, j) =
    match Json.to_obj_opt j with
    | None -> fail "%s[%S] not an object" name series
    | Some kvs ->
        let* kvs = decode_all (f series) kvs in
        Ok (series, kvs)
  in
  let* hists =
    decode_all
      (section "histograms" (fun series (k, hj) ->
           match Histogram.of_json hj with
           | Ok h -> Ok (k, h)
           | Error e -> fail "%s/%s: %s" series k e))
      hists
  in
  let* gc =
    decode_all
      (section "gc" (fun series (k, v) ->
           match Json.to_float_opt v with
           | Some w -> Ok (k, w)
           | None -> fail "gc stat %s/%s is not a number" series k))
      gc
  in
  let* counters =
    decode_all
      (section "counters" (fun series (k, v) ->
           match Json.to_int_opt v with
           | Some n when n >= 0 -> Ok (k, n)
           | _ -> fail "counter %s/%s is not a non-negative int" series k))
      counters
  in
  Ok { x; timings; counters; speedup; hists; gc }

let experiment_of_json e =
  let* id = field e "id" "string" Json.to_str_opt in
  let* title = field e "title" "string" Json.to_str_opt in
  let* points = field e "points" "array" Json.to_list_opt in
  let* points = decode_all (point_of_json id) points in
  Ok { id; title; points = List.rev points }

let of_json json =
  let* v = field json "schema_version" "int" Json.to_int_opt in
  if v <> schema_version then
    Error (Printf.sprintf "schema_version %d, expected %d" v schema_version)
  else
    let* tool = field json "tool" "string" Json.to_str_opt in
    let* created = field json "created_unix" "number" Json.to_float_opt in
    let* config = field json "config" "object" Json.to_obj_opt in
    let* exps = field json "experiments" "array" Json.to_list_opt in
    let* exps = decode_all experiment_of_json exps in
    Ok { tool; created; config; experiments = List.rev exps }

(* ---- regression comparison --------------------------------------------------

   The machinery behind bench/compare.exe (the @bench-gate alias): pair
   every (experiment, x, series) across two reports, compute the timing
   and latency-p99 ratios, and flag regressions beyond a noise threshold.
   Pairs whose timings sit below [min_time] are reported but never
   flagged — at smoke scales the measurements are microseconds of noise,
   and the gate must stay deterministic. The exact counters are joined on
   the same keys and have no threshold. *)

type key = string * string * string

type cmp_cell = {
  ckey : key;
  old_time : float;
  new_time : float;
  old_p99 : float option; (* of the apply-latency histogram, when present *)
  new_p99 : float option;
}

type counter_diff = {
  dkey : key;
  counter : string;
  old_v : int option;
  new_v : int option;
}

type comparison = {
  cells : cmp_cell list;
  only_old : key list;
  only_new : key list;
  counted : int;
  diffs : counter_diff list;
}

(* Every point of a report, keyed (experiment id, x), in file order. *)
let points r =
  List.concat_map
    (fun e -> List.rev_map (fun p -> ((e.id, p.x), p)) e.points)
    (List.rev r.experiments)

let p99 p series =
  match
    Option.bind
      (List.assoc_opt series p.hists)
      (List.assoc_opt "apply_latency_s")
  with
  | Some h when Histogram.count h > 0 -> Some (Histogram.p99 h)
  | _ -> None

let compare_reports old_r new_r =
  let olds = points old_r and news = points new_r in
  let both =
    List.filter_map
      (fun (pt, o) -> Option.map (fun n -> (pt, o, n)) (List.assoc_opt pt news))
      olds
  in
  let cells =
    List.concat_map
      (fun ((id, x), o, n) ->
        List.filter_map
          (fun (s, new_time) ->
            Option.map
              (fun old_time ->
                {
                  ckey = (id, x, s);
                  old_time;
                  new_time;
                  old_p99 = p99 o s;
                  new_p99 = p99 n s;
                })
              (List.assoc_opt s o.timings))
          n.timings)
      both
  in
  let timed ps =
    List.concat_map
      (fun ((id, x), p) -> List.map (fun (s, _) -> (id, x, s)) p.timings)
      ps
  in
  let unpaired a b = List.filter (fun k -> not (List.mem k b)) a in
  (* At every point both reports measured, each series' counters: the old
     report's series, then the new one's, and a series or a counter on
     one side only is a difference. *)
  let series =
    List.concat_map
      (fun ((id, x), o, n) ->
        let names = List.map fst o.counters in
        let get p s = Option.value ~default:[] (List.assoc_opt s p.counters) in
        let added =
          List.filter
            (fun s -> not (List.mem s names))
            (List.map fst n.counters)
        in
        List.map (fun s -> ((id, x, s), get o s, get n s)) (names @ added))
      both
  in
  let diffs =
    List.concat_map
      (fun (dkey, o, n) ->
        List.filter_map
          (fun counter ->
            let old_v = List.assoc_opt counter o
            and new_v = List.assoc_opt counter n in
            if old_v = new_v then None
            else Some { dkey; counter; old_v; new_v })
          (List.sort_uniq String.compare (List.map fst (o @ n))))
      series
  in
  {
    cells;
    only_old = unpaired (timed olds) (timed news);
    only_new = unpaired (timed news) (timed olds);
    counted = List.length series;
    diffs;
  }

(* A cell regresses when its wall time or its latency p99 grew by more
   than [threshold] percent — and the grown value is above the noise
   floor. *)
let cell_regresses ~threshold ~min_time c =
  let factor = 1.0 +. (threshold /. 100.0) in
  let worse old_v new_v =
    new_v >= min_time && old_v > 0.0 && new_v > old_v *. factor
  in
  worse c.old_time c.new_time
  ||
  match (c.old_p99, c.new_p99) with
  | Some op, Some np -> worse op np
  | _ -> false

let regressions ~threshold ~min_time cmp =
  List.filter (cell_regresses ~threshold ~min_time) cmp.cells

let pp_comparison ~threshold ~min_time ppf cmp =
  let ratio o n = if o > 0.0 then n /. o else Float.infinity in
  let pp_opt ppf = function
    | None -> Format.fprintf ppf "%10s" "-"
    | Some v -> Format.fprintf ppf "%10.6f" v
  in
  Format.fprintf ppf "%-12s %-8s %-10s %10s %10s %7s %10s %10s %7s  %s@."
    "experiment" "x" "series" "old(s)" "new(s)" "ratio" "p99-old" "p99-new"
    "p99-r" "flag";
  List.iter
    (fun c ->
      let id, x, series = c.ckey in
      let r = ratio c.old_time c.new_time in
      let p99_r =
        match (c.old_p99, c.new_p99) with
        | Some o, Some n when o > 0.0 -> Printf.sprintf "%.2fx" (n /. o)
        | _ -> "-"
      in
      let flag =
        if cell_regresses ~threshold ~min_time c then "REGRESSION"
        else if Float.max c.old_time c.new_time < min_time then "(noise floor)"
        else if r < 1.0 /. (1.0 +. (threshold /. 100.0)) then "improved"
        else ""
      in
      Format.fprintf ppf "%-12s %-8s %-10s %10.6f %10.6f %6.2fx %a %a %7s  %s@."
        id x series c.old_time c.new_time r pp_opt c.old_p99 pp_opt c.new_p99
        p99_r flag)
    cmp.cells;
  let dropped = List.length cmp.only_old and added = List.length cmp.only_new in
  if dropped > 0 || added > 0 then
    Format.fprintf ppf "unpaired: %d only in OLD, %d only in NEW@." dropped
      added;
  let regs = regressions ~threshold ~min_time cmp in
  Format.fprintf ppf
    "%d pair(s) compared, %d regression(s) beyond %+.0f%% (noise floor %gs)@."
    (List.length cmp.cells) (List.length regs) threshold min_time
