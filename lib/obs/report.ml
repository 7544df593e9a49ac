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
let supported_versions = [ 2 ]

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

(* ---- validation ------------------------------------------------------------ *)

(* Structural schema check for consumers (the @bench-smoke and @bench-gate
   aliases, diff tooling). Accepts every version in [supported_versions].
   Returns the first violation found. *)
let validate json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let req obj k what conv =
    match Option.bind (Json.member k obj) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed %S (%s)" k what)
  in
  let* v = req json "schema_version" "int" Json.to_int_opt in
  if not (List.mem v supported_versions) then
    Error
      (Printf.sprintf "schema_version %d, expected one of %s" v
         (String.concat ", " (List.map string_of_int supported_versions)))
  else
    let* _ = req json "tool" "string" Json.to_str_opt in
    let* _ = req json "created_unix" "number" Json.to_float_opt in
    let* _ = req json "config" "object" Json.to_obj_opt in
    let* exps = req json "experiments" "array" Json.to_list_opt in
    let check_point eid p =
      let* x = req p "x" "string" Json.to_str_opt in
      let where what = Printf.sprintf "%s/%s: %s" eid x what in
      let* timings = req p "timings" "object" Json.to_obj_opt in
      let* counters = req p "counters" "object" Json.to_obj_opt in
      let* speedup = req p "speedup_vs_batch" "object" Json.to_obj_opt in
      let* () =
        List.fold_left
          (fun acc (k, v) ->
            let* () = acc in
            if Json.to_float_opt v = None then
              Error (where (Printf.sprintf "timing %S is not a number" k))
            else Ok ())
          (Ok ()) (timings @ speedup)
      in
      let* hists = req p "histograms" "object" Json.to_obj_opt in
      let* gc = req p "gc" "object" Json.to_obj_opt in
      let* () =
        (* Every embedded histogram must pass the Histogram validator,
           every gc stat must be a number. *)
        List.fold_left
          (fun acc (sname, hs) ->
            let* () = acc in
            match Json.to_obj_opt hs with
            | None ->
                Error
                  (where (Printf.sprintf "histograms[%S] not an object" sname))
            | Some hs ->
                List.fold_left
                  (fun acc (hname, hj) ->
                    let* () = acc in
                    match Histogram.validate hj with
                    | Ok () -> Ok ()
                    | Error e ->
                        Error
                          (where (Printf.sprintf "%s/%s: %s" sname hname e)))
                  (Ok ()) hs)
          (Ok ()) hists
      in
      let* () =
        List.fold_left
          (fun acc (sname, ws) ->
            let* () = acc in
            match Json.to_obj_opt ws with
            | None ->
                Error (where (Printf.sprintf "gc[%S] not an object" sname))
            | Some ws ->
                List.fold_left
                  (fun acc (k, v) ->
                    let* () = acc in
                    if Json.to_float_opt v = None then
                      Error
                        (where
                           (Printf.sprintf "gc stat %s/%s is not a number"
                              sname k))
                    else Ok ())
                  (Ok ()) ws)
          (Ok ()) gc
      in
      List.fold_left
        (fun acc (series, snap) ->
          let* () = acc in
          match Json.to_obj_opt snap with
          | None -> Error (where (Printf.sprintf "counters[%S] not an object" series))
          | Some cs ->
              List.fold_left
                (fun acc (k, v) ->
                  let* () = acc in
                  match Json.to_int_opt v with
                  | Some n when n >= 0 -> Ok ()
                  | _ ->
                      Error
                        (where
                           (Printf.sprintf
                              "counter %s/%s is not a non-negative int" series k)))
                (Ok ()) cs)
        (Ok ()) counters
    in
    List.fold_left
      (fun acc e ->
        let* () = acc in
        let* id = req e "id" "string" Json.to_str_opt in
        let* _ = req e "title" "string" Json.to_str_opt in
        let* points = req e "points" "array" Json.to_list_opt in
        List.fold_left
          (fun acc p ->
            let* () = acc in
            let* () = check_point id p in
            Ok ())
          (Ok ()) points)
      (Ok ()) exps

(* ---- regression comparison --------------------------------------------------

   The machinery behind bench/compare.exe (the @bench-gate alias): pair every (experiment, x, series) across two BENCH
   files, compute the timing and latency-p99 ratios, and flag regressions
   beyond a noise threshold. Pairs whose timings sit below [min_time] are
   reported but never flagged — at smoke scales the measurements are
   microseconds of noise, and the gate must stay deterministic. *)

type cmp_cell = {
  ckey : string * string * string; (* experiment id, x, series *)
  old_time : float;
  new_time : float;
  old_p99 : float option; (* of the apply-latency histogram, when present *)
  new_p99 : float option;
}

type comparison = {
  cells : cmp_cell list;
  only_old : (string * string * string) list;
  only_new : (string * string * string) list;
}

(* (key -> time, key -> p99) indexes of one BENCH json. *)
let index_report json =
  let times = ref [] and p99s = ref [] in
  (match Json.member "experiments" json with
  | Some (Json.Arr exps) ->
      List.iter
        (fun e ->
          match (Json.member "id" e, Json.member "points" e) with
          | Some (Json.Str id), Some (Json.Arr points) ->
              List.iter
                (fun p ->
                  match Json.member "x" p with
                  | Some (Json.Str x) ->
                      (match Json.member "timings" p with
                      | Some (Json.Obj ts) ->
                          List.iter
                            (fun (series, v) ->
                              match Json.to_float_opt v with
                              | Some f -> times := ((id, x, series), f) :: !times
                              | None -> ())
                            ts
                      | _ -> ());
                      (match Json.member "histograms" p with
                      | Some (Json.Obj hs) ->
                          List.iter
                            (fun (series, hobj) ->
                              match
                                Option.bind (Json.member "apply_latency_s" hobj)
                                  (fun hj ->
                                    Result.to_option (Histogram.of_json hj))
                              with
                              | Some h when Histogram.count h > 0 ->
                                  p99s :=
                                    ((id, x, series), Histogram.p99 h) :: !p99s
                              | _ -> ())
                            hs
                      | _ -> ())
                  | _ -> ())
                points
          | _ -> ())
        exps
  | _ -> ());
  (List.rev !times, List.rev !p99s)

let compare_reports ~old_json ~new_json =
  let old_times, old_p99s = index_report old_json in
  let new_times, new_p99s = index_report new_json in
  let cells =
    List.filter_map
      (fun (key, nt) ->
        match List.assoc_opt key old_times with
        | None -> None
        | Some ot ->
            Some
              {
                ckey = key;
                old_time = ot;
                new_time = nt;
                old_p99 = List.assoc_opt key old_p99s;
                new_p99 = List.assoc_opt key new_p99s;
              })
      new_times
  in
  let only_old =
    List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key new_times then None else Some key)
      old_times
  in
  let only_new =
    List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key old_times then None else Some key)
      new_times
  in
  { cells; only_old; only_new }

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
