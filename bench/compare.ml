(* Regression detector over two BENCH json files.

   Usage: dune exec bench/compare.exe -- OLD.json NEW.json
            [--threshold PCT] [--min-time S]

   Pairs every (experiment, x, series) present in both files, computes the
   wall-timing ratio and — when schema-v2 latency histograms are present —
   the apply-latency p99 ratio, prints the delta table, and exits 1 when
   any pair regressed by more than --threshold percent above the
   --min-time noise floor. Exit 2 on usage or unreadable/invalid input.

   Exact work is gated too: at every (experiment, x) point present in
   both files, each series' counter map (|AFF|, |CHANGED|, edges relaxed,
   queue pushes, ...) must be equal, and a counter present on only one
   side is a difference. The counters are deterministic, so this check
   has no threshold; any difference is printed and exits 1.

   The @bench-gate runtest alias runs this against the committed
   bench/BENCH_baseline.json with a deliberately generous threshold:
   smoke-scale timings are noisy, and the gate must stay deterministic —
   it exists to catch order-of-magnitude blowups and schema breaks, not
   3% drift. Real performance comparisons re-run at full scale with a
   tight threshold (see EXPERIMENTS.md). *)

module Report = Core.Obs.Report
module Json = Core.Obs.Json

let usage () =
  prerr_endline
    "usage: compare OLD.json NEW.json [--threshold PCT] [--min-time S]";
  exit 2

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e ->
      Printf.eprintf "compare: cannot read %s: %s\n" path e;
      exit 2
  | text -> (
      match Json.parse text with
      | Error e ->
          Printf.eprintf "compare: %s: parse error: %s\n" path e;
          exit 2
      | Ok json -> (
          match Report.validate json with
          | Error e ->
              Printf.eprintf "compare: %s: invalid BENCH file: %s\n" path e;
              exit 2
          | Ok () -> json))

(* ((experiment, x), [(series, [(counter, value)])]) for every point of a
   validated BENCH file (so every value is an int), in file order. *)
let points_of json =
  let list j k =
    Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list_opt)
  and str j k =
    Option.value ~default:"" (Option.bind (Json.member k j) Json.to_str_opt)
  and obj j = Option.value ~default:[] (Json.to_obj_opt j) in
  List.concat_map
    (fun e ->
      List.map
        (fun p ->
          let cs = Option.fold ~none:[] ~some:obj (Json.member "counters" p) in
          ((str e "id", str p "x"), List.map (fun (s, c) -> (s, obj c)) cs))
        (list e "points"))
    (list json "experiments")

(* Print every counter that differs at a point both files measured;
   returns (series compared, differences). *)
let compare_counters ~old_json ~new_json =
  let news = points_of new_json in
  let show = Option.fold ~none:"absent" ~some:(Json.to_string ~indent:false) in
  let compared = ref 0 and diffs = ref 0 in
  List.iter
    (fun (((id, x) as pt), olds) ->
      match List.assoc_opt pt news with
      | None -> ()
      | Some news ->
          let only_new =
            List.filter (fun (s, _) -> not (List.mem_assoc s olds)) news
          in
          List.iter
            (fun (series, _) ->
              incr compared;
              let side ss = Option.value ~default:[] (List.assoc_opt series ss) in
              let o = side olds and n = side news in
              List.iter
                (fun c ->
                  let ov = List.assoc_opt c o and nv = List.assoc_opt c n in
                  if ov <> nv then begin
                    incr diffs;
                    Format.printf "COUNTER %s %s %s %s: %s (old) vs %s (new)@."
                      id x series c (show ov) (show nv)
                  end)
                (List.sort_uniq String.compare (List.map fst (o @ n))))
            (olds @ only_new))
    (points_of old_json);
  (!compared, !diffs)

let () =
  let threshold = ref 25.0 and min_time = ref 1e-4 in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        threshold := float_of_string v;
        parse rest
    | "--min-time" :: v :: rest ->
        min_time := float_of_string v;
        parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        Printf.eprintf "compare: unknown option %s\n" a;
        usage ()
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.rev !paths with
  | [ old_path; new_path ] ->
      let old_json = load old_path and new_json = load new_path in
      let cmp = Report.compare_reports ~old_json ~new_json in
      Format.printf "comparing %s (old) vs %s (new)@." old_path new_path;
      Format.printf "%a"
        (Report.pp_comparison ~threshold:!threshold ~min_time:!min_time)
        cmp;
      if cmp.Report.cells = [] then begin
        Format.printf "no common data points — nothing compared@.";
        exit 2
      end;
      let regs =
        Report.regressions ~threshold:!threshold ~min_time:!min_time cmp
      in
      let series, diffs = compare_counters ~old_json ~new_json in
      Format.printf "exact work: %d series compared, %d counter difference(s)@."
        series diffs;
      if regs <> [] || diffs > 0 then exit 1
  | _ -> usage ()
