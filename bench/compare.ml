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
          match Report.of_json json with
          | Error e ->
              Printf.eprintf "compare: %s: invalid BENCH file: %s\n" path e;
              exit 2
          | Ok r -> r))

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
      let cmp = Report.compare_reports (load old_path) (load new_path) in
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
      let show = Option.fold ~none:"absent" ~some:string_of_int in
      List.iter
        (fun { Report.dkey = id, x, series; counter; old_v; new_v } ->
          Format.printf "COUNTER %s %s %s %s: %s (old) vs %s (new)@." id x
            series counter (show old_v) (show new_v))
        cmp.diffs;
      Format.printf "exact work: %d series compared, %d counter difference(s)@."
        cmp.counted (List.length cmp.diffs);
      if regs <> [] || cmp.diffs <> [] then exit 1
  | _ -> usage ()
