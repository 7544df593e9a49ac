(* Validate BENCH_*.json reports, TRACE_*.json Chrome trace files,
   incgraph-lint reports, and the durability artifacts of lib/journal.

   Usage: dune exec bench/validate.exe -- FILE [FILE...]
   Files starting with the "IGJRNL01" magic are checked as delta journals
   (Core.Journal.Log.scan: decodable header, checksummed records with
   contiguous sequence numbers, clean tail — a torn tail is a validation
   failure, run `incgraph journal DIR --repair` first). Files carrying a
   "traceEvents" key are checked as Chrome trace-event exports
   (Core.Obs.Trace_export.validate: well-formed events, nesting spans,
   monotone timestamps, rule-tagged aff_enter instants); files whose
   "tool" is "incgraph-lint" as lint reports (Core.Lint.validate, schema
   v4); files whose "tool" is "incgraph-journal-snapshot" as certificate
   snapshots (Core.Journal.Snapshot.validate: structure + self-checksum);
   everything else as a BENCH report (Core.Obs.Report.of_json, which also
   yields the experiment and point counts). Exits nonzero on the first
   file that fails to parse or validate. Used by the @bench-smoke,
   @trace-smoke, @crash-smoke and @lint aliases to guarantee that what
   the writers emit is what the validators promise. *)

module Json = Core.Obs.Json
module Report = Core.Obs.Report
module Trace_export = Core.Obs.Trace_export
module Lint = Core.Lint
module J = Core.Journal

type kind =
  | Bench of int * int (* experiments, points *)
  | Trace of int
  | Lint_report of int * int (* schema version, diagnostics *)
  | Journal of int * int (* committed batches, total ops *)
  | Snapshot of int * int (* seq, certificate sections *)

let check path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  if
    String.length src >= String.length J.Record.magic
    && String.sub src 0 (String.length J.Record.magic) = J.Record.magic
  then
    match J.Log.scan ~path with
    | Error e -> Error (Printf.sprintf "%s: journal violation: %s" path e)
    | Ok s -> (
        match s.J.Log.tail with
        | J.Log.Torn { offset; dropped; reason } ->
            Error
              (Printf.sprintf
                 "%s: journal violation: torn tail at byte %d (%d byte(s), \
                  %s) — repair before archiving"
                 path offset dropped reason)
        | J.Log.Clean ->
            let ops =
              List.fold_left
                (fun acc (b : J.Record.batch) ->
                  acc + List.length b.J.Record.ops)
                0 s.J.Log.batches
            in
            Ok (Journal (List.length s.J.Log.batches, ops)))
  else
  match Json.parse src with
  | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e)
  | Ok json when Json.member "traceEvents" json <> None -> (
      match Trace_export.validate json with
      | Error e -> Error (Printf.sprintf "%s: trace violation: %s" path e)
      | Ok n -> Ok (Trace n))
  | Ok json
    when Option.bind (Json.member "tool" json) Json.to_str_opt
         = Some "incgraph-lint" -> (
      match Lint.validate json with
      | Error e -> Error (Printf.sprintf "%s: lint-report violation: %s" path e)
      | Ok (version, n) -> Ok (Lint_report (version, n)))
  | Ok json
    when Option.bind (Json.member "tool" json) Json.to_str_opt
         = Some J.Snapshot.tool_name -> (
      match J.Snapshot.validate json with
      | Error e -> Error (Printf.sprintf "%s: snapshot violation: %s" path e)
      | Ok s -> Ok (Snapshot (s.J.Snapshot.seq, List.length s.J.Snapshot.certs)))
  | Ok json -> (
      match Report.of_json json with
      | Error e -> Error (Printf.sprintf "%s: schema violation: %s" path e)
      | Ok r ->
          let exps = r.Report.experiments in
          Ok
            (Bench
               ( List.length exps,
                 List.fold_left
                   (fun n e -> n + List.length e.Report.points)
                   0 exps )))

let () =
  let files =
    match List.tl (Array.to_list Sys.argv) with
    | [] ->
        prerr_endline "usage: validate FILE.json [FILE.json...]";
        exit 2
    | fs -> fs
  in
  List.iter
    (fun path ->
      match check path with
      | Ok (Bench (n_exp, n_pts)) ->
          Printf.printf "%s: valid (schema v%d, %d experiments, %d points)\n"
            path Report.schema_version n_exp n_pts
      | Ok (Trace n) ->
          Printf.printf "%s: valid chrome trace (%d events)\n" path n
      | Ok (Lint_report (version, n)) ->
          Printf.printf "%s: valid lint report (schema v%d, %d diagnostics)\n"
            path version n
      | Ok (Journal (batches, ops)) ->
          Printf.printf "%s: valid journal (%d committed batch(es), %d op(s))\n"
            path batches ops
      | Ok (Snapshot (seq, certs)) ->
          Printf.printf
            "%s: valid snapshot (seq %d, %d certificate section(s))\n" path seq
            certs
      | Error msg ->
          prerr_endline msg;
          exit 1)
    files
