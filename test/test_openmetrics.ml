(* Tests for the continuous-telemetry layer (lib/obs): the flight
   recorder's deterministic filter (the clock- and GC-derived series it
   drops from a metrics.jsonl line), the declarative SLO tracker (config
   parsing, trip/clear hysteresis, measurement sources, Slo_violation
   trace events), and the flight recorder itself (logical cadence, jsonl
   retention and compaction, byte-identical deterministic streams). *)

module O = Ig_obs.Obs
module S = Ig_obs.Slo
module F = Ig_obs.Flight
module T = Ig_obs.Tracer
module TE = Ig_obs.Trace_export
module J = Ig_obs.Json

let check = Alcotest.check

let contains needle text =
  let n = String.length needle and l = String.length text in
  let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* ---- SLO: config, hysteresis, trace events --------------------------------- *)

let test_slo_config () =
  (match S.of_config S.example_config with
  | Error e -> Alcotest.failf "example config rejected: %s" e
  | Ok rules ->
      check Alcotest.int "example config has four budgets" 4
        (List.length rules);
      check
        (Alcotest.list Alcotest.string)
        "sources round-trip through source_name"
        [
          "p99:apply_latency_s"; "ratio:aff/changed"; "gauge:csr_overlay_add";
          "p99:wal_fsync_latency_s";
        ]
        (List.map (fun r -> S.source_name r.S.source) rules);
      let r = List.hd rules in
      check Alcotest.int "trip= parsed" 2 r.S.trip_after;
      check Alcotest.int "clear= parsed" 3 r.S.clear_after);
  (match S.of_config "x p99:lat 0.5\nx gauge:g 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate rule name accepted");
  (match S.of_config "bad nonsense 1.0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown source kind accepted");
  match S.of_config "# only a comment\n\n" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "comment-only config produced rules"
  | Error e -> Alcotest.failf "comment-only config rejected: %s" e

let slo_events o =
  List.filter_map
    (fun e ->
      match e.T.event with
      | T.Slo_violation { rule; _ } -> Some rule
      | _ -> None)
    (O.events o).T.entries

let test_slo_hysteresis () =
  let rule =
    {
      S.name = "pressure";
      source = S.Gauge "g";
      limit = 10.0;
      trip_after = 2;
      clear_after = 2;
    }
  in
  let t = S.create [ rule ] in
  let o = O.create ~events:O.default_events () in
  let eval () =
    match S.evaluate t ~obs:o with
    | [ st ] -> st
    | _ -> Alcotest.fail "expected one status"
  in
  O.set_gauge o "g" 5;
  let st = eval () in
  check Alcotest.bool "in budget: not breaching" false st.S.breaching;
  O.set_gauge o "g" 50;
  let st = eval () in
  check Alcotest.bool "first breach: breaching" true st.S.breaching;
  check Alcotest.bool "first breach: not yet tripped" false st.S.tripped;
  check Alcotest.int "no violation before trip_after" 0 (S.violations t);
  let st = eval () in
  check Alcotest.bool "second consecutive breach trips" true st.S.tripped;
  check Alcotest.int "trip transition counted once" 1 (S.violations t);
  check
    (Alcotest.list Alcotest.string)
    "tripped rules listed" [ "pressure" ] (S.tripped t);
  check
    (Alcotest.list Alcotest.string)
    "Slo_violation event emitted with the rule tag" [ "pressure" ]
    (slo_events o);
  ignore (eval ());
  check Alcotest.int "steady breach does not re-emit" 1 (S.violations t);
  check Alcotest.int "steady breach adds no event" 1
    (List.length (slo_events o));
  O.set_gauge o "g" 3;
  let st = eval () in
  check Alcotest.bool "one ok evaluation is not enough to clear" true
    st.S.tripped;
  let st = eval () in
  check Alcotest.bool "clear_after consecutive oks clears" false st.S.tripped;
  check (Alcotest.list Alcotest.string) "nothing tripped after clear" []
    (S.tripped t);
  O.set_gauge o "g" 99;
  ignore (eval ());
  ignore (eval ());
  check Alcotest.int "re-trip is a fresh violation" 2 (S.violations t)

(* The rendering surface of the acceptance criterion: a trip transition
   must be visible in the human-readable explanation, rule tag and all. *)
let test_slo_explain () =
  let o = O.create ~events:O.default_events () in
  O.slo_violation o ~rule:"apply_p99" ~value:0.5 ~limit:0.01;
  let text =
    Format.asprintf "%a" (TE.pp_explain ~limit:10) (O.events o)
  in
  check Alcotest.bool "explain names the tripped rule" true
    (contains "apply_p99" text);
  check Alcotest.bool "explain has an SLO section" true
    (contains "SLO" text)

let test_slo_measure () =
  let o = O.create () in
  O.add o "a" 30;
  O.add o "b" 10;
  O.set_gauge o "g" 7;
  O.observe o "lat" 1.0;
  O.observe o "lat" 100.0;
  check (Alcotest.float 1e-9) "ratio of counters" 3.0
    (S.measure o (S.Ratio ("a", "b")));
  check (Alcotest.float 1e-9) "ratio with zero denominator reads 0" 0.0
    (S.measure o (S.Ratio ("a", "zero")));
  check (Alcotest.float 1e-9) "gauge level" 7.0 (S.measure o (S.Gauge "g"));
  check (Alcotest.float 1e-9) "counter level" 30.0
    (S.measure o (S.Counter "a"));
  check (Alcotest.float 1e-9) "missing histogram reads 0" 0.0
    (S.measure o (S.P99 "nope"));
  check Alcotest.bool "p50 between observed extremes" true
    (let v = S.measure o (S.P50 "lat") in
     v >= 1.0 && v <= 100.0);
  (* A short run: the p99 of three samples sits near the largest, so a
     budget the largest sample breaks must read as breached. *)
  List.iter (O.observe o "words") [ 5344.0; 5736.0; 9244.0 ];
  let budget =
    {
      S.name = "words_p99";
      source = S.P99 "words";
      limit = 9000.0;
      trip_after = 1;
      clear_after = 1;
    }
  in
  match S.evaluate (S.create [ budget ]) ~obs:o with
  | [ st ] ->
      check Alcotest.bool "p99 budget over three samples breached" true
        st.S.breaching
  | _ -> Alcotest.fail "expected one status"

(* ---- flight recorder ------------------------------------------------------- *)

let tmpdir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let read_file path = In_channel.with_open_text path In_channel.input_all

let jsonl_lines dir =
  let path = Filename.concat dir "metrics.jsonl" in
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")

let parse_line line =
  match J.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "jsonl line unparsable: %s" e

(* The value at a path of object keys, if every key is present. *)
let at keys j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) keys

let int_at keys j = Option.bind (at keys j) J.to_int_opt

(* [(seq, updates)] of every line of a directory's metrics.jsonl. *)
let line_positions dir =
  List.map
    (fun l ->
      let j = parse_line l in
      match (int_at [ "seq" ] j, int_at [ "updates" ] j) with
      | Some seq, Some updates -> (seq, updates)
      | _ -> Alcotest.failf "line without seq/updates: %s" l)
    (jsonl_lines dir)

let positions = Alcotest.(list (pair int int))

(* The one metrics.jsonl line a single forced snapshot of [o] writes. *)
let snapshot_line ~deterministic o =
  let dir = tmpdir "ig_filter" in
  F.snapshot (F.create ~deterministic ~dir ~obs:o ());
  match jsonl_lines dir with
  | [ line ] -> line
  | lines -> Alcotest.failf "expected one jsonl line, got %d" (List.length lines)

let test_deterministic_filter () =
  let drive () =
    let o = O.create () in
    O.add o "aff" 11;
    O.set_gauge o "csr_overlay_add" 4;
    O.observe o "csr_compact_bytes" 4096.0;
    (* Clock-derived series: values differ run to run. *)
    O.observe o "apply_latency_s" (Sys.opaque_identity (Random.float 1e-3));
    O.observe o "gc_minor_words" (Random.float 1e6);
    O.with_span o "sp" (fun () -> ());
    o
  in
  let o = drive () in
  let full = parse_line (snapshot_line ~deterministic:false o) in
  let det_line = snapshot_line ~deterministic:true o in
  let det = parse_line det_line in
  let has keys j = at ("metrics" :: keys) j <> None in
  check Alcotest.bool "full line keeps latency histogram" true
    (has [ "histograms"; "apply_latency_s" ] full);
  check Alcotest.bool "full line keeps span seconds" true
    (has [ "spans"; "sp"; "seconds" ] full);
  check Alcotest.bool "deterministic drops _s histograms" false
    (has [ "histograms"; "apply_latency_s" ] det);
  check Alcotest.bool "deterministic drops gc_ histograms" false
    (has [ "histograms"; "gc_minor_words" ] det);
  check Alcotest.bool "deterministic drops span seconds" false
    (has [ "spans"; "sp"; "seconds" ] det);
  check
    (Alcotest.option Alcotest.int)
    "deterministic keeps span calls" (Some 1)
    (int_at [ "metrics"; "spans"; "sp"; "count" ] det);
  check Alcotest.bool "deterministic keeps work histograms" true
    (has [ "histograms"; "csr_compact_bytes" ] det);
  check Alcotest.string "deterministic lines are byte-identical across runs"
    det_line
    (snapshot_line ~deterministic:true (drive ()))

let test_flight_retention () =
  let dir = tmpdir "ig_flight" in
  let o = O.create () in
  let fr = F.create ~every:1 ~retain:3 ~dir ~obs:o () in
  let ticks n =
    for _ = 1 to n do
      O.incr o "ticks";
      F.tick fr
    done
  in
  (* The seventh snapshot finds 2 * retain lines in the file and
     compacts it to the newest [retain]. *)
  ticks 7;
  check positions "compaction keeps the newest retain lines"
    [ (4, 5); (5, 6); (6, 7) ]
    (line_positions dir);
  ticks 3;
  check Alcotest.int "every=1 snapshots each update" 10 (F.snapshots fr);
  check positions "later snapshots append to the compacted tail"
    [ (4, 5); (5, 6); (6, 7); (7, 8); (8, 9); (9, 10) ]
    (line_positions dir);
  match List.rev (jsonl_lines dir) with
  | last :: _ ->
      check
        (Alcotest.option Alcotest.int)
        "metrics embedded" (Some 10)
        (int_at [ "metrics"; "counters"; "ticks" ] (parse_line last))
  | [] -> Alcotest.fail "no jsonl lines"

let test_flight_cadence () =
  let dir = tmpdir "ig_cadence" in
  let o = O.create () in
  let fr = F.create ~every:4 ~retain:8 ~dir ~obs:o () in
  for _ = 1 to 10 do
    F.tick fr
  done;
  check Alcotest.int "cadence fires at 4 and 8" 2 (F.snapshots fr);
  check Alcotest.int "updates counted" 10 (F.updates fr);
  F.snapshot fr;
  check Alcotest.int "forced snapshot counts" 3 (F.snapshots fr);
  check positions "one line per snapshot, at the cadence's updates"
    [ (0, 4); (1, 8); (2, 10) ]
    (line_positions dir)

let test_flight_slo_and_determinism () =
  let drive dir =
    let o = O.create ~events:O.default_events () in
    let slo =
      S.create
        [
          {
            S.name = "ticks";
            source = S.Counter "ticks";
            limit = 2.5;
            trip_after = 1;
            clear_after = 1;
          };
        ]
    in
    let fr =
      F.create ~every:2 ~retain:4 ~deterministic:true ~slo ~dir ~obs:o ()
    in
    for _ = 1 to 6 do
      O.incr o "ticks";
      (* Clock noise that the deterministic snapshots must not leak. *)
      O.observe o "apply_latency_s" (Random.float 1.0);
      F.tick fr
    done;
    (slo, o)
  in
  let d1 = tmpdir "ig_det_a" and d2 = tmpdir "ig_det_b" in
  let slo, o = drive d1 in
  let _ = drive d2 in
  check Alcotest.int "slo tripped once during the flight" 1 (S.violations slo);
  check
    (Alcotest.list Alcotest.string)
    "violation visible in the trace" [ "ticks" ] (slo_events o);
  check
    (Alcotest.list Alcotest.string)
    "the directory holds metrics.jsonl only" [ "metrics.jsonl" ]
    (Array.to_list (Sys.readdir d1));
  check Alcotest.string "metrics.jsonl byte-identical across runs"
    (read_file (Filename.concat d1 "metrics.jsonl"))
    (read_file (Filename.concat d2 "metrics.jsonl"))

let test_flight_bad_args () =
  Alcotest.check_raises "every below 1 rejected"
    (Invalid_argument "Flight.create: every must be >= 1") (fun () ->
      ignore (F.create ~every:0 ~dir:"." ~obs:O.noop ()));
  Alcotest.check_raises "retain below 1 rejected"
    (Invalid_argument "Flight.create: retain must be >= 1") (fun () ->
      ignore (F.create ~retain:0 ~dir:"." ~obs:O.noop ()))

let () =
  Alcotest.run "telemetry"
    [
      ( "exposition",
        [
          Alcotest.test_case "deterministic filter" `Quick
            test_deterministic_filter;
        ] );
      ( "slo",
        [
          Alcotest.test_case "config parsing" `Quick test_slo_config;
          Alcotest.test_case "trip/clear hysteresis" `Quick
            test_slo_hysteresis;
          Alcotest.test_case "measurement sources" `Quick test_slo_measure;
          Alcotest.test_case "violations render in explain" `Quick
            test_slo_explain;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring retention" `Quick test_flight_retention;
          Alcotest.test_case "logical cadence" `Quick test_flight_cadence;
          Alcotest.test_case "slo + deterministic stream" `Quick
            test_flight_slo_and_determinism;
          Alcotest.test_case "bad arguments" `Quick test_flight_bad_args;
        ] );
    ]
