(* Tests for the continuous-telemetry layer (lib/obs): the OpenMetrics
   exposition and its validator (round-trip through [samples], native
   Prometheus histograms with cumulative le buckets cross-checked
   against Histogram quantiles, the deterministic clock-free rendering),
   the declarative SLO tracker (config parsing, trip/clear hysteresis,
   Slo_violation trace events), and the flight recorder (logical
   cadence, ring retention, jsonl compaction, atomic scrape target). *)

module O = Ig_obs.Obs
module H = Ig_obs.Histogram
module Om = Ig_obs.Openmetrics
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

let find ?(labels = []) name samples =
  List.find_opt
    (fun (s : Om.sample) -> s.Om.name = name && s.Om.labels = labels)
    samples

let value ?labels name samples =
  match find ?labels name samples with
  | Some s -> s.Om.value
  | None -> Alcotest.failf "sample %s not found" name

(* ---- rendering and round-trip --------------------------------------------- *)

let test_render_roundtrip () =
  let o = O.create () in
  O.add o "alpha" 3;
  O.incr o "zeta";
  O.set_gauge o "depth" 7;
  O.with_span o "work" (fun () -> ());
  O.observe o "bytes" 1.0;
  O.observe o "bytes" 2.0;
  O.observe o "bytes" 4.0;
  let text = Om.render o in
  (match Om.samples text with
  | Error e -> Alcotest.failf "samples: %s" e
  | Ok samples ->
      check (Alcotest.float 0.0) "counter round-trips" 3.0
        (value "alpha_total" samples);
      check (Alcotest.float 0.0) "incr round-trips" 1.0
        (value "zeta_total" samples);
      check (Alcotest.float 0.0) "gauge round-trips" 7.0
        (value "depth" samples);
      check (Alcotest.float 0.0) "span calls round-trip" 1.0
        (value ~labels:[ ("span", "work") ] "ig_span_calls_total" samples);
      check (Alcotest.float 0.0) "_count is the observation count" 3.0
        (value "bytes_count" samples);
      check (Alcotest.float 1e-9) "_sum is the observation sum" 7.0
        (value "bytes_sum" samples);
      check (Alcotest.float 0.0) "+Inf bucket equals _count" 3.0
        (value ~labels:[ ("le", "+Inf") ] "bytes_bucket" samples));
  match Om.validate text with
  | Error e -> Alcotest.failf "validate rejected own rendering: %s" e
  | Ok n ->
      let expected =
        match Om.samples text with Ok s -> List.length s | Error _ -> 0
      in
      check Alcotest.int "validate counts every sample" expected n

let test_render_empty () =
  check Alcotest.string "noop registry renders bare EOF" "# EOF\n"
    (Om.render O.noop);
  (match Om.validate (Om.render O.noop) with
  | Ok n -> check Alcotest.int "empty exposition has no samples" 0 n
  | Error e -> Alcotest.failf "empty exposition rejected: %s" e);
  check Alcotest.bool "looks_like accepts empty exposition" true
    (Om.looks_like (Om.render O.noop));
  check Alcotest.bool "looks_like rejects json" false
    (Om.looks_like "{\"traceEvents\": []}")

let test_sanitize () =
  check Alcotest.string "dots and dashes mapped" "rpq_process"
    (Om.sanitize "rpq.process");
  check Alcotest.string "leading digit prefixed" "_9lives" (Om.sanitize "9lives");
  check Alcotest.string "empty name survives" "_" (Om.sanitize "");
  check Alcotest.string "legal names untouched" "a_b:c" (Om.sanitize "a_b:c")

(* ---- histogram buckets vs Histogram quantiles ------------------------------ *)

let exposition_buckets name samples =
  List.filter_map
    (fun (s : Om.sample) ->
      if s.Om.name = name ^ "_bucket" then
        match List.assoc_opt "le" s.Om.labels with
        | Some "+Inf" -> None
        | Some le -> Some (float_of_string le, s.Om.value)
        | None -> None
      else None)
    samples

let test_bucket_invariants () =
  let o = O.create () in
  let values =
    [ 0.9; 1.1; 1.7; 3.0; 3.1; 8.0; 8.0; 20.0; 100.0; 1000.0; 0.001 ]
  in
  List.iter (O.observe o "work") values;
  let h =
    match O.histogram o "work" with
    | Some h -> h
    | None -> Alcotest.fail "histogram missing"
  in
  let samples =
    match Om.samples (Om.render o) with
    | Ok s -> s
    | Error e -> Alcotest.failf "samples: %s" e
  in
  let buckets = exposition_buckets "work" samples in
  check Alcotest.int "one le edge per non-empty log bucket"
    (List.length (H.nonzero_buckets h))
    (List.length buckets);
  let rec strictly_increasing = function
    | (le1, c1) :: ((le2, c2) :: _ as rest) ->
        le1 < le2 && c1 <= c2 && strictly_increasing rest
    | _ -> true
  in
  check Alcotest.bool "le edges strictly increase, cum counts never drop" true
    (strictly_increasing buckets);
  (match List.rev buckets with
  | (_, last_cum) :: _ ->
      check (Alcotest.float 0.0) "last finite cum equals count"
        (float_of_int (H.count h)) last_cum
  | [] -> Alcotest.fail "no buckets");
  (* Every quantile must land inside the bucket the cumulative counts
     select for its rank — the exposition and Histogram.quantile agree
     on where the mass sits. *)
  List.iter
    (fun q ->
      let target =
        int_of_float (Float.floor (q *. float_of_int (H.count h - 1)))
      in
      let rec locate prev_le = function
        | [] -> (prev_le, infinity)
        | (le, cum) :: rest ->
            if int_of_float cum > target then (prev_le, le)
            else locate le rest
      in
      let lo, hi = locate 0.0 buckets in
      let v = H.quantile h q in
      if not (v >= lo && v <= hi) then
        Alcotest.failf "q%.2f = %g outside exposition bucket (%g, %g]" q v lo
          hi)
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

(* ---- validator rejections -------------------------------------------------- *)

let expect_invalid label text =
  match Om.validate text with
  | Ok _ -> Alcotest.failf "%s: validator accepted bad exposition" label
  | Error _ -> ()

let test_validator_rejections () =
  (match
     Om.validate
       "# TYPE h histogram\n\
        h_bucket{le=\"1\"} 1\n\
        h_bucket{le=\"2\"} 3\n\
        h_bucket{le=\"+Inf\"} 3\n\
        h_sum 4.5\n\
        h_count 3\n\
        # EOF\n"
   with
  | Ok n -> check Alcotest.int "well-formed histogram accepted" 5 n
  | Error e -> Alcotest.failf "well-formed histogram rejected: %s" e);
  expect_invalid "untyped sample" "a_total 1\n# EOF\n";
  expect_invalid "missing # EOF" "# TYPE a counter\na_total 1\n";
  expect_invalid "content after # EOF"
    "# TYPE a counter\na_total 1\n# EOF\na_total 2\n";
  expect_invalid "le edges must increase"
    "# TYPE h histogram\n\
     h_bucket{le=\"2\"} 1\n\
     h_bucket{le=\"1\"} 2\n\
     h_bucket{le=\"+Inf\"} 2\n\
     h_sum 3\n\
     h_count 2\n\
     # EOF\n";
  expect_invalid "cumulative counts must not drop"
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 5\n\
     h_bucket{le=\"2\"} 3\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_sum 3\n\
     h_count 5\n\
     # EOF\n";
  expect_invalid "_count must equal the +Inf bucket"
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 1\n\
     h_bucket{le=\"+Inf\"} 1\n\
     h_sum 1\n\
     h_count 2\n\
     # EOF\n";
  expect_invalid "type mismatch"
    "# TYPE a gauge\na_total 1\n# EOF\n"

(* ---- deterministic rendering ----------------------------------------------- *)

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
  let full = Om.render o in
  let det = Om.render ~deterministic:true o in
  let has = contains in
  check Alcotest.bool "full rendering keeps latency histogram" true
    (has "apply_latency_s_bucket" full);
  check Alcotest.bool "deterministic drops _s histograms" false
    (has "apply_latency_s" det);
  check Alcotest.bool "deterministic drops gc_ histograms" false
    (has "gc_minor_words" det);
  check Alcotest.bool "deterministic drops span seconds" false
    (has "ig_span_seconds" det);
  check Alcotest.bool "deterministic keeps span calls" true
    (has "ig_span_calls_total" det);
  check Alcotest.bool "deterministic keeps work histograms" true
    (has "csr_compact_bytes_bucket" det);
  check Alcotest.string "deterministic renders are byte-identical runs" det
    (Om.render ~deterministic:true (drive ()));
  match Om.validate det with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deterministic rendering invalid: %s" e

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
     v >= 1.0 && v <= 100.0)

(* ---- flight recorder ------------------------------------------------------- *)

let tmpdir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let read_file path = In_channel.with_open_text path In_channel.input_all

let ring_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 8
         && String.sub f 0 8 = "metrics-"
         && Filename.check_suffix f ".prom")
  |> List.sort String.compare

let jsonl_lines dir =
  let path = Filename.concat dir "metrics.jsonl" in
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")

let test_flight_retention () =
  let dir = tmpdir "ig_flight" in
  let o = O.create () in
  let fr = F.create ~every:1 ~retain:3 ~dir ~obs:o () in
  for _ = 1 to 10 do
    O.incr o "ticks";
    F.tick fr
  done;
  check Alcotest.int "every=1 snapshots each update" 10 (F.snapshots fr);
  check Alcotest.int "ring pruned to retain" 3 (List.length (ring_files dir));
  check
    (Alcotest.list Alcotest.string)
    "ring keeps the newest snapshots"
    [ "metrics-000007.prom"; "metrics-000008.prom"; "metrics-000009.prom" ]
    (ring_files dir);
  let stable = read_file (Filename.concat dir "metrics.prom") in
  check Alcotest.string "scrape target is the newest ring file" stable
    (read_file (Filename.concat dir "metrics-000009.prom"));
  (match Om.validate stable with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "scrape target invalid: %s" e);
  let lines = jsonl_lines dir in
  check Alcotest.bool "jsonl compacted below twice the retention" true
    (List.length lines <= 2 * 3);
  (match List.rev lines with
  | last :: _ -> (
      match J.parse last with
      | Error e -> Alcotest.failf "jsonl line unparsable: %s" e
      | Ok j ->
          let get k = Option.bind (J.member k j) J.to_int_opt in
          check (Alcotest.option Alcotest.int) "last line carries the seq"
            (Some 9) (get "seq");
          check (Alcotest.option Alcotest.int) "last line counts updates"
            (Some 10) (get "updates");
          check Alcotest.bool "metrics embedded" true
            (J.member "metrics" j <> None))
  | [] -> Alcotest.fail "no jsonl lines")

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
  check Alcotest.int "forced snapshot counts" 3 (F.snapshots fr)

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
    "same ring shape" (ring_files d1) (ring_files d2);
  List.iter
    (fun f ->
      check Alcotest.string
        (Printf.sprintf "%s byte-identical across runs" f)
        (read_file (Filename.concat d1 f))
        (read_file (Filename.concat d2 f)))
    ("metrics.prom" :: "metrics.jsonl" :: ring_files d1)

let test_flight_bad_args () =
  Alcotest.check_raises "every below 1 rejected"
    (Invalid_argument "Flight.create: every must be >= 1") (fun () ->
      ignore (F.create ~every:0 ~dir:"." ~obs:O.noop ()));
  Alcotest.check_raises "retain below 1 rejected"
    (Invalid_argument "Flight.create: retain must be >= 1") (fun () ->
      ignore (F.create ~retain:0 ~dir:"." ~obs:O.noop ()))

let () =
  Alcotest.run "openmetrics"
    [
      ( "exposition",
        [
          Alcotest.test_case "render round-trip" `Quick test_render_roundtrip;
          Alcotest.test_case "empty registry" `Quick test_render_empty;
          Alcotest.test_case "name sanitizer" `Quick test_sanitize;
          Alcotest.test_case "bucket invariants vs quantiles" `Quick
            test_bucket_invariants;
          Alcotest.test_case "validator rejections" `Quick
            test_validator_rejections;
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
