(* Tests for the log-bucketed histogram (lib/obs/histogram.ml): bucket
   geometry, quantile accuracy against a sorted reference on seeded
   random samples, exact merging, the structural invariants the fuzz
   harness asserts, and the sparse JSON round-trip. *)

module H = Ig_obs.Histogram
module J = Ig_obs.Json

let check = Alcotest.check

let of_samples xs =
  let h = H.create () in
  List.iter (H.observe h) xs;
  h

(* Exact quantile of a sample list, with the same continuous-rank
   convention the histogram interpolates against. *)
let reference_quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

let rel_err est truth =
  if truth = 0.0 then Float.abs est else Float.abs (est -. truth) /. truth

(* ---- bucket geometry ------------------------------------------------------- *)

let test_bucket_bounds_cover () =
  (* Every positive sample lands in a bucket whose [lo, hi) contains it. *)
  let rng = Random.State.make [| 41 |] in
  for _ = 1 to 2000 do
    (* Spread over many octaves: 10^-9 .. 10^9. *)
    let v = Float.exp (Random.State.float rng 41.4 -. 20.7) in
    let h = of_samples [ v ] in
    match H.nonzero_buckets h with
    | [ (i, 1) ] ->
        let lo, hi = H.bucket_bounds i in
        if not (lo <= v && v < hi) then
          Alcotest.failf "%g not in bucket %d = [%g, %g)" v i lo hi
    | other ->
        Alcotest.failf "expected one bucket for %g, got %d" v
          (List.length other)
  done

let test_bucket_width_bound () =
  (* The quantile error bound comes from bucket width: hi/lo <= 1 + 1/8
     for every bucket past the first sub-bucket of each octave. *)
  let worst = ref 0.0 in
  List.iter
    (fun (i, _) ->
      let lo, hi = H.bucket_bounds i in
      if lo > 0.0 then worst := Float.max !worst ((hi -. lo) /. lo))
    (H.nonzero_buckets
       (of_samples
          (List.init 4000 (fun i -> Float.exp (float_of_int i /. 100.0)))));
  if !worst > 0.2501 then
    Alcotest.failf "relative bucket width %.4f too coarse" !worst

let test_degenerate_values () =
  let h = of_samples [ -5.0; 0.0; Float.nan ] in
  check Alcotest.int "all clamp to the zero bucket" 3 (H.count h);
  check (Alcotest.float 0.0) "clamped min" 0.0 (H.min_value h);
  check (Alcotest.float 0.0) "clamped max" 0.0 (H.max_value h);
  H.check_invariants h

(* ---- quantile accuracy ----------------------------------------------------- *)

let quantile_accuracy name gen =
  let rng = Random.State.make [| Hashtbl.hash name |] in
  let xs = List.init 10_000 (fun _ -> gen rng) in
  let h = of_samples xs in
  List.iter
    (fun q ->
      let est = H.quantile h q and truth = reference_quantile xs q in
      let err = rel_err est truth in
      if err > 0.15 then
        Alcotest.failf "%s: q=%.3f est %g truth %g rel err %.3f" name q est
          truth err)
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let test_quantiles_uniform () =
  quantile_accuracy "uniform" (fun rng -> Random.State.float rng 1.0)

let test_quantiles_exponential () =
  quantile_accuracy "exponential" (fun rng ->
      -.Float.log (1.0 -. Random.State.float rng 1.0) /. 1000.0)

let test_quantiles_bimodal () =
  (* Latency-shaped: a fast mode and a 100x slower tail. *)
  quantile_accuracy "bimodal" (fun rng ->
      if Random.State.float rng 1.0 < 0.95 then
        1e-6 *. (1.0 +. Random.State.float rng 0.5)
      else 1e-4 *. (1.0 +. Random.State.float rng 0.5))

(* Few samples: the estimate must lie between the sorted samples at
   ranks floor r and ceil r (r = q*(n-1)), widened by one bucket's
   relative width. *)
let check_between name xs qs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let h = of_samples xs in
  let width = 0.125 in
  List.iter
    (fun q ->
      let rank = q *. float_of_int (n - 1) in
      let lo = a.(int_of_float (Float.floor rank))
      and hi = a.(int_of_float (Float.ceil rank)) in
      let est = H.quantile h q in
      if not (est >= lo *. (1.0 -. width) && est <= hi *. (1.0 +. width)) then
        Alcotest.failf "%s: q=%.3f est %g outside [%g, %g] widened by %g" name
          q est lo hi width)
    qs

let test_quantiles_small_samples () =
  for n = 1 to 64 do
    let rng = Random.State.make [| n |] in
    let xs =
      List.init n (fun _ -> Float.exp (Random.State.float rng 20.0 -. 10.0))
    in
    let qs = List.init 8 (fun _ -> Random.State.float rng 1.0) in
    check_between (Printf.sprintf "n=%d" n) xs
      ([ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ] @ qs)
  done;
  let three = [ 5344.0; 5736.0; 9244.0 ] in
  check_between "three samples" three [ 0.5; 0.9; 0.99 ];
  let p99 = H.p99 (of_samples three) in
  if p99 < 9000.0 then
    Alcotest.failf "three samples: p99 %g should be near the largest, 9244" p99

let test_quantile_extremes_clamped () =
  let h = of_samples [ 3.0; 5.0; 7.0 ] in
  check (Alcotest.float 0.0) "q=0 is the min" 3.0 (H.quantile h 0.0);
  check (Alcotest.float 0.0) "q=1 is the max" 7.0 (H.quantile h 1.0);
  check (Alcotest.float 0.0) "empty histogram reads 0" 0.0
    (H.quantile (H.create ()) 0.5);
  Alcotest.check_raises "q > 1 rejected"
    (Invalid_argument "Histogram.quantile: q must be in [0,1]") (fun () ->
      ignore (H.quantile h 1.5));
  Alcotest.check_raises "q < 0 rejected"
    (Invalid_argument "Histogram.quantile: q must be in [0,1]") (fun () ->
      ignore (H.quantile h (-0.1)))

let test_single_sample () =
  let h = of_samples [ 0.042 ] in
  List.iter
    (fun q ->
      let est = H.quantile h q in
      if rel_err est 0.042 > 1e-9 then
        Alcotest.failf "single sample: q=%.2f read %g" q est)
    [ 0.0; 0.5; 1.0 ];
  check (Alcotest.float 1e-12) "mean" 0.042 (H.mean h)

(* ---- merge ------------------------------------------------------------------ *)

let same_histogram msg a b =
  check Alcotest.int (msg ^ ": count") (H.count a) (H.count b);
  check (Alcotest.float 1e-9) (msg ^ ": sum") (H.sum a) (H.sum b);
  check (Alcotest.float 0.0) (msg ^ ": min") (H.min_value a) (H.min_value b);
  check (Alcotest.float 0.0) (msg ^ ": max") (H.max_value a) (H.max_value b);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    (msg ^ ": buckets") (H.nonzero_buckets a) (H.nonzero_buckets b)

let seeded_samples seed n =
  let rng = Random.State.make [| seed |] in
  List.init n (fun _ -> Float.exp (Random.State.float rng 20.0 -. 10.0))

let test_merge_is_concat () =
  let xs = seeded_samples 1 500 and ys = seeded_samples 2 800 in
  same_histogram "merge = observing the concatenation"
    (H.merge (of_samples xs) (of_samples ys))
    (of_samples (xs @ ys))

let test_merge_commutes_associates () =
  let a = of_samples (seeded_samples 3 300)
  and b = of_samples (seeded_samples 4 400)
  and c = of_samples (seeded_samples 5 500) in
  same_histogram "commutativity" (H.merge a b) (H.merge b a);
  same_histogram "associativity"
    (H.merge (H.merge a b) c)
    (H.merge a (H.merge b c));
  let e = H.create () in
  same_histogram "empty is the unit" (H.merge a e) a;
  H.check_invariants (H.merge (H.merge a b) c)

let test_merge_does_not_alias () =
  let a = of_samples [ 1.0 ] and b = of_samples [ 2.0 ] in
  let m = H.merge a b in
  H.observe a 4.0;
  check Alcotest.int "merge result unaffected by later observes" 2 (H.count m);
  let c = H.copy a in
  H.observe a 8.0;
  check Alcotest.int "copy is independent" 2 (H.count c)

(* ---- invariants ------------------------------------------------------------- *)

let test_invariants_hold_under_random_streams () =
  let rng = Random.State.make [| 6 |] in
  let h = H.create () in
  for i = 1 to 5000 do
    (* Mix magnitudes, zeros, and the clamped negatives/NaNs. *)
    let v =
      match i mod 7 with
      | 0 -> 0.0
      | 1 -> -1.0
      | 2 -> Float.nan
      | _ -> Float.exp (Random.State.float rng 30.0 -. 15.0)
    in
    H.observe h v;
    if i mod 500 = 0 then H.check_invariants h
  done;
  check Alcotest.int "count = stream length" 5000 (H.count h);
  let total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (H.nonzero_buckets h)
  in
  check Alcotest.int "bucket total = count" 5000 total

(* ---- JSON round-trip --------------------------------------------------------- *)

let roundtrip h =
  (* Through the printer and parser, not just the tree: the BENCH file on
     disk is text. *)
  match J.parse (J.to_string ~indent:true (H.to_json h)) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok json -> (
      match H.of_json json with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok h' -> h')

let test_json_roundtrip () =
  let h = of_samples (seeded_samples 7 1000) in
  same_histogram "round-trip" h (roundtrip h);
  same_histogram "empty round-trip" (H.create ()) (roundtrip (H.create ()));
  let h' = roundtrip h in
  List.iter
    (fun q ->
      check (Alcotest.float 1e-12)
        (Printf.sprintf "q=%.3f survives" q)
        (H.quantile h q) (H.quantile h' q))
    [ 0.5; 0.9; 0.99 ]

let test_json_rejects_corruption () =
  let reject msg mutate =
    let json = H.to_json (of_samples [ 1.0; 2.0; 4.0 ]) in
    let fields =
      match json with J.Obj kvs -> kvs | _ -> Alcotest.fail "not an object"
    in
    match H.validate (J.Obj (mutate fields)) with
    | Ok () -> Alcotest.failf "%s: accepted" msg
    | Error _ -> ()
  in
  reject "missing count" (List.remove_assoc "count");
  reject "count mismatch" (fun kvs ->
      ("count", J.Int 17) :: List.remove_assoc "count" kvs);
  reject "foreign layout" (fun kvs ->
      ("layout", J.Obj [ ("sub_buckets", J.Int 4) ])
      :: List.remove_assoc "layout" kvs);
  reject "negative bucket index" (fun kvs ->
      ("buckets", J.Arr [ J.Arr [ J.Int (-1); J.Int 3 ] ])
      :: List.remove_assoc "buckets" kvs);
  reject "unsorted buckets" (fun kvs ->
      ( "buckets",
        J.Arr
          [
            J.Arr [ J.Int 9; J.Int 2 ];
            J.Arr [ J.Int 4; J.Int 1 ];
          ] )
      :: List.remove_assoc "buckets" kvs)

let json_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"json round-trip preserves the histogram"
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 1e-9 1e9))
    (fun xs ->
      let h = of_samples xs in
      let h' = roundtrip h in
      H.check_invariants h';
      H.count h = H.count h'
      && H.nonzero_buckets h = H.nonzero_buckets h'
      && rel_err (H.sum h') (H.sum h) < 1e-9
      && H.p99 h = H.p99 h')

(* ---- rendering ---------------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

let test_pp_renders_bars () =
  let s = H.to_string (of_samples [ 1e-6; 2e-6; 1e-3 ]) in
  List.iter
    (fun needle ->
      if not (contains s needle) then
        Alcotest.failf "rendering misses %S in:\n%s" needle s)
    [ "count 3"; "#"; "p99" ]

let () =
  Alcotest.run "histogram"
    [
      ( "buckets",
        [
          Alcotest.test_case "bounds cover their samples" `Quick
            test_bucket_bounds_cover;
          Alcotest.test_case "relative width bounded" `Quick
            test_bucket_width_bound;
          Alcotest.test_case "negative/NaN/zero clamp" `Quick
            test_degenerate_values;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "uniform vs sorted reference" `Quick
            test_quantiles_uniform;
          Alcotest.test_case "exponential vs sorted reference" `Quick
            test_quantiles_exponential;
          Alcotest.test_case "bimodal latency shape" `Quick
            test_quantiles_bimodal;
          Alcotest.test_case "small samples between neighbouring ranks" `Quick
            test_quantiles_small_samples;
          Alcotest.test_case "extremes clamp to min/max" `Quick
            test_quantile_extremes_clamped;
          Alcotest.test_case "single sample" `Quick test_single_sample;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge equals concatenation" `Quick
            test_merge_is_concat;
          Alcotest.test_case "commutative and associative" `Quick
            test_merge_commutes_associates;
          Alcotest.test_case "no aliasing" `Quick test_merge_does_not_alias;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "hold under random streams" `Quick
            test_invariants_hold_under_random_streams;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip through the printer" `Quick
            test_json_roundtrip;
          Alcotest.test_case "validator rejects corruption" `Quick
            test_json_rejects_corruption;
          QCheck_alcotest.to_alcotest json_roundtrip_prop;
        ] );
      ( "rendering",
        [ Alcotest.test_case "summary and bars" `Quick test_pp_renders_bars ] );
    ]
