(* Mergeable log-bucketed histograms (HDR-style).

   The paper's effectiveness claims are statements about *distributions* of
   per-update cost, not aggregates: a localizable algorithm keeps its tail
   flat as |G| grows, an unbounded one blows up at the p99 long before the
   mean moves. This module records non-negative samples (latencies in
   seconds, GC words per batch) into a fixed log-linear bucket layout so
   that

     - recording is O(1) and allocation-free,
     - two histograms (different reps, different shards) merge exactly by
       element-wise bucket addition, because the layout is a constant of
       the module, and
     - p50/p90/p99/p999 are estimated with bounded relative error
       (every bucket spans at most 1/[sub_buckets] of its octave, i.e.
       12.5% relative width): the two samples around the quantile's rank
       are each estimated inside their own bucket, clamped to the exact
       [min], [max] tracked alongside, and interpolated between.

   Layout: [sub_buckets] linear sub-buckets per binary octave, octaves
   2^[min_exp] .. 2^[max_exp]. Samples below the range land in bucket 0,
   samples above clamp into the last bucket — count and sum stay exact
   either way, only the quantile resolution degrades at the extremes. *)

let sub_buckets = 8
let min_exp = -64 (* values below 2^-64 are bucket 0: well under 1ns *)
let max_exp = 64 (* values >= 2^64 clamp: no latency or word count gets there *)
let n_buckets = (max_exp - min_exp) * sub_buckets

type t = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  buckets : int array;
}

let create () =
  {
    count = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
    buckets = Array.make n_buckets 0;
  }

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0.0 else t.vmin
let max_value t = if t.count = 0 then 0.0 else t.vmax
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

(* Index of the bucket covering [v]. For v in [2^(e-1), 2^e), frexp gives
   mantissa m in [0.5, 1); sub-bucket j covers m in
   [0.5 + j/(2*sub), 0.5 + (j+1)/(2*sub)). *)
let bucket_of v =
  if v <= 0.0 || Float.is_nan v then 0
  else
    let m, e = Float.frexp v in
    let octave = e - 1 in
    if octave < min_exp then 0
    else if octave >= max_exp then n_buckets - 1
    else
      let j =
        Stdlib.min (sub_buckets - 1)
          (int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub_buckets))
      in
      ((octave - min_exp) * sub_buckets) + j

(* [lo, hi) bounds of bucket [i]; bucket 0's lower bound is reported as 0
   (it absorbs everything below the representable range). *)
let bucket_bounds i =
  if i < 0 || i >= n_buckets then invalid_arg "Histogram.bucket_bounds";
  let octave = min_exp + (i / sub_buckets) in
  let j = i mod sub_buckets in
  let scale = Float.ldexp 1.0 (octave + 1) in
  let lo = scale *. (0.5 +. (float_of_int j /. float_of_int (2 * sub_buckets)))
  and hi =
    scale *. (0.5 +. (float_of_int (j + 1) /. float_of_int (2 * sub_buckets)))
  in
  ((if i = 0 then 0.0 else lo), hi)

let observe t v =
  let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  let i = bucket_of v in
  t.buckets.(i) <- t.buckets.(i) + 1

(* Element-wise bucket addition: exact because the layout is fixed. *)
let merge a b =
  let t = create () in
  t.count <- a.count + b.count;
  t.sum <- a.sum +. b.sum;
  t.vmin <- Float.min a.vmin b.vmin;
  t.vmax <- Float.max a.vmax b.vmax;
  Array.blit a.buckets 0 t.buckets 0 n_buckets;
  Array.iteri (fun i c -> t.buckets.(i) <- t.buckets.(i) + c) b.buckets;
  t

let copy t = merge t (create ())

(* Estimate of the sample at integer rank [k] (0-based, ascending). The
   extremes are tracked exactly; an interior rank sits in the bucket the
   cumulative counts select, at its position among that bucket's samples
   (taken as evenly spread), clamped to the exact extremes. *)
let value_at_rank t k =
  if k <= 0 then t.vmin
  else if k >= t.count - 1 then t.vmax
  else begin
    let rec walk i cum =
      let c = t.buckets.(i) in
      if cum + c > k then begin
        let lo, hi = bucket_bounds i in
        let frac = (float_of_int (k - cum) +. 0.5) /. float_of_int c in
        lo +. ((hi -. lo) *. frac)
      end
      else walk (i + 1) (cum + c)
    in
    Float.max t.vmin (Float.min t.vmax (walk 0 0))
  end

(* Quantile estimate at the continuous rank r = q*(count-1): the values
   at ranks floor r and ceil r, each estimated inside its own bucket,
   interpolated linearly by r - floor r — the sorted-sample convention,
   so a high quantile of a few samples moves toward the largest one. *)
let quantile t q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Histogram.quantile: q must be in [0,1]";
  if t.count = 0 then 0.0
  else begin
    let rank = q *. float_of_int (t.count - 1) in
    let lo = int_of_float (Float.floor rank) in
    let frac = rank -. float_of_int lo in
    let v_lo = value_at_rank t lo in
    if frac = 0.0 then v_lo
    else v_lo +. ((value_at_rank t (lo + 1) -. v_lo) *. frac)
  end

let p50 t = quantile t 0.50
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

(* Non-empty buckets, ascending index. *)
let nonzero_buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (i, t.buckets.(i)) :: !acc
  done;
  !acc

(* The invariants every registry histogram must satisfy at all times; the
   fuzz harness asserts them after every step (Oracle.check_metrics).
   @raise Failure naming the first violation. *)
let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  if t.count < 0 then fail "negative count %d" t.count;
  let total = Array.fold_left ( + ) 0 t.buckets in
  if total <> t.count then
    fail "bucket total %d <> count %d" total t.count;
  Array.iteri
    (fun i c -> if c < 0 then fail "bucket %d has negative count %d" i c)
    t.buckets;
  if t.count > 0 then begin
    if not (t.vmin <= t.vmax) then fail "min %g > max %g" t.vmin t.vmax;
    if Float.is_nan t.sum then fail "sum is NaN";
    let eps = 1e-9 *. (1.0 +. Float.abs t.sum) in
    if t.sum +. eps < float_of_int t.count *. t.vmin then
      fail "sum %g below count*min %g" t.sum (float_of_int t.count *. t.vmin);
    if t.sum -. eps > float_of_int t.count *. t.vmax then
      fail "sum %g above count*max %g" t.sum (float_of_int t.count *. t.vmax)
  end

(* ---- JSON ----------------------------------------------------------------

   Sparse export: only non-empty buckets travel. The layout parameters are
   embedded so a reader can reject a file produced by an incompatible
   build instead of silently mis-binning on merge. Quantiles are
   recomputed by readers, not stored — the buckets are the truth. *)

let layout_json =
  Json.Obj
    [
      ("sub_buckets", Json.Int sub_buckets);
      ("min_exp", Json.Int min_exp);
      ("max_exp", Json.Int max_exp);
    ]

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Float t.sum);
      ("min", Json.Float (min_value t));
      ("max", Json.Float (max_value t));
      ("layout", layout_json);
      ( "buckets",
        Json.Arr
          (List.map
             (fun (i, c) -> Json.Arr [ Json.Int i; Json.Int c ])
             (nonzero_buckets t)) );
    ]

(* One pass: every field is checked as it is decoded. *)
let of_json json =
  let ( let* ) = Result.bind in
  let req k what conv =
    match Option.bind (Json.member k json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "histogram: missing or ill-typed %S (%s)" k what)
  in
  let* count = req "count" "int" Json.to_int_opt in
  if count < 0 then Error "histogram: negative count"
  else
    let* sum = req "sum" "number" Json.to_float_opt in
    let* vmin = req "min" "number" Json.to_float_opt in
    let* vmax = req "max" "number" Json.to_float_opt in
    let* layout = req "layout" "object" Json.to_obj_opt in
    let layout_field k =
      Option.bind (List.assoc_opt k layout) Json.to_int_opt
    in
    if
      layout_field "sub_buckets" <> Some sub_buckets
      || layout_field "min_exp" <> Some min_exp
      || layout_field "max_exp" <> Some max_exp
    then Error "histogram: incompatible bucket layout"
    else
      let* bs = req "buckets" "array" Json.to_list_opt in
      let t = create () in
      let* _, total =
        List.fold_left
          (fun acc b ->
            let* (prev_idx, total) = acc in
            match b with
            | Json.Arr [ Json.Int i; Json.Int c ] ->
                if i < 0 || i >= n_buckets then
                  Error (Printf.sprintf "histogram: bucket index %d out of range" i)
                else if i <= prev_idx then
                  Error "histogram: bucket indices not strictly ascending"
                else if c <= 0 then
                  Error (Printf.sprintf "histogram: bucket %d count %d not positive" i c)
                else begin
                  t.buckets.(i) <- c;
                  Ok (i, total + c)
                end
            | _ -> Error "histogram: bucket entry is not [index, count]")
          (Ok (-1, 0))
          bs
      in
      if total <> count then
        Error (Printf.sprintf "histogram: bucket total %d <> count %d" total count)
      else if count > 0 && vmin > vmax then Error "histogram: min > max"
      else begin
        t.count <- count;
        t.sum <- sum;
        if count > 0 then begin
          t.vmin <- vmin;
          t.vmax <- vmax
        end;
        Ok t
      end

let validate json = Result.map ignore (of_json json)

(* ---- rendering ----------------------------------------------------------- *)

let pp_value ppf v =
  if v = 0.0 then Format.fprintf ppf "0"
  else if Float.abs v >= 0.001 && Float.abs v < 1e7 then
    Format.fprintf ppf "%.4g" v
  else Format.fprintf ppf "%.3e" v

(* One line per non-empty bucket: [lo, hi) count and a bar scaled to the
   fullest bucket — the ASCII view behind `incgraph stats --histogram`. *)
let pp ppf t =
  Format.fprintf ppf
    "count %d  sum %a  min %a  mean %a  max %a@,p50 %a  p90 %a  p99 %a  p999 %a"
    t.count pp_value t.sum pp_value (min_value t) pp_value (mean t) pp_value
    (max_value t) pp_value (p50 t) pp_value (quantile t 0.90) pp_value (p99 t) pp_value
    (p999 t);
  let nz = nonzero_buckets t in
  let widest = List.fold_left (fun a (_, c) -> Stdlib.max a c) 1 nz in
  List.iter
    (fun (i, c) ->
      let lo, hi = bucket_bounds i in
      let bar = Stdlib.max 1 (c * 40 / widest) in
      let fmt v = Format.asprintf "%a" pp_value v in
      Format.fprintf ppf "@,[%10s, %10s) %8d %s" (fmt lo) (fmt hi) c
        (String.make bar '#'))
    nz

let to_string t = Format.asprintf "@[<v>%a@]" pp t
