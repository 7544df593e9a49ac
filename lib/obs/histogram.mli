(** Mergeable log-bucketed histograms (HDR-style).

    Records non-negative float samples — per-update latencies in seconds,
    GC words per batch — into a fixed log-linear bucket layout:
    {!sub_buckets} linear sub-buckets per binary octave over octaves
    [2^min_exp .. 2^max_exp]. Because the layout is a constant of the
    module, two histograms merge exactly by element-wise bucket addition,
    and quantile estimates carry a bounded relative error (every bucket
    spans at most [1/sub_buckets] of its octave, 12.5% relative width,
    interpolated within the bucket and clamped to the exact tracked
    [min]/[max]).

    Negative and NaN samples are clamped to 0 before recording: a
    histogram never goes backwards and its invariants
    ({!check_invariants}) hold after every observation. *)

type t

val sub_buckets : int
val min_exp : int
val max_exp : int

val create : unit -> t
(** Fresh empty histogram. *)

val observe : t -> float -> unit
(** Record one sample. O(1), allocation-free. Negative/NaN values are
    clamped to 0. *)

val count : t -> int
val sum : t -> float

val min_value : t -> float
(** Smallest recorded sample; 0 when empty. *)

val max_value : t -> float
(** Largest recorded sample; 0 when empty. *)

val mean : t -> float
(** [sum / count]; 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the q-quantile (q in [0,1]) by cumulative
    bucket walk with linear interpolation inside the winning bucket,
    clamped to [[min_value t, max_value t]]. Returns 0 when empty.
    @raise Invalid_argument when q is outside [0,1]. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

val merge : t -> t -> t
(** Exact element-wise merge: [count], [sum], buckets add; [min]/[max]
    combine. Associative and commutative. Inputs are unchanged. *)

val copy : t -> t

val bucket_bounds : int -> float * float
(** [[lo, hi)] value bounds of a bucket index. Bucket 0 reports [lo = 0]
    (it absorbs everything below the representable range).
    @raise Invalid_argument when the index is out of range. *)

val nonzero_buckets : t -> (int * int) list
(** Non-empty buckets as [(index, count)], ascending index. *)

val check_invariants : t -> unit
(** Assert structural invariants: bucket total = count, no negative
    counts, [min <= max] and [count*min <= sum <= count*max] (with float
    tolerance) when non-empty. The fuzz harness calls this after every
    step. @raise Failure naming the first violation. *)

val to_json : t -> Json.t
(** Sparse export: count/sum/min/max, the layout parameters, and the
    non-empty buckets. Quantiles are recomputed by readers, not stored. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; validates first (see {!validate}). *)

val validate : Json.t -> (unit, string) result
(** Structural check of an exported histogram: fields present and typed,
    layout compatible with this build, bucket indices in range, strictly
    ascending, positive counts summing to [count]. *)

val pp : Format.formatter -> t -> unit
(** Summary line (count/sum/min/mean/max and p50/p90/p99/p999) followed by
    one ASCII bar line per non-empty bucket. *)

val to_string : t -> string
