(** Mergeable log-bucketed histograms (HDR-style).

    Records non-negative float samples — per-update latencies in seconds,
    GC words per batch — into a fixed log-linear bucket layout:
    8 linear sub-buckets per binary octave over octaves [2^-64 .. 2^64].
    Because the layout is a constant of the module, two histograms merge
    exactly by element-wise bucket addition, and quantile estimates carry
    a bounded relative error (every bucket spans at most 1/8 of its
    octave, 12.5% relative width; see {!quantile}).

    Negative and NaN samples are clamped to 0 before recording: a
    histogram never goes backwards and its invariants
    ({!check_invariants}) hold after every observation. *)

type t

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
(** [quantile t q] estimates the q-quantile (q in [0,1]) with the
    sorted-sample convention: at the continuous rank r = q·(count−1) it
    interpolates linearly, by r − ⌊r⌋, between the samples at ranks ⌊r⌋
    and ⌈r⌉. Each of those is estimated inside its own bucket (found by
    cumulative bucket walk, at its position among the bucket's samples)
    and clamped to [[min_value t, max_value t]]; ranks 0 and count−1 are
    the exact [min_value]/[max_value]. The estimate therefore lies between
    the two samples, widened by one bucket's relative width (≤ 12.5%).
    Returns 0 when empty. @raise Invalid_argument when q is outside
    [0,1]. *)

val p50 : t -> float
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
(** Inverse of {!to_json}, checking while it decodes: fields present and
    typed, layout compatible with this build, bucket indices in range,
    strictly ascending, positive counts summing to [count]. *)

val validate : Json.t -> (unit, string) result
(** {!of_json} with the histogram dropped. *)

val pp : Format.formatter -> t -> unit
(** Summary line (count/sum/min/mean/max and p50/p90/p99/p999) followed by
    one ASCII bar line per non-empty bucket. *)

val to_string : t -> string
