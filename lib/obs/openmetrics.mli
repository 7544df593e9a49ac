(** OpenMetrics / Prometheus text exposition for the {!Obs} registry.

    {!render} turns a registry into the Prometheus text format: counters
    as [<name>_total], gauges bare, span aggregates as labelled counter
    families, and every log-bucketed {!Histogram} as a native Prometheus
    histogram — cumulative [le] buckets whose edges are the upper bounds
    of the non-empty log buckets, a [+Inf] bucket, [_sum] and [_count] —
    terminated by the mandatory [# EOF] marker.

    {!validate} is the structural inverse used by [bench/validate.exe]
    and the @telemetry-smoke alias; {!samples} parses an exposition back
    for round-trip tests. *)

val render : ?deterministic:bool -> Obs.t -> string
(** The full registry in exposition format. With [~deterministic:true]
    every clock- or GC-derived series is dropped — span seconds (span
    call counts stay) and any histogram whose name ends in [_s] or starts
    with [gc_] — so renders of the same update sequence are
    byte-identical across runs, hash seeds and machines. *)

val sanitize : string -> string
(** Map an arbitrary registry name onto the legal metric-name alphabet
    [[a-zA-Z_:][a-zA-Z0-9_:]*]. *)

val clock_derived : string -> bool
(** [true] on series the deterministic rendering drops: names ending in
    [_s] or starting with [gc_]. *)

type sample = {
  name : string;
  labels : (string * string) list;
  value : float;
}

val samples : string -> (sample list, string) result
(** All sample lines of an exposition, in order; comments and TYPE
    lines are skipped. *)

val validate : string -> (int, string) result
(** Structural checks: every sample needs a matching [# TYPE] line
    (counters via their [_total] suffix, histograms via
    [_bucket]/[_sum]/[_count]), histogram buckets must be contiguous
    with strictly increasing [le] edges and non-decreasing cumulative
    counts ending in [+Inf], [_count] must equal the [+Inf] bucket, and
    the text must end with [# EOF]. Returns the number of samples. *)

val looks_like : string -> bool
(** Cheap content sniff for artifact dispatch: the text starts with a
    [# TYPE] line or the empty-registry [# EOF]. *)
