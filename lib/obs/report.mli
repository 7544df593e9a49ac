(** Schema-versioned BENCH reports.

    One report = one bench invocation: tool identity, configuration, and
    a list of experiments, each a list of data points. A point carries
    the x-axis label, per-series wall-clock timings (seconds), per-series
    counter snapshots, per-series speedups against the point's batch
    baseline, and per-series latency/GC histograms. Two runs
    are compared by joining on (experiment id, point x, series); see
    {!compare_reports}. *)

val schema_version : int

type point = {
  x : string;
  timings : (string * float) list;
  counters : (string * (string * int) list) list;
  speedup : (string * float) list;
  hists : (string * (string * Histogram.t) list) list;
  gc : (string * (string * float) list) list;
}

type experiment = {
  id : string;
  title : string;
  mutable points : point list;  (** reverse insertion order *)
}

type t = {
  tool : string;
  created : float;
  config : (string * Json.t) list;
  mutable experiments : experiment list;  (** reverse insertion order *)
}

val create : tool:string -> config:(string * Json.t) list -> unit -> t

val experiment : t -> id:string -> title:string -> experiment
(** Find-or-create by [id]. *)

val add_point :
  experiment ->
  x:string ->
  ?timings:(string * float) list ->
  ?counters:(string * (string * int) list) list ->
  ?speedup:(string * float) list ->
  ?histograms:(string * (string * Histogram.t) list) list ->
  ?gc:(string * (string * float) list) list ->
  unit ->
  unit

val to_json : t -> Json.t
val write : path:string -> t -> unit

val validate : Json.t -> (unit, string) result
(** Structural schema check for consumers (the @bench-smoke and
    @bench-gate aliases, diff tooling). Accepts only {!schema_version};
    returns the first violation found. *)

type cmp_cell = {
  ckey : string * string * string;  (** experiment id, x, series *)
  old_time : float;
  new_time : float;
  old_p99 : float option;  (** of the apply-latency histogram, if present *)
  new_p99 : float option;
}

type comparison = {
  cells : cmp_cell list;
  only_old : (string * string * string) list;
  only_new : (string * string * string) list;
}

val compare_reports : old_json:Json.t -> new_json:Json.t -> comparison

val regressions :
  threshold:float -> min_time:float -> comparison -> cmp_cell list

val pp_comparison :
  threshold:float -> min_time:float -> Format.formatter -> comparison -> unit
