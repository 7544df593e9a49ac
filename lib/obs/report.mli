(** Schema-versioned BENCH reports.

    One report = one bench invocation: tool identity, configuration, and
    a list of experiments, each a list of data points. A point carries
    the x-axis label, per-series wall-clock timings (seconds), per-series
    counter snapshots, and per-series latency/GC histograms. Two runs
    are compared by joining on (experiment id, point x, series); see
    {!compare_reports}. *)

val schema_version : int

type point = {
  x : string;
  timings : (string * float) list;
  counters : (string * (string * int) list) list;
  hists : (string * (string * Histogram.t) list) list;
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
  ?histograms:(string * (string * Histogram.t) list) list ->
  unit ->
  unit

val to_json : t -> Json.t
val write : path:string -> t -> unit

val of_json : Json.t -> (t, string) result
(** The format's one reader: checks the structure (schema
    {!schema_version} only; every timing a number, every counter a
    non-negative int, every histogram valid for {!Histogram.of_json})
    while it decodes, and returns the first violation found. Members it
    does not look up, such as the two derived sections older reports
    carry, are ignored. [of_json (to_json r)] gives back [r]'s points. *)

type key = string * string * string
(** Experiment id, point x, series. *)

type cmp_cell = {
  ckey : key;
  old_time : float;
  new_time : float;
  old_p99 : float option;  (** of the apply-latency histogram, if present *)
  new_p99 : float option;
}

type counter_diff = {
  dkey : key;
  counter : string;
  old_v : int option;  (** [None]: absent on that side *)
  new_v : int option;
}

type comparison = {
  cells : cmp_cell list;  (** keys timed in both, in the old report's order *)
  only_old : key list;
  only_new : key list;
  counted : int;
      (** series with counters on either side, at points both reports
          measured *)
  diffs : counter_diff list;  (** every counter of those that differs *)
}

val compare_reports : t -> t -> comparison
(** [compare_reports old_r new_r] joins the two reports once on
    {!key}, for timings, latency p99 and exact counters. *)

val regressions :
  threshold:float -> min_time:float -> comparison -> cmp_cell list

val pp_comparison :
  threshold:float -> min_time:float -> Format.formatter -> comparison -> unit
