(** Declarative SLO budgets over the {!Obs} registry.

    The paper's bounded-cost claim is an SLO: work per update should
    track |AFF|/|CHANGED|, not |G|. A {!rule} names a measurement
    source (histogram quantile, counter ratio, gauge or counter level)
    and a ceiling; {!evaluate} runs all rules against a registry,
    advances per-rule trip/clear hysteresis, and emits a rule-tagged
    [Slo_violation] trace event on each trip transition — visible in
    Chrome traces and [incgraph explain]. *)

type source =
  | P99 of string  (** p99 of a registry histogram *)
  | P50 of string
  | Ratio of string * string  (** counter a / counter b; 0 when b = 0 *)
  | Gauge of string
  | Counter of string

val source_name : source -> string
(** The [kind:arg] spelling used by the config format. *)

type rule = {
  name : string;
  source : source;
  limit : float;
  trip_after : int;
      (** consecutive breaching evaluations before the rule trips *)
  clear_after : int;
      (** consecutive in-budget evaluations before a tripped rule clears *)
}

type t
(** Rule set plus per-rule hysteresis state. *)

type status = {
  srule : rule;
  value : float;
  breaching : bool;  (** this evaluation exceeded the limit *)
  tripped : bool;  (** hysteresis state after this evaluation *)
}

val create : rule list -> t
(** @raise Invalid_argument when a rule has [trip_after] or
    [clear_after] below 1. *)

val rules : t -> rule list

val measure : Obs.t -> source -> float
(** One measurement; missing registry entries read as 0. *)

val evaluate : t -> obs:Obs.t -> status list
(** Measure every rule against [obs], advance hysteresis, and record
    [Slo_violation] into [obs]'s events on trip transitions. Statuses
    are in rule order. *)

val tripped : t -> string list
(** Names of the currently tripped rules, in rule order. *)

val violations : t -> int
(** Total trip transitions so far (= [Slo_violation] events emitted). *)

val to_json : t -> Json.t
(** Per-rule state (source, limit, last value, tripped, trips) for the
    flight-recorder JSONL ring. *)

val of_config : string -> (rule list, string) result
(** Parse the line-based config:
    [<name> <source> <limit> [trip=<k>] [clear=<k>]] with [<source>]
    one of [p99:<hist>], [p50:<hist>], [ratio:<ctr>/<ctr>],
    [gauge:<g>], [counter:<c>]; ['#'] starts a comment. *)

val example_config : string
(** The budgets the README quick-start arms. *)
