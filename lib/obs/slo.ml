(* Declarative SLO budgets over the Obs registry.

   The paper's bounded-cost claim is an SLO: the incremental engine's
   work per update should track |AFF|/|CHANGED|, not |G|. This module
   turns such budgets into declarative rules — a named measurement
   source (histogram quantile, counter ratio, gauge or counter level)
   with a ceiling — evaluated at each flight-recorder snapshot.

   Hysteresis: a rule must breach for [trip_after] consecutive
   evaluations to trip, and then hold for [clear_after] consecutive
   in-budget evaluations to clear, so one slow GC pause or one bursty
   batch does not flap the status. The trip transition (not every
   breaching evaluation) records a rule-tagged [Slo_violation] in the
   registry's events, where `incgraph explain` shows it. *)

type source =
  | P99 of string  (* p99 of a registry histogram *)
  | P50 of string
  | Ratio of string * string  (* counter a / counter b; 0 when b = 0 *)
  | Gauge of string
  | Counter of string

let source_name = function
  | P99 h -> "p99:" ^ h
  | P50 h -> "p50:" ^ h
  | Ratio (a, b) -> Printf.sprintf "ratio:%s/%s" a b
  | Gauge g -> "gauge:" ^ g
  | Counter c -> "counter:" ^ c

type rule = {
  name : string;
  source : source;
  limit : float;
  trip_after : int;
  clear_after : int;
}

type state = {
  rule : rule;
  mutable breach_streak : int;
  mutable ok_streak : int;
  mutable tripped : bool;
  mutable trips : int;
  mutable last_value : float;
}

type t = { states : state list }

type status = {
  srule : rule;
  value : float;
  breaching : bool;  (* this evaluation exceeded the limit *)
  tripped : bool;  (* hysteresis state after this evaluation *)
}

let create rules =
  List.iter
    (fun r ->
      if r.trip_after < 1 || r.clear_after < 1 then
        invalid_arg
          (Printf.sprintf "Slo.create: rule %s needs trip/clear >= 1" r.name))
    rules;
  {
    states =
      List.map
        (fun rule ->
          {
            rule;
            breach_streak = 0;
            ok_streak = 0;
            tripped = false;
            trips = 0;
            last_value = 0.0;
          })
        rules;
  }

let rules t = List.map (fun s -> s.rule) t.states

let measure obs = function
  | P99 h -> (
      match Obs.histogram obs h with None -> 0.0 | Some h -> Histogram.p99 h)
  | P50 h -> (
      match Obs.histogram obs h with None -> 0.0 | Some h -> Histogram.p50 h)
  | Ratio (a, b) ->
      let d = Obs.counter obs b in
      if d = 0 then 0.0
      else float_of_int (Obs.counter obs a) /. float_of_int d
  | Gauge g -> float_of_int (Obs.gauge obs g)
  | Counter c -> float_of_int (Obs.counter obs c)

(* One evaluation pass: measure every rule, advance its hysteresis, and
   record a [Slo_violation] event on each trip transition. *)
let evaluate t ~obs =
  List.map
    (fun s ->
      let v = measure obs s.rule.source in
      s.last_value <- v;
      let breaching = v > s.rule.limit in
      if breaching then begin
        s.breach_streak <- s.breach_streak + 1;
        s.ok_streak <- 0;
        if (not s.tripped) && s.breach_streak >= s.rule.trip_after then begin
          s.tripped <- true;
          s.trips <- s.trips + 1;
          Obs.slo_violation obs ~rule:s.rule.name ~value:v
            ~limit:s.rule.limit
        end
      end
      else begin
        s.ok_streak <- s.ok_streak + 1;
        s.breach_streak <- 0;
        if s.tripped && s.ok_streak >= s.rule.clear_after then
          s.tripped <- false
      end;
      { srule = s.rule; value = v; breaching; tripped = s.tripped })
    t.states

let tripped t =
  List.filter_map
    (fun (s : state) -> if s.tripped then Some s.rule.name else None)
    t.states

let violations t = List.fold_left (fun acc s -> acc + s.trips) 0 t.states

let to_json t =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("rule", Json.Str s.rule.name);
             ("source", Json.Str (source_name s.rule.source));
             ("limit", Json.Float s.rule.limit);
             ("value", Json.Float s.last_value);
             ("tripped", Json.Bool s.tripped);
             ("trips", Json.Int s.trips);
           ])
       t.states)

(* ---- config ---------------------------------------------------------------

   Line-based budgets, one rule per line:

     <name> <source> <limit> [trip=<k>] [clear=<k>]

   with <source> one of p99:<hist>, p50:<hist>, ratio:<ctr>/<ctr>,
   gauge:<g>, counter:<c>. '#' starts a comment. *)

let parse_source s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "source %S: expected kind:arg" s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      if arg = "" then Error (Printf.sprintf "source %S: empty argument" s)
      else
        match kind with
        | "p99" -> Ok (P99 arg)
        | "p50" -> Ok (P50 arg)
        | "gauge" -> Ok (Gauge arg)
        | "counter" -> Ok (Counter arg)
        | "ratio" -> (
            match String.split_on_char '/' arg with
            | [ a; b ] when a <> "" && b <> "" -> Ok (Ratio (a, b))
            | _ -> Error (Printf.sprintf "source %S: expected ratio:a/b" s))
        | _ -> Error (Printf.sprintf "source %S: unknown kind %S" s kind))

let parse_rule line =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
  in
  match words with
  | name :: src :: limit :: opts ->
      let* source = parse_source src in
      let* limit =
        match float_of_string_opt limit with
        | Some l -> Ok l
        | None -> Error (Printf.sprintf "rule %s: unparsable limit %S" name limit)
      in
      let* trip_after, clear_after =
        List.fold_left
          (fun acc opt ->
            let* trip, clear = acc in
            match String.split_on_char '=' opt with
            | [ "trip"; k ] -> (
                match int_of_string_opt k with
                | Some k when k >= 1 -> Ok (k, clear)
                | _ -> Error (Printf.sprintf "rule %s: bad trip=%s" name k))
            | [ "clear"; k ] -> (
                match int_of_string_opt k with
                | Some k when k >= 1 -> Ok (trip, k)
                | _ -> Error (Printf.sprintf "rule %s: bad clear=%s" name k))
            | _ -> Error (Printf.sprintf "rule %s: unknown option %S" name opt))
          (Ok (1, 1))
          opts
      in
      Ok { name; source; limit; trip_after; clear_after }
  | _ -> Error (Printf.sprintf "malformed rule line %S" line)

let of_config text =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let* rules, _ =
    List.fold_left
      (fun acc line ->
        let* rules, lineno = acc in
        let line = String.trim (strip_comment line) in
        if line = "" then Ok (rules, lineno + 1)
        else
          match parse_rule line with
          | Ok r -> Ok (r :: rules, lineno + 1)
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
      (Ok ([], 1))
      (String.split_on_char '\n' text)
  in
  let rules = List.rev rules in
  let names = List.map (fun r -> r.name) rules in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then Error "duplicate rule names"
  else Ok rules

(* The budgets the README quick-start arms: the paper's cost-model ratio
   plus latency tails and storage pressure. *)
let example_config =
  String.concat "\n"
    [
      "# <name> <source> <limit> [trip=<k>] [clear=<k>]";
      "apply_p99    p99:apply_latency_s       0.010  trip=2 clear=3";
      "aff_ratio    ratio:aff/changed         16.0";
      "overlay_add  gauge:csr_overlay_add     100000";
      "fsync_p99    p99:wal_fsync_latency_s   0.050  trip=2 clear=3";
      "";
    ]
