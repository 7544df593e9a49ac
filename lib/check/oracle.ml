type t = {
  name : string;
  series : string;
  graph : Ig_graph.Digraph.t;
  obs : Ig_obs.Obs.t;
  apply_batch : Ig_graph.Digraph.update list -> int * int;
  delta_line : int * int -> string;
  describe : unit -> string;
  answer : unit -> string;
  recompute : unit -> string;
  check_invariants : unit -> unit;
  cert_snapshot : unit -> (string * string) list;
}

exception Check_failed of string

let check inst =
  (match inst.check_invariants () with
  | () -> ()
  | exception Failure msg -> raise (Check_failed ("invariant: " ^ msg)));
  let inc = inst.answer () in
  let batch = inst.recompute () in
  if not (String.equal inc batch) then
    raise
      (Check_failed
         (Printf.sprintf "answer mismatch: incremental=%s batch=%s" inc batch))

let check_metrics ~prev inst =
  let o = inst.obs in
  let depth = Ig_obs.Obs.span_depth o in
  if depth <> 0 then
    raise
      (Check_failed
         (Printf.sprintf "metrics: %d span(s) still open after step: %s" depth
            (String.concat ", " (Ig_obs.Obs.open_spans o))));
  let cur = Ig_obs.Obs.counters o in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k cur with
      | Some v' when v' >= v -> ()
      | Some v' ->
          raise
            (Check_failed
               (Printf.sprintf "metrics: counter %s decreased %d -> %d" k v v'))
      | None ->
          raise
            (Check_failed
               (Printf.sprintf "metrics: counter %s disappeared (was %d)" k v)))
    prev;
  (* Every latency/GC histogram the engine recorded so far must satisfy
     the structural invariants (bucket totals match the count, min <= max,
     the sum within [count*min, count*max]). *)
  List.iter
    (fun (k, h) ->
      match Ig_obs.Histogram.check_invariants h with
      | () -> ()
      | exception Failure msg ->
          raise
            (Check_failed (Printf.sprintf "metrics: histogram %s: %s" k msg)))
    (Ig_obs.Obs.histograms o);
  cur
