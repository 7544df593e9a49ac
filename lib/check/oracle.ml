module type ORACLE = sig
  type t
  type query

  val name : string
  val series : string

  val init :
    obs:Ig_obs.Obs.t -> trace:Ig_obs.Tracer.t -> Ig_graph.Digraph.t -> query -> t

  val graph : t -> Ig_graph.Digraph.t
  val apply : t -> Ig_graph.Digraph.update -> unit
  val apply_batch : t -> Ig_graph.Digraph.update list -> int * string
  val describe : t -> string
  val answer : t -> string
  val recompute : t -> string
  val check_invariants : t -> unit
  val obs : t -> Ig_obs.Obs.t
  val trace : t -> Ig_obs.Tracer.t
  val cert_snapshot : t -> (string * string) list
end

type packed = Packed : (module ORACLE with type t = 'a) * 'a -> packed

let name (Packed ((module O), _)) = O.name
let series (Packed ((module O), _)) = O.series
let graph (Packed ((module O), t)) = O.graph t
let apply (Packed ((module O), t)) u = O.apply t u
let apply_batch (Packed ((module O), t)) us = O.apply_batch t us
let describe (Packed ((module O), t)) = O.describe t
let answer (Packed ((module O), t)) = O.answer t
let recompute (Packed ((module O), t)) = O.recompute t
let check_invariants (Packed ((module O), t)) = O.check_invariants t
let obs (Packed ((module O), t)) = O.obs t
let trace (Packed ((module O), t)) = O.trace t
let cert_snapshot (Packed ((module O), t)) = O.cert_snapshot t

exception Check_failed of string

let check inst =
  (match check_invariants inst with
  | () -> ()
  | exception Failure msg -> raise (Check_failed ("invariant: " ^ msg)));
  let inc = answer inst in
  let batch = recompute inst in
  if not (String.equal inc batch) then
    raise
      (Check_failed
         (Printf.sprintf "answer mismatch: incremental=%s batch=%s" inc batch))

let check_metrics ~prev inst =
  let o = obs inst in
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
