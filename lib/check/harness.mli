(** The differential fuzzing harness.

    Drives an oracle through a seeded random update stream, validating after
    {e every} unit update that (1) the engine's auxiliary certificates pass
    [check_invariants] and (2) the incremental answer equals a from-scratch
    batch recomputation. On the first violation the failing prefix is
    delta-debugged ({!Shrink.ddmin}) against fresh replays into a minimal
    reproducer, reported both as a replayable OCaml value and as an
    edge-list file. *)

type failure = {
  algo : string;
  seed : int;
  step : int;  (** 1-based step at which the violation surfaced; 0 = the
                   post-init check already failed *)
  reason : string;
  stream : Ig_graph.Digraph.update list;  (** failing prefix, in order *)
  shrunk : Ig_graph.Digraph.update list;  (** 1-minimal reproducer *)
  trace : Ig_obs.Tracer.snapshot option;
      (** event log of the shrunk reproducer's failing step (the events
          are cleared before the last update of a fresh replay), when the
          oracle's sink records events *)
}

val run :
  make:(unit -> Oracle.t) ->
  ?focus:(Ig_graph.Digraph.node * Ig_graph.Digraph.node) list ->
  steps:int ->
  seed:int ->
  unit ->
  (int, failure) result
(** [run ~make ~steps ~seed ()] checks the freshly made oracle, then
    generates and applies [steps] unit updates, checking after each.
    [make] must be deterministic — it is re-invoked for every shrinking
    replay, so it has to rebuild an identical engine over an identical copy
    of the base graph (including any deliberate corruption the caller
    injects for mutation testing). Returns [Ok steps] on a clean run. *)

val replay_fails : make:(unit -> Oracle.t) -> Ig_graph.Digraph.update list -> bool
(** Replay a concrete stream on a fresh oracle with per-step checks; [true]
    iff some check fails or the engine crashes. (The predicate handed to
    {!Shrink.ddmin}; exposed for tests.) *)

val pp_failure : Format.formatter -> failure -> unit

val save_failure :
  dir:string ->
  base:Ig_graph.Digraph.t ->
  ?spec:Spec.t ->
  failure ->
  string * string * string option * string option
(** Persist reproduction artifacts: [fuzz-<algo>-seed<seed>.graph] (the base
    graph in the {!Ig_graph.Io} text format),
    [fuzz-<algo>-seed<seed>.updates] (the shrunk stream, one [+ u v] /
    [- u v] line per update, full stream appended as comments), — when
    the failure carries a trace — [fuzz-<algo>-seed<seed>.trace.json] (the
    failing step's event log as a Chrome trace), and — when [spec] (the
    scenario's query) is given —
    [fuzz-<algo>-seed<seed>.journal/], a journaled session directory
    (snapshot-0 of the base graph, one batch per shrunk update) replayable
    with [incgraph replay]. Returns the paths. *)
