(** The output change ΔO of one engine batch, as a signed set: an answer
    element is [gain]ed when it enters the output and [lose]d when it
    leaves; leaving and coming back within the batch (or the reverse)
    cancels out. Every engine reports ΔO, and counts |ΔO|, through one. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val gain : ('k, 'v) t -> 'k -> 'v -> unit
(** [k] enters with value [v], or its pending loss is cancelled. *)

val lose : ('k, 'v) t -> 'k -> 'v -> unit
(** [k] leaves with value [v], or its pending gain is cancelled. *)

val clear : ('k, 'v) t -> unit
(** Forget every pending change (an engine's [init] building its
    baseline answer). *)

val flush :
  ('k, 'v) t ->
  obs:Ig_obs.Obs.t ->
  compare:('k -> 'k -> int) ->
  ('k * 'v) list * ('k * 'v) list
(** The pending [(gained, lost)], each in ascending key order. Adds their
    total size to [obs] with {!Ig_obs.Obs.note_changed_output} and empties
    the set. *)
