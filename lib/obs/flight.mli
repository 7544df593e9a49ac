(** Flight recorder: periodic registry snapshots with bounded retention.

    Snapshots the {!Obs} registry every [every] {e applied updates} — a
    logical cadence, so the snapshot stream is a pure function of the
    workload and two runs of the same update sequence snapshot at the
    same points (the property @trace-determinism diffs). Each snapshot
    appends a [{seq; updates; metrics; slo}] line to [metrics.jsonl],
    compacted to the newest [retain] lines whenever it doubles. An armed
    {!Slo} tracker is evaluated at every snapshot, so trip transitions
    land in [obs]'s events at snapshot granularity. *)

type t

val create :
  ?every:int ->
  ?retain:int ->
  ?deterministic:bool ->
  ?slo:Slo.t ->
  dir:string ->
  obs:Obs.t ->
  unit ->
  t
(** [every] defaults to 1 (snapshot each update), [retain] to 32. The
    directory must already exist. [~deterministic:true] drops every
    clock- or GC-derived series from the metrics object — span seconds
    (span call counts stay) and any histogram whose name ends in [_s] or
    starts with [gc_] — so the lines of two runs of the same update
    sequence are byte-identical across runs, hash seeds and machines.
    @raise Invalid_argument when [every] or [retain] is below 1. *)

val tick : t -> unit
(** Count one applied update; snapshots when the cadence comes due. *)

val snapshot : t -> unit
(** Force a snapshot now (also evaluates the SLO tracker). *)

val dir : t -> string

val updates : t -> int
(** Updates ticked so far. *)

val snapshots : t -> int
(** Snapshots written so far. *)

val slo : t -> Slo.t option
