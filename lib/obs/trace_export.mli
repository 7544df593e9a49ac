(** Render event snapshots ({!Obs.events}) as "explain" text.

    Histograms first (the per-update AFF provenance by paper rule and the
    certificate rewrites by field), then the event log: every field of
    every {!Tracer.entry}, with the ring's logical sequence number and the
    number of events the ring dropped. Renderings of seeded runs are
    byte-for-byte deterministic — no wall-clock reads anywhere in this
    module. *)

val pp_event : Format.formatter -> Tracer.entry -> unit

val rule_histogram : Tracer.snapshot -> (string * int) list
(** Per-rule counts of the [Aff_enter] events, sorted by rule name: the
    provenance histogram [incgraph explain] prints per update. *)

val pp_explain : ?limit:int -> Format.formatter -> Tracer.snapshot -> unit
(** Histograms first (the provenance summary), then up to [limit] raw
    events. [limit < 0] prints everything; default 20. *)

val explain_to_string : ?limit:int -> Tracer.snapshot -> string
