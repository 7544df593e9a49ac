(** Export event snapshots ({!Obs.events}).

    Two renderings of the same {!Tracer.snapshot}: Chrome trace-event
    JSON (loadable in Perfetto / chrome://tracing) and a human-readable
    "explain" rendering. Timestamps are the ring's logical sequence
    numbers (1 event = 1 µs), so exports of seeded runs are byte-for-byte
    deterministic — no wall-clock reads anywhere in this module. *)

val to_chrome : name:string -> Tracer.snapshot -> Json.t
(** Chrome "JSON Array Format" with a [traceEvents] wrapper: span
    begin/end become "B"/"E" duration events; [Aff_enter],
    [Cert_rewrite] and [Frontier_expand] become thread-scoped instant
    events whose [args] carry the provenance. *)

val write_chrome : path:string -> name:string -> Tracer.snapshot -> unit

val validate : Json.t -> (int, string) result
(** Structural checker behind bench/validate.exe and the @trace-smoke
    alias: [traceEvents] must be a well-formed event array, B/E spans
    must nest, timestamps must be non-decreasing, and every [aff_enter]
    instant must carry a rule tag. Returns the number of trace events. *)

val pp_event : Format.formatter -> Tracer.entry -> unit

val rule_histogram : Tracer.snapshot -> (string * int) list
(** Per-rule counts of the [Aff_enter] events, sorted by rule name: the
    provenance histogram [incgraph explain] prints per update. *)

val pp_explain : ?limit:int -> Format.formatter -> Tracer.snapshot -> unit
(** Histograms first (the provenance summary), then up to [limit] raw
    events. [limit < 0] prints everything; default 20. *)

val explain_to_string : ?limit:int -> Tracer.snapshot -> string
