(** Cost-accounting observability.

    A registry of named monotonic counters, gauges, scoped spans
    and latency/allocation histograms. Every incremental engine takes one
    at creation; the default is {!noop}, a sink whose operations are
    single-branch no-ops, so engines nobody measures pay one match per
    probe and allocate nothing.

    The counters realize the paper's cost model: {!K.aff} is the measured
    |AFF| (certificate entries identified as affected), {!K.cert_rewrites}
    the entries actually rewritten, and {!K.changed} = |ΔG| + |ΔO| the
    size of the change. "Bounded" claims become assertions over ratios of
    these counters; "faster" claims become deltas between two BENCH json
    files built from them; tail-latency claims become quantiles of the
    {!K.apply_latency} histogram recorded by {!with_apply}.

    The same sink carries the structured events that explain those
    counters: a sink created with [~events] owns a bounded {!Tracer} ring,
    and the event probes below record AFF entries tagged with the
    paper rule that fired, certificate rewrites, frontier expansions,
    spans, compactions and SLO violations into it. The probes that both
    count and explain ({!aff_enter}, {!frontier_expand}, {!with_span}) are
    one call feeding both.

    {2 Clock contract}

    Every duration this module measures — {!with_span},
    {!observe_time}, {!with_apply} — is taken on the system
    monotonic clock ([CLOCK_MONOTONIC], nanosecond resolution), never the
    wall clock. Consequences:

    - durations can never be negative, regardless of NTP steps, DST
      changes or an operator resetting the system time mid-run;
    - timestamps ({!now_s}, {!now_ns}) are meaningful only as differences
      within a single process, not as absolute dates;
    - the clock does not tick while the machine is suspended (Linux
      [CLOCK_MONOTONIC] semantics), so a span across a suspend measures
      runtime, not elapsed civil time. *)

type t
(** A metrics sink: either the disabled {!noop} or a live registry from
    {!create}. *)

val noop : t
(** The disabled sink: every probe is a single branch, nothing is stored,
    every read returns the zero of its type. *)

val create : ?events:int -> unit -> t
(** A fresh live registry. [~events:capacity] also gives it an event ring
    holding the newest [capacity] events; without it no ring is allocated
    and the event probes only count. @raise Invalid_argument when
    [capacity <= 0]. *)

val default_events : int
(** The ring capacity the CLI and [Spec.make]'s oracles use by default. *)

val enabled : t -> bool
(** [false] exactly on {!noop}. *)

val tracing : t -> bool
(** [true] exactly on a sink created with [~events]. Guards the building
    of event payloads (before/after strings) that only a ring would keep. *)

val sorted_bindings :
  compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings of a hash table sorted by key under [compare] — the
    sanctioned way to iterate a [Hashtbl] wherever the visit order could
    reach certificates, trace events or user-visible output, since raw
    [Hashtbl.iter]/[fold] order varies with the process hash seed. The
    relative order of duplicate-key bindings is unspecified. *)

val now_ns : unit -> int64
(** Monotonic timestamp, nanoseconds. Differences only. *)

val now_s : unit -> float
(** Monotonic timestamp, seconds. Differences only. *)

(** Canonical metric names, so engines and report consumers agree on
    spelling. *)
module K : sig
  val aff : string
  val cert_rewrites : string
  val nodes_visited : string
  val edges_relaxed : string
  val queue_pushes : string
  val changed : string
  val changed_input : string
  val changed_output : string

  val journal_ops : string
  (** Effective ops written to the durable journal. *)

  val journal_replayed : string
  (** Ops re-applied from the journal during recovery. *)

  val journal_undone : string
  (** Compensating undo batches appended. *)

  val snapshots : string
  (** Certificate snapshots written. *)

  val rematches : string
  (** IncISO: anchored VF2 runs, one per (inserted edge, label-compatible
      pattern edge). *)

  val rank_moves : string
  (** IncSCC: the rank-region size of each violation. *)

  val violations : string
  (** IncSCC: rank violations resolved by affected-region search. *)

  val fast_deletes : string
  (** IncSCC: intra-component deletions resolved by the O(1) witness
      check. *)

  val apply_latency : string
  (** Histogram of seconds per apply_batch call, recorded by
      {!with_apply}. *)

  val gc_minor_words : string
  (** Histogram of minor-heap words allocated per apply_batch call, read
      exactly from [Gc.minor_words]. *)

  val gc_major_words : string
  (** Histogram of major-heap words (allocated directly or promoted) per
      apply_batch call, from [Gc.counters]: collection-granular, it moves
      only when a collection runs inside the call. *)

  val gc_promoted_words : string
  (** Histogram of words promoted minor→major per apply_batch call, from
      [Gc.counters]: collection-granular, like {!gc_major_words}. *)

  val csr_overlay_add : string
  (** Gauge: edges pending in the CSR add overlay. *)

  val csr_overlay_del : string
  (** Gauge: edges pending in the CSR delete overlay. *)

  val csr_compactions : string
  (** Counter: CSR overlay→base rebuilds performed. *)

  val csr_compact_latency : string
  (** Histogram of seconds per CSR compaction. *)

  val csr_compact_bytes : string
  (** Histogram of bytes copied per CSR compaction (rebuilt base arrays). *)

  val wal_append_latency : string
  (** Histogram of seconds per journal frame append (serialize + write). *)

  val wal_fsync_latency : string
  (** Histogram of seconds per journal fsync. *)

  val journal_bytes : string
  (** Gauge: bytes in the journal file after the last append. *)
end

(** {2 Counters} — monotonic; negative increments are rejected. *)

val add : t -> string -> int -> unit
(** @raise Invalid_argument on a negative increment (live sinks only). *)

val incr : t -> string -> unit
val counter : t -> string -> int

val note_changed_input : t -> int -> unit
(** Count effective input updates: adds to {!K.changed_input} and the
    {!K.changed} aggregate. Its one caller is the graph: [Digraph.add_edge]
    and [Digraph.remove_edge] count each effective mutation on the sink an
    engine attached with [Digraph.instrument]. *)

val note_changed_output : t -> int -> unit
(** Count output-delta entries: adds to {!K.changed_output} and the
    {!K.changed} aggregate. Its one caller is [Delta_set.flush], the
    signed ΔO set every engine reports through. *)

(** {2 Gauges} — last-write-wins integers. *)

val set_gauge : t -> string -> int -> unit
val gauge : t -> string -> int

(** {2 Spans} — scoped timed sections. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Time the thunk as one entry of span [name], closing it however the
    thunk exits. On a sink with events, records [Span_begin] before the
    thunk runs and [Span_end] after it returns or raises. *)

val span : t -> string -> int * float
(** [(entries, cumulative seconds)] for a span name. *)

(** {2 Events} — the ring of a sink created with [~events]. Every
    probe is a no-op on {!noop}; on a sink without a ring the counting
    probes still count and the others do nothing. *)

val aff_enter : t -> node:int -> rule:Tracer.rule -> unit
(** [node] enters AFF because [rule] fired: adds 1 to {!K.aff} and
    records [Aff_enter]. *)

val frontier_expand : t -> node:int -> unit
(** [node] is pushed on an engine's work queue: adds 1 to
    {!K.queue_pushes} and records [Frontier_expand]. *)

val cert_rewrite :
  t -> node:int -> field:string -> before:string -> after:string -> unit
(** Record [Cert_rewrite]; {!K.cert_rewrites} is counted by the caller,
    whose unit of rewrite need not be one event. *)

val compaction : t -> edges:int -> overlay:int -> unit
val slo_violation : t -> rule:string -> value:float -> limit:float -> unit

val emit : t -> Tracer.event -> unit
(** Record an event and count nothing: the AFF entries and queue pushes
    whose counters are kept in other units (a settle outside AFF, one
    anchored VF2 run) or added in bulk (a local Tarjan run over a whole
    component). Build the event under {!tracing}. *)

val events : t -> Tracer.snapshot
(** The buffered events, oldest first; empty without a ring. *)

val clear_events : t -> unit
(** Forget the buffered events, so the next {!events} explains just what
    follows. Counters, spans and histograms are untouched: callers clear
    between batches while [Oracle.check_metrics] needs counters
    monotone. *)

(** {2 Histograms} — mergeable latency/allocation distributions. *)

val observe : t -> string -> float -> unit
(** Record one sample into a named {!Histogram}. *)

val observe_time : t -> string -> (unit -> 'a) -> 'a
(** Time the thunk on the monotonic clock into the [name] histogram —
    one sample per call ({!with_apply} minus the GC accounting). On
    {!noop}: one branch, no clock read. *)

val histogram : t -> string -> Histogram.t option
(** The live histogram for a name; [None] on {!noop} or before the first
    {!observe}. The returned value aliases registry state — copy it
    ({!Histogram.copy}) to keep a snapshot. *)

val histograms : t -> (string * Histogram.t) list
(** All histograms, sorted by name. Values alias registry state. *)

val with_apply : t -> (unit -> 'a) -> 'a
(** Per-batch latency and allocation accounting: run the thunk, record its
    monotonic duration into the {!K.apply_latency} histogram and the words
    it allocated into the [gc_*] histograms (minor words exact, from
    [Gc.minor_words]; major and promoted words collection-granular, from
    [Gc.counters]). Every call records one sample; engines call it once
    per [apply_batch]. On {!noop} this is a single branch. *)

(** {2 Snapshots} *)

val counters : t -> (string * int) list
(** Sorted by name; likewise for the other snapshot accessors. *)

val gauges : t -> (string * int) list
val spans : t -> (string * (int * float)) list

val reset : t -> unit
(** Clear everything (including histograms and the events); the sink
    stays live. *)

val diff_counters :
  prev:(string * int) list -> cur:(string * int) list -> (string * int) list
(** Counter snapshot difference: what a single update contributed. Keys
    are the union; values are [cur - prev] clamped at 0. *)

val to_json : t -> Json.t
(** Counters, gauges, spans and histograms as one json object. *)
