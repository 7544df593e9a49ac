(** Cost-accounting observability.

    A registry of named monotonic counters, gauges, timers, scoped spans
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

    {2 Clock contract}

    Every duration this module measures — {!time}, {!span_begin} /
    {!span_end}, {!with_span}, {!with_apply} — is taken on the system
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

val create : unit -> t
(** A fresh live registry. *)

val enabled : t -> bool
(** [false] exactly on {!noop}. *)

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

  val journal_replay_latency : string
  (** Histogram of seconds per recovery replay pass. *)

  val journal_undo_latency : string
  (** Histogram of seconds per compensating undo batch. *)

  val snapshot_write_latency : string
  (** Histogram of seconds per certificate snapshot write. *)

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
    {!K.changed} aggregate. *)

val note_changed_output : t -> int -> unit
(** Count output-delta entries: adds to {!K.changed_output} and the
    {!K.changed} aggregate. *)

(** {2 Gauges} — last-write-wins integers. *)

val set_gauge : t -> string -> int -> unit
val gauge : t -> string -> int

(** {2 Timers} — cumulative seconds on the monotonic clock. *)

val add_time : t -> string -> float -> unit
val time : t -> string -> (unit -> 'a) -> 'a
val timer : t -> string -> float

(** {2 Spans} — LIFO-scoped timed sections. *)

val span_begin : t -> string -> unit

val span_end : t -> string -> unit
(** @raise Invalid_argument when [name] is not the innermost open span. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Exception-safe [span_begin]/[span_end] pair. *)

val span : t -> string -> int * float
(** [(entries, cumulative seconds)] for a span name. *)

val span_depth : t -> int

val open_spans : t -> string list
(** Names of the currently open spans, innermost first. *)

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
val timers : t -> (string * float) list
val spans : t -> (string * (int * float)) list

val reset : t -> unit
(** Clear everything (including histograms and the open-span stack); the
    sink stays live. *)

val diff_counters :
  prev:(string * int) list -> cur:(string * int) list -> (string * int) list
(** Counter snapshot difference: what a single update contributed. Keys
    are the union; values are [cur - prev] clamped at 0. *)

val to_json : t -> Json.t
(** Counters, gauges, timers, spans and histograms as one json object. *)
