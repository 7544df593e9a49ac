(* Cost-accounting observability.

   A registry of named monotonic counters, gauges, timers, scoped spans
   and latency/allocation histograms. Every incremental engine takes one
   at creation; the default is [noop], a sink whose operations are
   single-branch no-ops, so engines that nobody measures pay one match per
   probe and allocate nothing. All durations are measured on a monotonic
   clock (see the .mli for the clock contract).

   The counters realize the paper's cost model: [K.aff] is the measured
   |AFF| (certificate entries identified as affected), [K.cert_rewrites]
   the entries actually rewritten, and [K.changed] = |ΔG| + |ΔO| the size
   of the change (effective input updates plus output delta). "Bounded"
   claims become assertions over ratios of these counters; "faster" claims
   become deltas between two BENCH json files built from them. *)

type registry = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  timers : (string, float ref) Hashtbl.t;
  spans : (string, int ref * float ref) Hashtbl.t; (* entries, cumulative s *)
  mutable span_stack : (string * float) list;
  histos : (string, Histogram.t) Hashtbl.t;
}

type t = Noop | Reg of registry

let noop = Noop

let create () =
  Reg
    {
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 8;
      timers = Hashtbl.create 8;
      spans = Hashtbl.create 8;
      span_stack = [];
      histos = Hashtbl.create 8;
    }

(* ---- the clock ------------------------------------------------------------

   All timers and spans read CLOCK_MONOTONIC (via the bechamel stubs, ns
   resolution), never the wall clock: an NTP step or DST adjustment during
   a measured section must not produce a negative or wildly wrong
   duration. Monotonic timestamps are meaningful only as differences
   within one process. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9

let enabled = function Noop -> false | Reg _ -> true

let slot tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl name r;
      r

(* The one sanctioned way to turn a hash table into an ordered view: fold
   the bindings out (order irrelevant — sorting erases it) and sort by
   key. Everything user-visible that reads a Hashtbl goes through here so
   the output cannot depend on the process hash seed. *)
let sorted_bindings ~compare tbl =
  let items =
    (Hashtbl.fold [@lint.allow "D2"]) (fun k v acc -> (k, v) :: acc) tbl []
  in
  List.stable_sort (fun (k1, _) (k2, _) -> compare k1 k2) items

(* ---- canonical counter names -------------------------------------------- *)

module K = struct
  let aff = "aff"
  let cert_rewrites = "cert_rewrites"
  let nodes_visited = "nodes_visited"
  let edges_relaxed = "edges_relaxed"
  let queue_pushes = "queue_pushes"
  let changed = "changed"
  let changed_input = "changed_input"
  let changed_output = "changed_output"
  let journal_ops = "journal_ops"
  let journal_replayed = "journal_replayed"
  let journal_undone = "journal_undone"
  let snapshots = "snapshots"

  (* Canonical histogram names recorded by [with_apply]. Uniform across
     engines: each engine owns its registry, so the series name — not the
     key — tells engines apart, and BENCH comparison pairs them by key. *)
  let apply_latency = "apply_latency_s"
  let gc_minor_words = "gc_minor_words"
  let gc_major_words = "gc_major_words"
  let gc_promoted_words = "gc_promoted_words"

  (* CSR + delta-overlay graph instrumentation (lib/graph/digraph.ml). *)
  let csr_overlay_add = "csr_overlay_add"
  let csr_overlay_del = "csr_overlay_del"
  let csr_compactions = "csr_compactions"
  let csr_compact_latency = "csr_compact_latency_s"
  let csr_compact_bytes = "csr_compact_bytes"

  (* Durable journal instrumentation (lib/journal). The *_latency names
     end in [_s] like [apply_latency] so deterministic exports can filter
     every clock-derived histogram by suffix. *)
  let wal_append_latency = "wal_append_latency_s"
  let wal_fsync_latency = "wal_fsync_latency_s"
  let journal_replay_latency = "journal_replay_latency_s"
  let journal_undo_latency = "journal_undo_latency_s"
  let snapshot_write_latency = "snapshot_write_latency_s"
  let journal_bytes = "journal_bytes"
end

(* ---- counters ------------------------------------------------------------ *)

let add t name k =
  match t with
  | Noop -> ()
  | Reg r ->
      if k < 0 then invalid_arg "Obs.add: counters are monotonic";
      let c = slot r.counters name in
      c := !c + k

let incr t name = add t name 1

let counter t name =
  match t with
  | Noop -> 0
  | Reg r -> (
      match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0)

(* |ΔG| and |ΔO| contributions both feed the aggregate [K.changed]. *)
let note_changed_input t k =
  add t K.changed_input k;
  add t K.changed k

let note_changed_output t k =
  add t K.changed_output k;
  add t K.changed k

(* ---- gauges -------------------------------------------------------------- *)

let set_gauge t name v =
  match t with
  | Noop -> ()
  | Reg r ->
      let g = slot r.gauges name in
      g := v

let gauge t name =
  match t with
  | Noop -> 0
  | Reg r -> (
      match Hashtbl.find_opt r.gauges name with Some g -> !g | None -> 0)

(* ---- timers --------------------------------------------------------------- *)

let add_time t name secs =
  match t with
  | Noop -> ()
  | Reg r ->
      let tr =
        match Hashtbl.find_opt r.timers name with
        | Some tr -> tr
        | None ->
            let tr = ref 0.0 in
            Hashtbl.replace r.timers name tr;
            tr
      in
      tr := !tr +. secs

let time t name f =
  match t with
  | Noop -> f ()
  | Reg _ ->
      let t0 = now_s () in
      Fun.protect ~finally:(fun () -> add_time t name (now_s () -. t0)) f

let timer t name =
  match t with
  | Noop -> 0.0
  | Reg r -> (
      match Hashtbl.find_opt r.timers name with Some tr -> !tr | None -> 0.0)

(* ---- scoped spans ---------------------------------------------------------- *)

let span_depth = function Noop -> 0 | Reg r -> List.length r.span_stack

(* Names of the currently open spans, innermost first. *)
let open_spans = function Noop -> [] | Reg r -> List.map fst r.span_stack

let span_begin t name =
  match t with
  | Noop -> ()
  | Reg r -> r.span_stack <- (name, now_s ()) :: r.span_stack

let span_end t name =
  match t with
  | Noop -> ()
  | Reg r -> (
      match r.span_stack with
      | (top, t0) :: rest when top = name ->
          r.span_stack <- rest;
          let entries, total =
            match Hashtbl.find_opt r.spans name with
            | Some cell -> cell
            | None ->
                let cell = (ref 0, ref 0.0) in
                Hashtbl.replace r.spans name cell;
                cell
          in
          entries := !entries + 1;
          total := !total +. (now_s () -. t0)
      | (top, _) :: _ ->
          invalid_arg
            (Printf.sprintf "Obs.span_end: %s closed while %s is open" name top)
      | [] ->
          invalid_arg
            (Printf.sprintf "Obs.span_end: %s closed but no span is open" name))

let with_span t name f =
  match t with
  | Noop -> f ()
  | Reg _ ->
      span_begin t name;
      Fun.protect ~finally:(fun () -> span_end t name) f

let span t name =
  match t with
  | Noop -> (0, 0.0)
  | Reg r -> (
      match Hashtbl.find_opt r.spans name with
      | Some (n, s) -> (!n, !s)
      | None -> (0, 0.0))

(* ---- histograms ------------------------------------------------------------ *)

let hist_slot r name =
  match Hashtbl.find_opt r.histos name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.replace r.histos name h;
      h

let observe t name v =
  match t with Noop -> () | Reg r -> Histogram.observe (hist_slot r name) v

(* Time [f] on the monotonic clock into the [name] histogram, one sample
   per call. The Noop sink costs one branch and never reads the clock. *)
let observe_time t name f =
  match t with
  | Noop -> f ()
  | Reg _ ->
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          observe t name (Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9))
        f

let histogram t name =
  match t with Noop -> None | Reg r -> Hashtbl.find_opt r.histos name

let histograms = function
  | Noop -> []
  | Reg r -> sorted_bindings ~compare:String.compare r.histos

(* Per-batch latency and allocation accounting: time [f] on the monotonic
   clock and record the duration into the [K.apply_latency] histogram,
   together with the words the batch allocated. Minor words come from
   [Gc.minor_words], which is exact: on OCaml 5.1, [Gc.quick_stat] reads 0
   for a batch that runs no minor collection, and [Gc.counters] reports
   minor words divided by the word size. Major and promoted words come
   from [Gc.counters] and are collection-granular: they move only when a
   collection runs inside the batch. Engines wrap their one entry point,
   [apply_batch], with this, so each batch is one sample. The Noop sink
   costs one branch. *)
let with_apply t f =
  match t with
  | Noop -> f ()
  | Reg _ ->
      let _, promoted0, major0 = Gc.counters () in
      let minor0 = Gc.minor_words () in
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9 in
          let minor1 = Gc.minor_words () in
          let _, promoted1, major1 = Gc.counters () in
          observe t K.apply_latency dt;
          observe t K.gc_minor_words (minor1 -. minor0);
          observe t K.gc_major_words (major1 -. major0);
          observe t K.gc_promoted_words (promoted1 -. promoted0))
        f

(* ---- snapshots -------------------------------------------------------------- *)

let sorted_items deref tbl =
  List.map
    (fun (k, v) -> (k, deref v))
    (sorted_bindings ~compare:String.compare tbl)

let counters = function
  | Noop -> []
  | Reg r -> sorted_items ( ! ) r.counters

let gauges = function Noop -> [] | Reg r -> sorted_items ( ! ) r.gauges
let timers = function Noop -> [] | Reg r -> sorted_items ( ! ) r.timers

let spans = function
  | Noop -> []
  | Reg r -> sorted_items (fun (n, s) -> (!n, !s)) r.spans

let reset = function
  | Noop -> ()
  | Reg r ->
      Hashtbl.reset r.counters;
      Hashtbl.reset r.gauges;
      Hashtbl.reset r.timers;
      Hashtbl.reset r.spans;
      Hashtbl.reset r.histos;
      r.span_stack <- []

(* Counter snapshot difference: what a single update contributed. Keys are
   the union; values are cur - prev (clamped at 0 so a reset between
   snapshots reads as zero work, not negative). *)
let diff_counters ~prev ~cur =
  let keys =
    List.sort_uniq compare (List.map fst prev @ List.map fst cur)
  in
  List.filter_map
    (fun k ->
      let v0 = Option.value ~default:0 (List.assoc_opt k prev) in
      let v1 = Option.value ~default:0 (List.assoc_opt k cur) in
      if v1 > v0 then Some (k, v1 - v0) else None)
    keys

let to_json t =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (gauges t)));
      ("timers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (timers t)));
      ( "spans",
        Json.Obj
          (List.map
             (fun (k, (n, s)) ->
               (k, Json.Obj [ ("count", Json.Int n); ("seconds", Json.Float s) ]))
             (spans t)) );
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, Histogram.to_json h)) (histograms t))
      );
    ]
