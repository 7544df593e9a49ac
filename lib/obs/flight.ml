(* Flight recorder: periodic registry snapshots with bounded retention.

   Snapshots the Obs registry every [every] *applied updates* — a
   logical cadence, because D3 forbids ambient wall-clock reads outside
   this library and, more importantly, because an update-count cadence
   makes the snapshot stream a pure function of the workload: two runs
   of the same update sequence snapshot at the same points, which is
   what lets @trace-determinism diff the emitted files byte-for-byte.

   Each snapshot appends one line to [metrics.jsonl]: [{seq; updates;
   metrics; slo}], rewritten down to the newest [retain] lines whenever
   it grows past twice that (amortized O(1) per snapshot).

   When an SLO tracker is armed, every snapshot evaluates it against
   the registry first, so trip transitions land in the registry's events
   at snapshot granularity and the JSONL ring carries the budget state the
   [incgraph top] dashboard renders. *)

type t = {
  dir : string;
  every : int;
  retain : int;
  deterministic : bool;
  obs : Obs.t;
  slo : Slo.t option;
  mutable updates : int;
  mutable snapshots : int;
  lines : string Queue.t; (* newest [<= retain] jsonl lines *)
  mutable lines_in_file : int;
}

let create ?(every = 1) ?(retain = 32) ?(deterministic = false) ?slo ~dir
    ~obs () =
  if every < 1 then invalid_arg "Flight.create: every must be >= 1";
  if retain < 1 then invalid_arg "Flight.create: retain must be >= 1";
  {
    dir;
    every;
    retain;
    deterministic;
    obs;
    slo;
    updates = 0;
    snapshots = 0;
    lines = Queue.create ();
    lines_in_file = 0;
  }

let dir t = t.dir
let updates t = t.updates
let snapshots t = t.snapshots
let slo t = t.slo

let write_file path content =
  let oc = (open_out [@lint.allow "D3"]) path in
  output_string oc content;
  close_out oc

let jsonl_path t = Filename.concat t.dir "metrics.jsonl"

(* Series whose values depend on the clock or the GC, not on the
   workload: histograms named [*_s] (seconds) or [gc_*]. *)
let clock_derived name =
  String.ends_with ~suffix:"_s" name || String.starts_with ~prefix:"gc_" name

(* Registry state for the JSONL ring; the deterministic variant keeps
   counters, gauges, span call counts and work histograms, dropping span
   seconds and the clock-derived histograms. *)
let metrics_json t =
  if not t.deterministic then Obs.to_json t.obs
  else
    Json.Obj
      [
        ( "counters",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.Int v)) (Obs.counters t.obs)) );
        ( "gauges",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Obs.gauges t.obs))
        );
        ( "spans",
          Json.Obj
            (List.map
               (fun (k, (n, _)) -> (k, Json.Obj [ ("count", Json.Int n) ]))
               (Obs.spans t.obs)) );
        ( "histograms",
          Json.Obj
            (List.filter_map
               (fun (k, h) ->
                 if clock_derived k then None
                 else Some (k, Histogram.to_json h))
               (Obs.histograms t.obs)) );
      ]

let snapshot t =
  let slo_json =
    match t.slo with
    | None -> Json.Null
    | Some s ->
        ignore (Slo.evaluate s ~obs:t.obs);
        Slo.to_json s
  in
  let seq = t.snapshots in
  t.snapshots <- seq + 1;
  let line =
    Json.to_string
      (Json.Obj
         [
           ("seq", Json.Int seq);
           ("updates", Json.Int t.updates);
           ("metrics", metrics_json t);
           ("slo", slo_json);
         ])
  in
  Queue.push line t.lines;
  if Queue.length t.lines > t.retain then ignore (Queue.pop t.lines);
  if t.lines_in_file >= 2 * t.retain then begin
    (* Compact the ring file down to the retained tail. *)
    let buf = Buffer.create 4096 in
    Queue.iter
      (fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      t.lines;
    write_file (jsonl_path t) (Buffer.contents buf);
    t.lines_in_file <- Queue.length t.lines
  end
  else begin
    let oc =
      (open_out_gen [@lint.allow "D3"])
        [ Open_append; Open_creat; Open_wronly ]
        0o644 (jsonl_path t)
    in
    output_string oc line;
    output_char oc '\n';
    close_out oc;
    t.lines_in_file <- t.lines_in_file + 1
  end

(* One applied update; snapshots when the cadence comes due. *)
let tick t =
  t.updates <- t.updates + 1;
  if t.updates mod t.every = 0 then snapshot t
