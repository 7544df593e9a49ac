(* Standing-query benchmark: a single-threaded, closed-loop service with one
   client. The service holds standing queries of the paper's classes over a
   graph that keeps changing; every update batch goes to every standing
   query, and the next batch is sent only after each query has returned its
   ΔO. Only public entry points are called (Io.load, each engine's
   init/apply_batch, Digraph, Journal.Store/Log/Snapshot), and every layer
   is timed from the outside, around those calls.

   Usage:
     standing.exe --workload NAME --seed N --seconds S --trace 0|1
                  [--scale F] [--work DIR]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; see README.md in this directory
   for the workloads, the metrics and the noise rules behind them. *)

module D = Core.Digraph
module W = Core.Workload
module J = Core.Journal
module Obs = Core.Obs
module A = Core.Check.Adapters
module H = Core.Obs.Histogram

(* Timings are process CPU time (user + system): the benchmark is
   single-threaded and closed-loop, so this is wall time minus the time the
   host takes the CPU away, which on a shared VM moved wall-clock tails by
   16-31% between runs of the same code. The journal's commits and undos
   also wait on fsync; their samples add the store's own fsync clock (the
   sum of its wal_fsync histogram over the call), so the disk wait counts
   and the host's preemption still does not. *)
let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall = Core.Obs.now_s

(* ---- command line --------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (* multiplies the workload's graph scale (tests shrink it) *)
  work : string;  (* scratch directory for the graph file and the store *)
}

let parse_args () =
  let workload = ref "" and seed = ref 2017 and seconds = ref 10.0 in
  let trace = ref 0 and scale = ref 1.0 and work = ref ".perfbench_work" in
  let usage =
    "standing.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale F] \
     [--work DIR]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 2017)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured stream");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced run");
      ("--scale", Arg.Set_float scale, "F graph scale multiplier (default 1)");
      ("--work", Arg.Set_string work, "DIR scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    scale = !scale;
    work = !work;
  }

(* ---- spans ----------------------------------------------------------------

   In a traced run every public call the benchmark makes is wrapped in a
   span: name, start, end, parent span and batch id. Spans stay in memory
   and are written out when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  batch : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_span = ref 0
let batch_id = ref 0

(* [timed name f] runs [f], returning its result and its duration in
   seconds; in a traced run the call is also recorded as a span. *)
let timed name f =
  if not !tracing then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let close () =
      let t1 = now () in
      open_spans := List.tl !open_spans;
      spans := { id; name; parent; batch = !batch_id; t0; t1 } :: !spans;
      t1 -. t0
    in
    match f () with
    | r -> (r, close ())
    | exception e ->
        ignore (close ());
        raise e
  end

(* Self times per span name (duration minus the time its children cover),
   and the sorted names of each span's children. *)
let self_times spans =
  let cover = Hashtbl.create 1024 and kids = Hashtbl.create 1024 in
  let find tbl k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        Hashtbl.replace cover s.parent (find cover s.parent 0.0 +. (s.t1 -. s.t0));
        Hashtbl.replace kids s.parent (s.name :: find kids s.parent [])
      end)
    spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let own = s.t1 -. s.t0 -. find cover s.id 0.0 in
      Hashtbl.replace self s.name (own :: find self s.name []))
    spans;
  (self, fun id -> List.sort compare (find kids id []))

let write_spans path spans =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"batch\":%d,\
             \"start_s\":%.9f,\"end_s\":%.9f}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.batch s.t0 s.t1)
        spans;
      output_string oc "]\n")

(* ---- statistics ----------------------------------------------------------- *)

let sorted l = List.sort Float.compare l

let quantile l q =
  match sorted l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

(* p90 only where at least ten samples lie beyond it. *)
let p90 l = if List.length l >= 100 then quantile l 0.9 else 0.0
let sum l = List.fold_left ( +. ) 0.0 l

(* ---- host speed -------------------------------------------------------------

   A shared host's speed drifts, within a run and between runs (the same
   code ran twice as slow for an hour at a time), and CPU time cannot see
   a slower core. So the benchmark times a fixed reference probe in the
   same process, every [probe_period] seconds of the stream and before and
   after every set-up, and scales every end-to-end sample by [probe_ref_ms]
   over the median of the probes taken within [probe_window] seconds of
   it: "reference ms" are the ms the sample would have taken on a host
   where the probe takes exactly [probe_ref_ms]. A single probe is too
   noisy to correct a single sample; the median of the eight or so around
   it follows the host's changes of speed, which last seconds to hours.
   The probe uses the standard library only — a breadth-first walk over a
   fixed 20,000-node graph of hash-table adjacency lists, the same kind of
   pointer chasing as the default graph backend — so no change to the
   program can change it, and the walk allocates nothing, so the
   program's heap cannot slow it. *)

let probe_nodes = 20_000
let probe_walk_nodes = 4_000
let probe_period = 0.25
let probe_window = 1.0
let probe_reps = 7
let probe_ref_ms = 1.0

let probe_graph =
  let r = Random.State.make [| 7 |] in
  let t = Hashtbl.create probe_nodes in
  for u = 0 to probe_nodes - 1 do
    Hashtbl.replace t u (List.init 5 (fun _ -> Random.State.int r probe_nodes))
  done;
  t

let probe_stamp = Array.make probe_nodes 0
let probe_queue = Array.make probe_nodes 0
let probe_gen = ref 0

(* One walk of [probe_walk_nodes] nodes from a start node that moves on
   every call, so that successive walks touch different memory. *)
let probe_walk () =
  incr probe_gen;
  let gen = !probe_gen in
  let start = gen * 7919 mod probe_nodes in
  probe_stamp.(start) <- gen;
  probe_queue.(0) <- start;
  let rec visit tail = function
    | [] -> tail
    | v :: rest ->
        if probe_stamp.(v) = gen then visit tail rest
        else begin
          probe_stamp.(v) <- gen;
          probe_queue.(tail) <- v;
          visit (tail + 1) rest
        end
  in
  let rec walk head tail =
    if head < tail && head < probe_walk_nodes then
      walk (head + 1) (visit tail (Hashtbl.find probe_graph probe_queue.(head)))
  in
  walk 0 1

(* Probe times in ms and the wall-clock times they were taken at, in the
   order taken. *)
let probes = ref [||]
let probe_at = ref [||]
let n_probes = ref 0
let next_probe = ref 0.0

let probe () =
  let reps =
    List.init probe_reps (fun _ ->
        let t0 = now () in
        probe_walk ();
        now () -. t0)
  in
  let ms = 1e3 *. median reps in
  let grow a =
    if !n_probes = Array.length !a then begin
      let b = Array.make (max 64 (2 * !n_probes)) 0.0 in
      Array.blit !a 0 b 0 !n_probes;
      a := b
    end
  in
  grow probes;
  grow probe_at;
  !probes.(!n_probes) <- ms;
  !probe_at.(!n_probes) <- wall ();
  incr n_probes;
  next_probe := wall () +. probe_period

(* A traced run probes only around its set-ups: a probe count that
   depends on the clock would make its allocation, and so its exact GC
   counts, vary from run to run. *)
let periodic_probes = ref true
let probe_if_due () = if !periodic_probes && wall () >= !next_probe then probe ()

let probe_ms () = median (Array.to_list (Array.sub !probes 0 !n_probes))

(* The scale of a sample taken at wall-clock time [t]: the reference time
   over the median probe within [probe_window] of [t], or over the run's
   median probe if none is that close. *)
let scale_at t =
  let near = ref [] in
  for i = 0 to !n_probes - 1 do
    if Float.abs (!probe_at.(i) -. t) <= probe_window then
      near := !probes.(i) :: !near
  done;
  probe_ref_ms /. (if !near = [] then probe_ms () else median !near)

(* Samples accumulate in reverse order of arrival, each with the
   wall-clock time of its midpoint. *)
type series = { mutable xs : float list; mutable ts : float list; mutable n : int }

let series () = { xs = []; ts = []; n = 0 }

let push s x =
  s.xs <- x :: s.xs;
  s.ts <- (wall () -. (x /. 2.0)) :: s.ts;
  s.n <- s.n + 1

(* The samples in reference units (see "host speed"). *)
let scaled s = List.map2 (fun x t -> x *. scale_at t) s.xs s.ts

(* The series named [k] in a table of series, created on first use. *)
let series_in tbl k =
  match Hashtbl.find_opt tbl k with
  | Some s -> s
  | None ->
      let s = series () in
      Hashtbl.replace tbl k s;
      s

(* Steady-stream check: the two halves of a series must have medians that
   agree within the series' own spread (its interquartile range, or 5% of
   its median when the spread is tighter). False (a drifting stream)
   counts as a failed op. *)
let steady name s =
  s.n < 20
  ||
  let xs = List.rev (scaled s) in
  let half = s.n / 2 in
  let first = List.filteri (fun i _ -> i < half) xs in
  let second = List.filteri (fun i _ -> i >= half) xs in
  let m1 = median first and m2 = median second in
  let spread =
    Float.max (quantile xs 0.75 -. quantile xs 0.25) (0.05 *. median xs)
  in
  let ok = Float.abs (m1 -. m2) <= spread in
  Printf.printf "steady %-22s first-half p50 %.4f ms, second-half p50 %.4f ms: %s\n"
    name (m1 *. 1e3) (m2 *. 1e3)
    (if ok then "ok" else "DRIFT");
  ok

(* ---- deterministic randomness ------------------------------------------- *)

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* The seed of every workload's graph and standing queries. *)
let graph_seed = 2017

(* ---- the update stream ------------------------------------------------------

   A steady stream: each batch deletes live edges and re-inserts edges that
   were deleted earlier, half and half (ρ = 1), so |E| and the degree
   profile stay constant however long the run. Two indexed edge sets (live
   edges and the pool of deleted ones) give O(1) uniform sampling. *)

module Eset = struct
  type t = {
    mutable a : (int * int) array;
    mutable n : int;
    idx : (int * int, int) Hashtbl.t;
  }

  let create cap = { a = Array.make (max 1 cap) (0, 0); n = 0; idx = Hashtbl.create cap }

  let add t e =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) (0, 0) in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- e;
    Hashtbl.replace t.idx e t.n;
    t.n <- t.n + 1

  let remove t e =
    let i = Hashtbl.find t.idx e in
    let last = t.a.(t.n - 1) in
    t.a.(i) <- last;
    Hashtbl.replace t.idx last i;
    Hashtbl.remove t.idx e;
    t.n <- t.n - 1

  let take t rng =
    let e = t.a.(Random.State.int rng t.n) in
    remove t e;
    e
end

type stream = { rng : Random.State.t; live : Eset.t; pool : Eset.t; half : int }

(* Move [pool_batches] batches' worth of insertions out of [g] into the
   pool; [g] becomes the base graph the services load. *)
let make_stream ~rng g ~batch ~pool_batches =
  let live = Eset.create (D.n_edges g) in
  D.iter_edges (fun u v -> Eset.add live (u, v)) g;
  let half = max 1 (batch / 2) in
  let pool = Eset.create (half * pool_batches) in
  for _ = 1 to half * pool_batches do
    let ((u, v) as e) = Eset.take live rng in
    ignore (D.remove_edge g u v);
    Eset.add pool e
  done;
  { rng; live; pool; half }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let next_batch st =
  let dels = List.init st.half (fun _ -> Eset.take st.live st.rng) in
  let ins = List.init st.half (fun _ -> Eset.take st.pool st.rng) in
  List.iter (Eset.add st.pool) dels;
  List.iter (Eset.add st.live) ins;
  let a =
    Array.of_list
      (List.map (fun (u, v) -> D.Delete (u, v)) dels
      @ List.map (fun (u, v) -> D.Insert (u, v)) ins)
  in
  shuffle st.rng a;
  Array.to_list a

(* Keep the stream's view in step with ops applied by an undo. *)
let follow st = function
  | J.Record.Upsert_edge (u, v) ->
      Eset.remove st.pool (u, v);
      Eset.add st.live (u, v)
  | J.Record.Tombstone_edge (u, v) ->
      Eset.remove st.live (u, v);
      Eset.add st.pool (u, v)
  | J.Record.Upsert_node _ | J.Record.Tombstone_node _ -> ()

(* ---- standing queries ----------------------------------------------------- *)

type query =
  | Kws of Core.Kws.Batch.query
  | Rpq of Core.Regex.t
  | Scc
  | Iso of Core.Iso.Pattern.t
  | Sim of Core.Iso.Pattern.t

let cls = function
  | Kws _ -> "kws"
  | Rpq _ -> "rpq"
  | Scc -> "scc"
  | Iso _ -> "iso"
  | Sim _ -> "sim"

let classes = [ "kws"; "rpq"; "scc"; "iso"; "sim" ]

type session = {
  q : query;
  graph : D.t;
  obs : Obs.t;
  update : D.update list -> int;  (* ΔG in, |ΔO| out *)
  answer : unit -> string;  (* canonical Q(G) *)
  certs : unit -> (string * string) list;
}

let size (d : 'a list) (e : 'a list) = List.length d + List.length e

let start ~obs q g =
  match q with
  | Kws k ->
      let module I = Core.Kws.Inc in
      let s = I.init ~obs g k in
      {
        q; graph = g; obs;
        update = (fun b -> let d = I.apply_batch s b in size d.added d.removed);
        answer = (fun () -> A.canon_nodes (I.match_roots s));
        certs = (fun () -> I.cert_snapshot s);
      }
  | Rpq r ->
      let module I = Core.Rpq.Inc in
      let s = I.create ~obs g r in
      {
        q; graph = g; obs;
        update = (fun b -> let d = I.apply_batch s b in size d.added d.removed);
        answer = (fun () -> A.canon_pairs (I.matches s));
        certs = (fun () -> I.cert_snapshot s);
      }
  | Scc ->
      let module I = Core.Scc.Inc in
      let s = I.init ~obs g in
      {
        q; graph = g; obs;
        update = (fun b -> let d = I.apply_batch s b in size d.added d.removed);
        answer = (fun () -> A.canon_comps (I.components s));
        certs = (fun () -> I.cert_snapshot s);
      }
  | Iso p ->
      let module I = Core.Iso.Inc in
      let s = I.init ~obs g p in
      {
        q; graph = g; obs;
        update = (fun b -> let d = I.apply_batch s b in size d.added d.removed);
        answer = (fun () -> A.canon_mappings p (I.matches s));
        certs = (fun () -> I.cert_snapshot s);
      }
  | Sim p ->
      let module I = Core.Sim.Inc in
      let s = I.init ~obs g p in
      {
        q; graph = g; obs;
        update = (fun b -> let d = I.apply_batch s b in size d.added d.removed);
        answer = (fun () -> A.canon_pairs (Core.Sim.Batch.pairs (I.relation s)));
        certs = (fun () -> I.cert_snapshot s);
      }

(* The batch algorithm on [g]: its duration and its canonical answer. *)
let rerun q g =
  let canon, dt =
    match q with
    | Kws k ->
        let r, dt = timed "kws.batch_rerun" (fun () -> Core.Kws.Batch.run g k) in
        ((fun () -> A.canon_nodes r), dt)
    | Rpq r ->
        let m, dt =
          timed "rpq.batch_rerun" (fun () -> Core.Rpq.Batch.run_query g r)
        in
        ((fun () -> A.canon_pairs m), dt)
    | Scc ->
        let c, dt = timed "scc.batch_rerun" (fun () -> Core.Scc.Tarjan.scc g) in
        ((fun () -> A.canon_comps c), dt)
    | Iso p ->
        let m, dt =
          timed "iso.batch_rerun" (fun () -> Core.Iso.Vf2.find_all g p)
        in
        ((fun () -> A.canon_mappings p m), dt)
    | Sim p ->
        let r, dt = timed "sim.batch_rerun" (fun () -> Core.Sim.Batch.run p g) in
        ((fun () -> A.canon_pairs (Core.Sim.Batch.pairs r)), dt)
  in
  (dt, canon ())

(* Queries are drawn from the base graph: of [draws] candidates, the one
   with the largest answer within [cap]. A trivial answer leaves the engine
   no work to measure; an unbounded one would swamp the round. *)
let pick ?(draws = 12) what ~cap make =
  let best = ref None in
  for i = 0 to draws - 1 do
    match make (rng ~seed:graph_seed (what, i)) with
    | Some (q, n) when n > 0 && n <= cap -> (
        match !best with
        | Some (_, m) when m >= n -> ()
        | _ -> best := Some (q, n))
    | _ -> ()
  done;
  match !best with
  | Some (q, n) ->
      Printf.printf "%s query: answer size %d\n" what n;
      q
  | None -> failwith ("no suitable " ^ what ^ " query")

let rec pick_query g = function
  | "kws" ->
      pick "kws" ~cap:(D.n_nodes g) (fun r ->
          let k = W.Queries.kws ~rng:r g ~m:3 ~b:2 in
          Some (Kws k, List.length (Core.Kws.Batch.run g k)))
  | "rpq" ->
      pick "rpq" ~cap:10_000 (fun r ->
          let q = W.Queries.rpq ~rng:r g ~size:4 in
          Some (Rpq q, List.length (Core.Rpq.Batch.run_query g q)))
  | "scc" -> Scc
  | "sim" -> (
      (* Sim stands over the ISO pattern. *)
      match pick_query g "iso" with Iso p -> Sim p | q -> q)
  | "iso" -> (
      (* Dense, small-diameter patterns as in the paper's query sets. Most
         sampled 4-node patterns are trees of three edges, so ISO draws
         eight times as many candidates; a graph that yields no dense one
         fails the run. *)
      pick ~draws:96 "iso" ~cap:2_000 (fun r ->
          match W.Queries.iso ~rng:r g ~nodes:4 ~edges:6 with
          | Some p
            when Core.Iso.Pattern.n_edges p >= 4
                 && Core.Iso.Pattern.diameter p <= 3 ->
              Some (Iso p, List.length (Core.Iso.Vf2.find_all g p))
          | _ -> None))
  | c -> invalid_arg c

(* ---- workloads -------------------------------------------------------------- *)

type workload = {
  name : string;
  profile : W.Profiles.spec;
  scale : float;
  queries : string list;
  batch : int -> int;  (* batch size from |E| *)
  durable : bool;
  setups : int;
      (* set-ups per run, half before and half after the stream; setup_s
         is their median *)
  window : int;  (* batches over which the exact counters are taken *)
}

let workloads =
  [
    {
      name = "feed-small";
      profile = W.Profiles.dbpedia_like;
      scale = 1.0;
      queries = [ "kws"; "rpq"; "scc" ];
      batch = (fun _ -> 256);
      durable = false;
      setups = 4;
      window = 40;
    };
    {
      name = "bulk-livej";
      profile = W.Profiles.livej_like;
      scale = 0.25;
      queries = [ "kws"; "rpq"; "scc"; "iso" ];
      batch = (fun m -> m / 400);
      durable = false;
      setups = 6;
      window = 20;
    };
    {
      name = "pattern-sim";
      profile = W.Profiles.dbpedia_like;
      scale = 0.25;
      queries = [ "iso"; "sim" ];
      batch = (fun m -> m / 400);
      durable = false;
      setups = 16;
      window = 20;
    };
    {
      name = "durable-undo";
      profile = W.Profiles.dbpedia_like;
      scale = 0.1;
      queries = [ "rpq" ];
      batch = (fun _ -> 64);
      durable = true;
      setups = 24;
      window = 30;
    };
  ]

(* Durable cadence: an undo (k = 1, 2, 3 in turn) after every 4th commit,
   a snapshot every 25 commits, and the recoveries at the end of the exact
   window (commit 30), whose journal tail then holds five commits and one
   undo. *)
let undo_every = 4
let snapshot_every = 25
let recoveries = 3

(* Every run makes at least this many rounds, so that ten samples lie
   beyond its p90. *)
let min_rounds = 100

(* ---- the run ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let fail_op what msg =
  incr failed;
  Printf.printf "FAILED %s: %s\n%!" what msg

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let file_size p = (Unix.stat p).Unix.st_size
let ms x = x *. 1e3

(* Minor words allocated by [f] alone: the words of the measuring code
   itself are subtracted. *)
let words_overhead = ref 0.0

let count_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0 -. !words_overhead)

let () =
  words_overhead := snd (count_words (fun () -> ()))

(* The store's client: ops reach the session through its update. The
   benchmark times that call and hands its duration to [on_apply]; in a
   traced run the whole callback is the commit's [client.apply] span, so
   the commit span's self time is the journal's own overhead. *)
let client_of s ~on_apply =
  {
    J.Store.apply =
      (fun ops ->
        let (n, du), _ =
          timed "client.apply" (fun () ->
              let ups = J.Log.updates_of_ops ops in
              timed (cls s.q ^ ".update") (fun () -> s.update ups))
        in
        ignore (Sys.opaque_identity n);
        on_apply du);
    graph = (fun () -> s.graph);
    answer_digest = (fun () -> J.Log.digest_hex (s.answer ()));
    certs = s.certs;
  }

type service = { sessions : session list; store : J.Store.t option }

let main args =
  let wl =
    match List.find_opt (fun w -> w.name = args.workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" args.workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  rm_rf args.work;
  Sys.mkdir args.work 0o755;
  let seed = args.seed in
  (* Inputs: the profile graph and the standing queries are fixed per
     workload; the seed picks the update stream (and the pool of edges it
     carves out of the graph). A different query per seed would change the
     cost by more than any bound, so the seed varies only the stream. *)
  let g0 =
    W.Profiles.instantiate ~scale:(wl.scale *. args.scale)
      ~rng:(rng ~seed:graph_seed "graph") wl.profile
  in
  let queries = List.map (pick_query g0) wl.queries in
  let batch = max 2 (wl.batch (D.n_edges g0)) in
  let st = make_stream ~rng:(rng ~seed "stream") g0 ~batch ~pool_batches:4 in
  let path = Filename.concat args.work (wl.name ^ ".graph") in
  Core.Io.save path g0;
  Printf.printf "workload %s seed %d backend %s trace %d\n" wl.name seed
    (D.backend_name (D.backend g0))
    (if args.trace then 1 else 0);
  Printf.printf "graph %d nodes %d edges, batch %d updates, queries %s\n%!"
    (D.n_nodes g0) (D.n_edges g0) batch (String.concat " " wl.queries);
  let base_digest = J.Log.graph_digest g0 in
  let store_dir = Filename.concat args.work "store" in
  let header =
    {
      J.Record.version = J.Record.format_version;
      cls = String.concat "+" wl.queries;
      bound = 0;
      qargs = [];
      base_digest;
    }
  in
  tracing := args.trace;
  let obs_for () = if args.trace then Obs.create () else Obs.noop in
  (* Samples. *)
  let round = series () in
  (* Per-class update times: untraced sessions (or twins) and traced ones. *)
  let per_cls = Hashtbl.create 8 and traced_cls = Hashtbl.create 8 in
  let cls_series = series_in per_cls and traced_series = series_in traced_cls in
  (* The session update inside the store's last client.apply. *)
  let last_update = ref 0.0 in
  let on_apply du = last_update := du in
  let undos = series () in
  let mutate = series () in
  let eff_ops = series () in
  (* Set-up, repeated: load, copies, inits, store init. *)
  let load_t = series () and setup_t = series () in
  let init_t = Hashtbl.create 8 in
  (* per class *)
  (* The store's registry: the session's in a traced run, and in an
     untraced one a registry of its own, so that its fsync clock can be
     read while the sessions stay on Obs.noop. Its probes cost a few µs
     against a commit of tens of ms. *)
  let store_obs = ref Obs.noop in
  let fsync_s () =
    match Obs.histogram !store_obs Obs.K.wal_fsync_latency with
    | Some h -> H.sum h
    | None -> 0.0
  in
  let setup_once ~dir =
    rm_rf dir;
    probe ();
    let svc, dt =
      timed "setup" (fun () ->
          let g, dl = timed "io.load" (fun () -> Core.Io.load path) in
          push load_t dl;
          let n = List.length queries in
          let sessions =
            List.mapi
              (fun i q ->
                let g =
                  if i = n - 1 then g else fst (timed "graph.copy" (fun () -> D.copy g))
                in
                let s, di =
                  timed (cls q ^ ".init") (fun () -> start ~obs:(obs_for ()) q g)
                in
                push (series_in init_t (cls q)) di;
                s)
              queries
          in
          let store =
            if wl.durable then
              let s = List.hd sessions in
              store_obs := if args.trace then s.obs else Obs.create ();
              Some
                (fst
                   (timed "store.init" (fun () ->
                        J.Store.init ~obs:!store_obs ~dir ~header
                          ~client:(client_of s ~on_apply)
                          ())))
            else None
          in
          { sessions; store })
    in
    push setup_t dt;
    probe ();
    svc
  in
  (* Half the set-ups run before the stream and the rest after it, so that
     their median spans the whole run rather than one moment of the
     host's speed. The last one before the stream is the service. *)
  let svc = ref (setup_once ~dir:store_dir) in
  for _ = 2 to (wl.setups + 1) / 2 do
    Option.iter J.Store.close !svc.store;
    (* Drop the previous service first, so two never share the heap. *)
    svc := { sessions = []; store = None };
    svc := setup_once ~dir:store_dir
  done;
  let svc = !svc in
  (* A traced run also keeps untraced twins of every session (the plain
     cost: per-class latency, exact allocation, probe overhead) and a bare
     graph replica (the graph-mutation floor). *)
  let twins, replica =
    if args.trace then begin
      tracing := false;
      let g = Core.Io.load path in
      let twins = List.map (fun q -> start ~obs:Obs.noop q (D.copy g)) queries in
      tracing := true;
      (twins, Some g)
    end
    else ([], None)
  in
  (* The plain twins' exact allocation and GC collections over the window,
     counted around their update calls only. *)
  let words = Hashtbl.create 8 and units = ref 0 in
  let minor_gcs = ref 0 and major_gcs = ref 0 in
  let count_gcs f =
    if !batch_id > wl.window then f ()
    else begin
      let g0 = Gc.quick_stat () in
      let r = f () in
      let g1 = Gc.quick_stat () in
      minor_gcs := !minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs := !major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
      r
    end
  in
  let feed_twins b =
    List.iter
      (fun s ->
        let (n, w), dt =
          count_gcs (fun () ->
              let t0 = now () in
              let r = count_words (fun () -> s.update b) in
              (r, now () -. t0))
        in
        ignore (Sys.opaque_identity n);
        if !batch_id <= wl.window then
          Hashtbl.replace words (cls s.q)
            (w +. Option.value ~default:0.0 (Hashtbl.find_opt words (cls s.q)));
        push (cls_series (cls s.q)) dt)
      twins
  in
  let follow_twins ops =
    let ups = J.Log.updates_of_ops ops in
    List.iter (fun s -> ignore (count_gcs (fun () -> s.update ups))) twins;
    Option.iter (fun g -> D.apply_batch g ups) replica
  in
  let effective = ref 0 in
  (* Engine counters over the window, less what undos added: the
     per-batch figures are per committed batch. *)
  let counters_at_window = Hashtbl.create 8 in
  let undo_counters = ref [] in
  let less_undos l =
    List.map
      (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k !undo_counters)))
      l
  in
  let snapshot_bytes = ref 0 and journal_ops = ref 0 in
  let journal_bytes_per_op = ref 0.0 in
  let rec_total = series () and rec_plan = series () and rec_parse = series () in
  let rec_rebuild = series () and rec_replay = series () in
  let replayed_ops = ref 0 in
  (* Recovery: plan, parse the snapshot's graph, rebuild the session, and
     replay the journal tail through the store; the result must match the
     live store's graph and answer digests. *)
  let recover live_store live_session =
    incr attempted;
    let res, total =
      timed "recover" (fun () ->
          let plan, dp = timed "store.plan" (fun () -> J.Store.plan ~dir:store_dir ()) in
          push rec_plan dp;
          match plan with
          | Error e -> Error e
          | Ok plan -> (
              let g, dp = timed "snapshot.graph" (fun () -> J.Snapshot.graph plan.J.Store.snapshot) in
              push rec_parse dp;
              let s, db =
                timed (cls live_session.q ^ ".init") (fun () ->
                    start ~obs:Obs.noop live_session.q g)
              in
              push rec_rebuild db;
              let r, da =
                timed "store.attach" (fun () ->
                    J.Store.attach ~dir:store_dir ~plan
                      ~client:(client_of s ~on_apply:ignore)
                      ())
              in
              push rec_replay da;
              replayed_ops :=
                List.fold_left
                  (fun a b -> a + List.length b.J.Record.ops)
                  0 plan.J.Store.replay;
              match r with
              | Error e -> Error e
              | Ok r ->
                  let same_graph = J.Store.digest r = J.Store.digest live_store in
                  let same_answer = s.answer () = live_session.answer () in
                  J.Store.close r;
                  if same_graph && same_answer then Ok ()
                  else Error "recovered digests differ from the live store"))
    in
    (match res with Ok () -> push rec_total total | Error e -> fail_op "recovery" e);
    ()
  in
  (* The stream. *)
  Gc.full_major ();
  let start_t = Obs.now_s () in
  let deadline = ref (start_t +. args.seconds) in
  let live_words = ref 0 in
  let commits = ref 0 in
  let first_snapshot = ref true in
  let window_done () =
    List.iter
      (fun s ->
        Hashtbl.replace counters_at_window (cls s.q) (less_undos (Obs.counters s.obs)))
      svc.sessions
  in
  (* The commits timed on an outer clock, read outside the span machinery:
     the commit spans must account for this time. *)
  let commit_outer = ref 0.0 in
  periodic_probes := not args.trace;
  probe ();
  while !batch_id < max wl.window min_rounds || Obs.now_s () < !deadline do
    probe_if_due ();
    incr batch_id;
    let b = next_batch st in
    let nb = List.length b in
    (match svc.store with
    | None ->
        let (), dt =
          timed "round" (fun () ->
              List.iter
                (fun s ->
                  incr attempted;
                  match timed (cls s.q ^ ".update") (fun () -> s.update b) with
                  | n, dt ->
                      ignore (Sys.opaque_identity n);
                      if args.trace then push (traced_series (cls s.q)) dt
                      else push (cls_series (cls s.q)) dt
                  | exception e -> fail_op (cls s.q ^ ".update") (Printexc.to_string e))
                svc.sessions)
        in
        push round dt;
        effective := !effective + nb;
        feed_twins b;
        Option.iter
          (fun g -> push mutate (snd (timed "graph.mutate" (fun () -> D.apply_batch g b))))
          replica
    | Some store ->
        let s = List.hd svc.sessions in
        incr commits;
        incr attempted;
        if args.trace then
          push eff_ops
            (snd (timed "journal.effective_ops" (fun () ->
                      J.Log.effective_ops s.graph b)));
        let c0 = now () and f0 = fsync_s () in
        (match timed "store.do_batch" (fun () -> J.Store.do_batch store b) with
        | Some bt, _ ->
            let c1 = now () in
            push round (c1 -. c0 +. fsync_s () -. f0);
            commit_outer := !commit_outer +. (c1 -. c0);
            effective := !effective + List.length bt.J.Record.ops;
            journal_ops := !journal_ops + List.length bt.J.Record.ops;
            push
              (if args.trace then traced_series (cls s.q) else cls_series (cls s.q))
              !last_update;
            feed_twins b;
            Option.iter
              (fun g ->
                push mutate (snd (timed "graph.mutate" (fun () -> D.apply_batch g b))))
              replica
        | None, _ -> fail_op "commit" "batch had no effective update"
        | exception e -> fail_op "commit" (Printexc.to_string e));
        if !commits mod undo_every = 0 then begin
          incr attempted;
          let k = 1 + (!commits / undo_every mod 3) in
          let before = Obs.counters s.obs and c0 = now () and f0 = fsync_s () in
          match timed "store.undo" (fun () -> J.Store.undo store ~k) with
          | Ok ub, _ ->
              push undos (now () -. c0 +. fsync_s () -. f0);
              if !batch_id <= wl.window then
                undo_counters :=
                  List.map
                    (fun (k, d) ->
                      (k, d + Option.value ~default:0 (List.assoc_opt k !undo_counters)))
                    (Obs.diff_counters ~prev:before ~cur:(Obs.counters s.obs));
              journal_ops := !journal_ops + List.length ub.J.Record.ops;
              List.iter (follow st) ub.J.Record.ops;
              follow_twins ub.J.Record.ops
          | Error e, _ -> fail_op "undo" e
          | exception e -> fail_op "undo" (Printexc.to_string e)
        end;
        if !commits mod snapshot_every = 0 then begin
          let p, _ = timed "store.snapshot" (fun () -> J.Store.snapshot store) in
          if !first_snapshot then begin
            snapshot_bytes := file_size p;
            first_snapshot := false
          end
        end);
    if !batch_id = wl.window then begin
      window_done ();
      match svc.store with
      | Some store ->
          journal_bytes_per_op :=
            float_of_int (file_size (J.Store.journal_path ~dir:store_dir))
            /. float_of_int (max 1 !journal_ops);
          (* Recoveries sit outside the measured stream time. *)
          let t0 = Obs.now_s () in
          for _ = 1 to recoveries do
            recover store (List.hd svc.sessions)
          done;
          deadline := !deadline +. (Obs.now_s () -. t0)
      | None -> ()
    end;
    units := !units + (if !batch_id <= wl.window then nb else 0);
    (* The live heap is taken at a fixed round, so that it does not depend
       on how many rounds the run's time allowed (the store keeps every
       committed batch in memory). *)
    if !batch_id = min_rounds then begin
      Gc.full_major ();
      live_words := (Gc.stat ()).Gc.live_words
    end
  done;
  probe ();
  let stream_s = Obs.now_s () -. start_t in
  let setup_dir = Filename.concat args.work "store-setup" in
  for _ = ((wl.setups + 1) / 2) + 1 to wl.setups do
    Option.iter J.Store.close (setup_once ~dir:setup_dir).store
  done;
  rm_rf setup_dir;
  let batches = !batch_id in
  tracing := false;
  (* Correctness: every session against its batch algorithm on the final
     graph (outside the timed sections); the stream's own edge count must
     match every graph. *)
  let rerun_ms = Hashtbl.create 8 in
  List.iter
    (fun s ->
      incr attempted;
      let reps = if args.trace then 3 else 1 in
      let dts = ref [] and ok = ref true in
      tracing := args.trace;
      for _ = 1 to reps do
        let dt, want = rerun s.q s.graph in
        dts := dt :: !dts;
        if want <> s.answer () then ok := false
      done;
      tracing := false;
      Hashtbl.replace rerun_ms (cls s.q) (ms (median !dts));
      if D.n_edges s.graph <> st.live.Eset.n then ok := false;
      if not !ok then fail_op (cls s.q ^ ".answer") "differs from the batch algorithm")
    svc.sessions;
  List.iter
    (fun s ->
      incr attempted;
      let want = (List.find (fun p -> cls p.q = cls s.q) svc.sessions).answer () in
      if s.answer () <> want then fail_op (cls s.q ^ ".twin") "twin answer differs")
    twins;
  (match svc.store with
  | Some store ->
      incr attempted;
      if J.Store.digest store <> J.Log.graph_digest (List.hd svc.sessions).graph
      then fail_op "store" "store digest differs from the session graph";
      J.Store.close store
  | None -> ());
  Printf.printf "stream %.2f s, %d batches, %d effective updates\n" stream_s
    batches !effective;
  if args.trace then
    Printf.printf "final graph digest %s\n"
      (J.Log.graph_digest (List.hd svc.sessions).graph);
  (* ---- metrics ---- *)
  let metrics = ref [] in
  let metric name unit ?n v =
    metrics := (name, unit, v) :: !metrics;
    match n with
    | Some n -> Printf.printf "  %-30s %14.6f %-6s (n=%d)\n" name v unit n
    | None -> Printf.printf "  %-30s %14.6f %s\n" name v unit
  in
  let probe_ms = probe_ms () in
  if not args.trace then begin
    let rounds = scaled round in
    print_endline "end-to-end (reference ms, see README.md):";
    metric "update_p50_ms" "ms" ~n:round.n (ms (median rounds));
    metric "update_p90_ms" "ms" ~n:round.n (ms (p90 rounds));
    metric "edge_updates_per_s" "1/s" ~n:round.n
      (float_of_int !effective /. sum rounds);
    metric "setup_s" "s" ~n:setup_t.n (median (scaled setup_t));
    metric "live_heap_mb" "MB"
      (float_of_int (!live_words * (Sys.word_size / 8)) /. 1048576.0);
    print_endline "as measured, before scaling (informational):";
    Printf.printf "  host probe p50 %.4f ms (n=%d)\n" probe_ms !n_probes;
    Printf.printf "  update p50 %.4f ms, p90 %.4f ms (n=%d)\n"
      (ms (median round.xs)) (ms (p90 round.xs)) round.n;
    Printf.printf "  setup p50 %.4f s (n=%d)\n" (median setup_t.xs) setup_t.n;
    List.iter
      (fun c ->
        match Hashtbl.find_opt per_cls c with
        | Some s ->
            Printf.printf "  %s.update p50 %.4f ms, p90 %.4f ms (n=%d)\n" c
              (ms (median s.xs)) (ms (p90 s.xs)) s.n
        | None -> ())
      classes;
    let series = ("update", round) :: List.filter_map
        (fun c -> Option.map (fun s -> (c ^ ".update", s)) (Hashtbl.find_opt per_cls c))
        classes
    in
    List.iter
      (fun (name, s) ->
        incr attempted;
        if not (steady name s) then fail_op "steady" (name ^ " drifted"))
      series
  end
  else begin
    let all = List.rev !spans in
    let self_of, kids = self_times all in
    let self name = Option.value ~default:[] (Hashtbl.find_opt self_of name) in
    let named n = List.filter (fun (s : span) -> s.name = n) all in
    let dur s = s.t1 -. s.t0 in
    (* Layer splits. A round is its sessions' updates, one each, and
       nothing else: its unattributed self time must stay under 5% of the
       rounds' total. A commit is the client's apply, exactly once, plus
       the journal's own work, and the commit spans must account for the
       same calls timed on an outer clock to within 1%. *)
    let rounds = named "round" and commits = named "store.do_batch" in
    let updates = List.sort compare (List.map (fun q -> cls q ^ ".update") queries) in
    let round_total = sum (List.map dur rounds) and round_self = sum (self "round") in
    let commit_total = sum (List.map dur commits) in
    let misshapen =
      List.length (List.filter (fun s -> kids s.id <> updates) rounds)
      + List.length (List.filter (fun s -> kids s.id <> [ "client.apply" ]) commits)
    in
    Printf.printf
      "spans %d; rounds %d, unattributed %.4f of %.4f s; commits %d, %.4f s \
       against %.4f s outer; misshapen %d\n"
      (List.length all) (List.length rounds) round_self round_total
      (List.length commits) commit_total !commit_outer misshapen;
    incr attempted;
    if misshapen > 0
       || round_self > 0.05 *. round_total
       || commit_total > !commit_outer +. 1e-6
       || commit_total < 0.99 *. !commit_outer
    then fail_op "trace" "layer split does not add up";
    print_endline "per-layer:";
    let window = float_of_int (min wl.window batches) in
    let sum_traced = ref 0.0 and sum_plain = ref 0.0 in
    List.iter
      (fun c ->
        let hosted = List.exists (fun q -> cls q = c) queries in
        let plain = cls_series c in
        let p50 = if hosted then ms (median plain.xs) else 0.0 in
        let ctr k =
          match Hashtbl.find_opt counters_at_window c with
          | Some l -> float_of_int (Option.value ~default:0 (List.assoc_opt k l))
          | None -> 0.0
        in
        let rerun = Option.value ~default:0.0 (Hashtbl.find_opt rerun_ms c) in
        metric (c ^ ".update_p50_ms") "ms" ~n:plain.n p50;
        metric (c ^ ".update_p90_ms") "ms" ~n:plain.n (ms (p90 plain.xs));
        metric (c ^ ".aff_per_batch") "count" (ctr Obs.K.aff /. window);
        metric (c ^ ".edges_relaxed_per_batch") "count"
          (ctr Obs.K.edges_relaxed /. window);
        metric (c ^ ".minor_words_per_update") "words"
          (Option.value ~default:0.0 (Hashtbl.find_opt words c)
          /. float_of_int (max 1 !units));
        metric (c ^ ".batch_rerun_ms") "ms" rerun;
        metric (c ^ ".speedup_vs_batch") "x" (if p50 > 0.0 then rerun /. p50 else 0.0);
        metric (c ^ ".init_s") "s" (median (series_in init_t c).xs);
        match Hashtbl.find_opt traced_cls c with
        | Some t when hosted ->
            sum_traced := !sum_traced +. median t.xs;
            sum_plain := !sum_plain +. median plain.xs
        | _ -> ())
      classes;
    metric "graph.mutate_ms" "ms" ~n:mutate.n (ms (median mutate.xs));
    metric "graph.load_s" "s" ~n:load_t.n (median load_t.xs);
    let live_graph = (List.hd svc.sessions).graph in
    let standalone name f = ms (median (List.init 5 (fun _ -> snd (timed name f)))) in
    metric "graph.copy_ms" "ms" (standalone "graph.copy" (fun () -> D.copy live_graph));
    metric "gc.minor_collections" "count" (float_of_int !minor_gcs);
    metric "gc.major_collections" "count" (float_of_int !major_gcs);
    (* Journal layer: zero on the workloads that never call lib/journal. *)
    let store_obs = if wl.durable then (List.hd svc.sessions).obs else Obs.noop in
    let hist_p50 k =
      match Obs.histogram store_obs k with Some h -> ms (H.p50 h) | None -> 0.0
    in
    let digest_ms =
      if wl.durable then
        standalone "journal.digest" (fun () -> J.Log.graph_digest live_graph)
      else 0.0
    in
    let overhead = self "store.do_batch" and undo_over = self "store.undo" in
    metric "journal.overhead_ms" "ms" ~n:(List.length overhead) (ms (median overhead));
    metric "journal.digest_ms" "ms" digest_ms;
    metric "journal.effective_ops_ms" "ms" ~n:eff_ops.n (ms (median eff_ops.xs));
    metric "journal.append_ms" "ms" (hist_p50 Obs.K.wal_append_latency);
    metric "journal.fsync_ms" "ms" (hist_p50 Obs.K.wal_fsync_latency);
    metric "journal.bytes_per_op" "B" !journal_bytes_per_op;
    metric "undo_p50_ms" "ms" ~n:undos.n (ms (median undos.xs));
    metric "journal.undo_overhead_ms" "ms" ~n:(List.length undo_over)
      (ms (median undo_over));
    metric "snapshot.bytes" "B" (float_of_int !snapshot_bytes);
    metric "recover_s" "s" ~n:rec_total.n (median rec_total.xs);
    metric "recover.plan_ms" "ms" (ms (median rec_plan.xs));
    metric "recover.parse_ms" "ms" (ms (median rec_parse.xs));
    metric "recover.rebuild_ms" "ms" (ms (median rec_rebuild.xs));
    metric "recover.replay_ms" "ms" (ms (median rec_replay.xs));
    metric "recover.replayed_ops" "count" (float_of_int !replayed_ops);
    metric "host.probe_ms" "ms" ~n:!n_probes probe_ms;
    metric "obs.overhead_pct" "%"
      (if !sum_plain > 0.0 then 100.0 *. ((!sum_traced /. !sum_plain) -. 1.0)
       else 0.0);
    let trace_path =
      Filename.concat args.work (Printf.sprintf "trace-%s-%d.json" wl.name seed)
    in
    write_spans trace_path all;
    Printf.printf "spans written to %s\n" trace_path
  end;
  Printf.printf "ops attempted %d, failed %d\n" !attempted !failed;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       (!failed = 0) !attempted !failed);
  List.iteri
    (fun i (name, unit, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
           (if i = 0 then "" else ", ")
           name v unit))
    (List.rev !metrics);
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

let () =
  match parse_args () with
  | args -> main args
  | exception Arg.Bad msg ->
      prerr_endline msg;
      exit 2
