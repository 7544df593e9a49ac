module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer

type failure = {
  algo : string;
  seed : int;
  step : int;
  reason : string;
  stream : Digraph.update list;
  shrunk : Digraph.update list;
  trace : Tracer.snapshot option;
}

(* A unit step is a singleton batch. *)
let apply1 inst u = ignore (inst.Oracle.apply_batch [ u ])

let replay_fails ~make stream =
  match
    let inst = make () in
    Oracle.check inst;
    let prev = ref (Obs.counters inst.Oracle.obs) in
    List.iter
      (fun u ->
        apply1 inst u;
        Oracle.check inst;
        prev := Oracle.check_metrics ~prev:!prev inst)
      stream
  with
  | () -> false
  | exception _ -> true

let split_last us =
  match List.rev us with
  | [] -> None
  | last :: rev_init -> Some (List.rev rev_init, last)

(* Replay [stream] on a fresh oracle and return the event log of its last
   update — the failing step of a (shrunk) reproducer. The events are
   cleared right before that update so the snapshot explains exactly the
   step where the violation surfaced. [None] when the stream is empty or
   the oracle's sink records no events. *)
let capture_trace ~make stream =
  match split_last stream with
  | None -> None
  | Some (init, last) ->
      let inst = make () in
      let o = inst.Oracle.obs in
      if not (Obs.tracing o) then None
      else begin
        (* The replay is expected to blow up — that is what it reproduces. *)
        (try List.iter (apply1 inst) init with _ -> ());
        Obs.clear_events o;
        (try
           apply1 inst last;
           Oracle.check inst
         with _ -> ());
        Some (Obs.events o)
      end

let run ~make ?(focus = []) ~steps ~seed () =
  let inst = make () in
  let algo = inst.Oracle.name in
  let fail step reason stream =
    (* The recorded prefix must fail on a fresh replay before ddmin can
       trust its verdicts; a non-reproducible failure (which a deterministic
       [make] should never produce) is reported unshrunk. *)
    let fails = replay_fails ~make in
    let shrunk = if fails stream then Shrink.ddmin ~fails stream else stream in
    let trace = capture_trace ~make shrunk in
    Error { algo; seed; step; reason; stream; shrunk; trace }
  in
  match Oracle.check inst with
  | exception Oracle.Check_failed msg -> fail 0 msg []
  | () ->
      let rng = Random.State.make [| seed; 0xfa11 |] in
      let stream = Stream.create ~rng ~focus inst.Oracle.graph in
      let applied = ref [] in
      let prev = ref (Obs.counters inst.Oracle.obs) in
      let rec go i =
        if i > steps then Ok steps
        else begin
          let u = Stream.next stream in
          applied := u :: !applied;
          match
            apply1 inst u;
            Oracle.check inst;
            prev := Oracle.check_metrics ~prev:!prev inst
          with
          | () -> go (i + 1)
          | exception Oracle.Check_failed msg ->
              fail i msg (List.rev !applied)
          | exception e ->
              fail i ("engine raised: " ^ Printexc.to_string e)
                (List.rev !applied)
        end
      in
      go 1

let pp_update ppf = function
  | Digraph.Insert (u, v) -> Format.fprintf ppf "Digraph.Insert (%d, %d)" u v
  | Digraph.Delete (u, v) -> Format.fprintf ppf "Digraph.Delete (%d, %d)" u v

let pp_stream ppf us =
  Format.fprintf ppf "@[<hov 2>[ %a ]@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_update)
    us

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>%s fuzz failure (seed %d) at step %d: %s@,\
     failing stream: %d updates, shrunk to %d@,\
     minimal reproducer:@,  %a@]"
    f.algo f.seed f.step f.reason (List.length f.stream)
    (List.length f.shrunk) pp_stream f.shrunk;
  match f.trace with
  | None -> ()
  | Some snap ->
      Format.fprintf ppf "@,failing step: %d event(s)%s"
        (List.length snap.Tracer.entries)
        (if snap.Tracer.drops > 0 then
           Printf.sprintf " (+%d dropped)" snap.Tracer.drops
         else "");
      (match Ig_obs.Trace_export.rule_histogram snap with
      | [] -> ()
      | hist ->
          Format.fprintf ppf "@,AFF provenance:";
          List.iter
            (fun (r, c) -> Format.fprintf ppf "@,  %-22s %6d" r c)
            hist)

(* The shrunk reproducer as a journaled session directory: snapshot-0 of
   the base graph plus one Do batch per update, so the failure replays
   through `incgraph replay` with the same torn-tail/digest checking as
   any production journal. *)
let save_journal ~dir ~stem ~base ~spec f =
  let jdir = Filename.concat dir (stem ^ ".journal") in
  let header = Spec.header (Spec.to_args spec) base in
  let client = Ig_journal.Store.graph_client (Digraph.copy base) in
  let store = Ig_journal.Store.init ~dir:jdir ~header ~client () in
  List.iter (fun u -> ignore (Ig_journal.Store.do_batch store [ u ])) f.shrunk;
  Ig_journal.Store.close store;
  jdir

let save_failure ~dir ~base ?spec f =
  let stem = Printf.sprintf "fuzz-%s-seed%d" f.algo f.seed in
  let gpath = Filename.concat dir (stem ^ ".graph") in
  let upath = Filename.concat dir (stem ^ ".updates") in
  Ig_graph.Io.save gpath base;
  let oc = (open_out [@lint.allow "D3"]) upath in
  let line = function
    | Digraph.Insert (u, v) -> Printf.fprintf oc "+ %d %d\n" u v
    | Digraph.Delete (u, v) -> Printf.fprintf oc "- %d %d\n" u v
  in
  Printf.fprintf oc "# %s: %s\n# replay against %s\n" f.algo f.reason gpath;
  List.iter line f.shrunk;
  Printf.fprintf oc "# full failing stream (%d updates):\n"
    (List.length f.stream);
  List.iter
    (function
      | Digraph.Insert (u, v) -> Printf.fprintf oc "# + %d %d\n" u v
      | Digraph.Delete (u, v) -> Printf.fprintf oc "# - %d %d\n" u v)
    f.stream;
  close_out oc;
  let epath =
    match f.trace with
    | None -> None
    | Some snap ->
        let p = Filename.concat dir (stem ^ ".explain") in
        let oc = (open_out [@lint.allow "D3"]) p in
        output_string oc (Ig_obs.Trace_export.explain_to_string ~limit:(-1) snap);
        output_char oc '\n';
        close_out oc;
        Some p
  in
  let jpath =
    Option.map (fun spec -> save_journal ~dir ~stem ~base ~spec f) spec
  in
  (gpath, upath, epath, jpath)
