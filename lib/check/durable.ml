module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Record = Ig_journal.Record
module Journal = Ig_journal.Journal
module Store = Ig_journal.Store

let digest_hex = Journal.digest_hex

(* Wrap an oracle as a store client: a journaled batch's effective ops
   re-enter the engine as one batch, so the journal sees exactly what the
   engine applied. *)
let client_of inst =
  {
    Store.apply =
      (fun ops ->
        ignore (inst.Oracle.apply_batch (Journal.updates_of_ops ops)));
    graph = (fun () -> inst.Oracle.graph);
    answer_digest = (fun () -> digest_hex (inst.Oracle.answer ()));
    certs = (fun () -> inst.Oracle.cert_snapshot ());
  }

let header_of (s : Scenarios.t) =
  Spec.header (Spec.to_args s.Scenarios.spec) s.Scenarios.base

(* Only the files the store itself writes; anything else in [dir] is the
   caller's business. *)
let clean_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f ->
        if
          String.equal f "journal.igj"
          || String.starts_with ~prefix:"snapshot-" f
        then Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
[@@lint.allow "D3"]

let trace_digest inst =
  let o = inst.Oracle.obs in
  if not (Obs.tracing o) then "-"
  else digest_hex (Ig_obs.Trace_export.explain_to_string (Obs.events o))

let clear_trace inst = Obs.clear_events inst.Oracle.obs

let update_str = function
  | Digraph.Insert (u, v) -> Printf.sprintf "+%d-%d" u v
  | Digraph.Delete (u, v) -> Printf.sprintf "-%d-%d" u v

let batch_str us = String.concat "," (List.map update_str us)

(* A do, and the do half of a do/undo pair, commits 1 to [max_batch]
   stream updates as one batch. *)
let max_batch = 4

exception Fuzz_failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fuzz_failed m)) fmt

let run ~scenario ~dir ~steps ~seed ?(emit = fun _ -> ()) () =
  let rng = Random.State.make [| seed; 0xd0ab1e |] in
  clean_dir dir;
  let inst = ref (scenario.Scenarios.make ()) in
  let store =
    ref (Store.init ~dir ~header:(header_of scenario) ~client:(client_of !inst) ())
  in
  let stream =
    ref
      (Stream.create ~rng ~focus:scenario.Scenarios.focus
         !inst.Oracle.graph)
  in
  let check ~step ~ctx =
    match Oracle.check !inst with
    | () -> ()
    | exception Oracle.Check_failed msg ->
        failf "step %d (%s): oracle disagreement: %s" step ctx msg
  in
  let state_str () =
    Printf.sprintf "tip=%d graph=%s answer=%s" (Store.tip !store)
      (Store.digest !store)
      (digest_hex (!inst.Oracle.answer ()))
  in
  (* Rebuild a fresh engine and replay the whole committed journal through
     it — the crash-recovery path — then carry on with the fresh engine
     and store. [vet] sees the plan before it is replayed. *)
  let reattach ?(vet = ignore) ~step ~ctx () =
    let fresh = scenario.Scenarios.make () in
    match Store.plan ~from_scratch:true ~dir () with
    | Error e -> failf "step %d (%s): recovery plan: %s" step ctx e
    | Ok plan -> (
        vet plan;
        match Store.attach ~dir ~plan ~client:(client_of fresh) () with
        | Error e -> failf "step %d (%s): recovery attach: %s" step ctx e
        | Ok st ->
            inst := fresh;
            store := st;
            stream :=
              Stream.create ~rng ~focus:scenario.Scenarios.focus
                fresh.Oracle.graph;
            plan)
  in
  let recover ~step ~ctx =
    Store.close !store;
    reattach ~step ~ctx ()
  in
  let draw_batch () =
    List.init (1 + Random.State.int rng max_batch) (fun _ ->
        Stream.next !stream)
  in
  let do_one ~step =
    let us = draw_batch () in
    clear_trace !inst;
    match Store.do_batch !store us with
    | None -> emit (Printf.sprintf "step %d do %s noop" step (batch_str us))
    | Some b ->
        check ~step ~ctx:"do";
        emit
          (Printf.sprintf "step %d do %s seq=%d %s trace=%s" step
             (batch_str us) b.Record.seq (state_str ()) (trace_digest !inst))
  in
  let do_undo_pair ~step =
    let pre_g = Store.digest !store in
    let pre_a = digest_hex (!inst.Oracle.answer ()) in
    let us = draw_batch () in
    clear_trace !inst;
    match Store.do_batch !store us with
    | None -> emit (Printf.sprintf "step %d pair %s noop" step (batch_str us))
    | Some _ -> (
        let do_trace = trace_digest !inst in
        clear_trace !inst;
        match Store.undo !store ~k:1 with
        | Error e -> failf "step %d (pair): undo: %s" step e
        | Ok _ ->
            let post_g = Store.digest !store in
            let post_a = digest_hex (!inst.Oracle.answer ()) in
            if not (String.equal pre_g post_g) then
              failf
                "step %d (pair): undo(do(G)) graph digest %s, pre-do was %s"
                step post_g pre_g;
            if not (String.equal pre_a post_a) then
              failf
                "step %d (pair): undo(do(G)) answer digest %s, pre-do was %s"
                step post_a pre_a;
            check ~step ~ctx:"pair";
            emit
              (Printf.sprintf
                 "step %d pair %s graph=%s answer=%s dotrace=%s undotrace=%s"
                 step (batch_str us) post_g post_a do_trace
                 (trace_digest !inst)))
  in
  let undo_k ~step =
    let tip = Store.tip !store in
    if tip = 0 then emit (Printf.sprintf "step %d undo skip (empty)" step)
    else begin
      let k = min tip (1 + Random.State.int rng 3) in
      clear_trace !inst;
      match Store.undo !store ~k with
      | Error e -> failf "step %d (undo %d): %s" step k e
      | Ok b ->
          check ~step ~ctx:"undo";
          emit
            (Printf.sprintf "step %d undo k=%d seq=%d %s trace=%s" step k
               b.Record.seq (state_str ()) (trace_digest !inst))
    end
  in
  let snapshot ~step =
    ignore (Store.snapshot !store);
    emit (Printf.sprintf "step %d snapshot seq=%d" step (Store.tip !store))
  in
  let recover_clean ~step =
    let plan = recover ~step ~ctx:"clean" in
    check ~step ~ctx:"clean recover";
    emit
      (Printf.sprintf "step %d recover clean replayed=%d %s" step
         (List.length plan.Store.replay)
         (state_str ()))
  in
  (* Journal a batch without applying it (crash between the write-ahead
     append and the engine apply), then truncate mid-record: recovery must
     drop the torn record as a unit and agree with the oracle. *)
  let recover_torn ~step =
    let before = Store.tip !store in
    let u = Stream.next !stream in
    Store.append_unapplied_for_crash_testing !store [ u ];
    if Store.tip !store = before then begin
      (* Ineffective update: nothing journaled, recover cleanly instead. *)
      let plan = recover ~step ~ctx:"torn(noop)" in
      check ~step ~ctx:"torn recover";
      emit
        (Printf.sprintf "step %d recover torn-noop replayed=%d %s" step
           (List.length plan.Store.replay)
           (state_str ()))
    end
    else begin
      Store.close !store;
      (* The framed record is >= 21 bytes, so chopping at most 8 tears
         exactly the unapplied tail record. *)
      (match
         Journal.chop ~path:(Store.journal_path ~dir)
           (1 + Random.State.int rng 8)
       with
      | Ok () -> ()
      | Error e -> failf "step %d (torn): %s" step e);
      let vet plan =
        if plan.Store.dropped = 0 then
          failf "step %d (torn): truncation not detected" step;
        if plan.Store.tip <> before then
          failf "step %d (torn): tip %d after tear, expected %d" step
            plan.Store.tip before
      in
      let plan = reattach ~vet ~step ~ctx:"torn" () in
      check ~step ~ctx:"torn recover";
      emit
        (Printf.sprintf "step %d recover torn dropped=%d replayed=%d %s" step
           plan.Store.dropped
           (List.length plan.Store.replay)
           (state_str ()))
    end
  in
  match
    emit
      (Printf.sprintf "init %s %s" scenario.Scenarios.name (state_str ()));
    check ~step:0 ~ctx:"init";
    for step = 1 to steps do
      let r = Random.State.float rng 1.0 in
      if r < 0.62 then do_one ~step
      else if r < 0.74 then do_undo_pair ~step
      else if r < 0.80 then undo_k ~step
      else if r < 0.86 then snapshot ~step
      else if r < 0.93 then recover_clean ~step
      else recover_torn ~step
    done;
    Store.close !store
  with
  | () -> Ok steps
  | exception Fuzz_failed msg -> Error msg
  | exception Oracle.Check_failed msg -> Error msg
  | exception Failure msg -> Error msg
