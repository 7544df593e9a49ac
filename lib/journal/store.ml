module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs

type client = {
  apply : Record.op list -> unit;
  graph : unit -> Digraph.t;
  answer_digest : unit -> string;
  certs : unit -> (string * string) list;
}

let graph_client g =
  {
    apply = List.iter (Journal.apply_op g);
    graph = (fun () -> g);
    answer_digest = (fun () -> "");
    certs = (fun () -> []);
  }

type t = {
  dir : string;
  journal : Journal.t;
  client : client;
  obs : Obs.t;
  writable : bool;
}

type plan = {
  header : Record.header;
  snapshot : Snapshot.t;
  replay : Record.batch list;
  dropped : int;
  tip : int;
  cut : int;
}

let journal_path ~dir = Filename.concat dir "journal.igj"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (try Sys.mkdir dir 0o755
     with Sys_error _ when Sys.file_exists dir -> ())
  end

let init ?(obs = Obs.noop) ~dir ~header ~client () =
  mkdir_p dir;
  Obs.with_span obs "snapshot_write" (fun () ->
      Obs.observe_time obs Obs.K.snapshot_write_latency (fun () ->
          let snap =
            Snapshot.of_state ~seq:0 ~graph:(client.graph ())
              ~answer_digest:(client.answer_digest ())
              ~certs:(client.certs ())
          in
          ignore (Snapshot.save ~dir snap)));
  Obs.incr obs Obs.K.snapshots;
  let journal = Journal.create ~path:(journal_path ~dir) header in
  Journal.instrument journal obs;
  { dir; journal; client; obs; writable = true }

let plan ?as_of ?(from_scratch = false) ~dir () =
  match Journal.scan ~path:(journal_path ~dir) with
  | Error e -> Error e
  | Ok scanned ->
      let tip =
        match List.rev scanned.Journal.batches with
        | b :: _ -> b.Record.seq
        | [] -> 0
      in
      let cut = match as_of with None -> tip | Some n -> min n tip in
      if cut < 0 then Error "as-of: sequence must be >= 0"
      else
        (* Newest intact snapshot at or below the cut; corrupt ones are
           skipped, snapshot-0 (written at init) is the floor. *)
        let candidates =
          if from_scratch then [ 0 ]
          else
            List.rev
              (List.filter (fun s -> s <= cut) (Snapshot.list_seqs ~dir))
        in
        let rec pick = function
          | [] -> Error (Printf.sprintf "%s: no usable snapshot" dir)
          | seq :: rest -> (
              match Snapshot.load ~path:(Snapshot.path ~dir ~seq) with
              | Ok s -> Ok s
              | Error _ -> pick rest)
        in
        (match pick candidates with
        | Error e -> Error e
        | Ok snapshot ->
            let replay =
              List.filter
                (fun b ->
                  b.Record.seq > Snapshot.seq snapshot && b.Record.seq <= cut)
                scanned.Journal.batches
            in
            let dropped =
              match scanned.Journal.tail with
              | Journal.Clean -> 0
              | Journal.Torn { dropped; _ } -> dropped
            in
            Ok
              {
                header = scanned.Journal.header;
                snapshot;
                replay;
                dropped;
                tip;
                cut;
              })

let attach ?(obs = Obs.noop) ~dir ~plan ~client () =
  let mismatch ~ctx got expected =
    Error
      (Printf.sprintf "%s: graph digest %s, journal says %s" ctx got expected)
  in
  let check_digest ~ctx expected =
    let got = Journal.graph_digest (client.graph ()) in
    if String.equal got expected then Ok () else mismatch ~ctx got expected
  in
  let snapshot_digest = Snapshot.graph_digest plan.snapshot in
  match
    check_digest
      ~ctx:(Printf.sprintf "snapshot-%d" (Snapshot.seq plan.snapshot))
      snapshot_digest
  with
  | Error e -> Error e
  | Ok () -> (
      (* [current] is the digest the graph was last checked to have, so a
         batch's [pre] is checked against it by string equality; only the
         post-apply check digests the graph. *)
      let replay_one current b =
        let ctx what = Printf.sprintf "batch %d %s" b.Record.seq what in
        if not (String.equal current b.Record.pre) then
          mismatch ~ctx:(ctx "pre") current b.Record.pre
        else
          match client.apply b.Record.ops with
          | exception e ->
              Error
                (Printf.sprintf "batch %d: apply raised %s" b.Record.seq
                   (Printexc.to_string e))
          | () ->
              Obs.add obs Obs.K.journal_replayed (List.length b.Record.ops);
              check_digest ~ctx:(ctx "post") b.Record.post
      in
      let rec replay current = function
        | [] -> Ok ()
        | b :: rest -> (
            match replay_one current b with
            | Error e -> Error e
            | Ok () -> replay b.Record.post rest)
      in
      match
        Obs.with_span obs "journal_replay" (fun () ->
            Obs.observe_time obs Obs.K.journal_replay_latency (fun () ->
                replay snapshot_digest plan.replay))
      with
      | Error e -> Error e
      | Ok () -> (
          match Journal.open_append ~path:(journal_path ~dir) () with
          | Error e -> Error e
          | Ok (journal, _) ->
              Journal.instrument journal obs;
              let writable = plan.cut = plan.tip in
              Ok { dir; journal; client; obs; writable }))

let require_writable t op =
  if not t.writable then
    failwith
      (Printf.sprintf
         "Store.%s: store attached read-only (historical --as-of replay)" op)

let verify_post t ~seq post =
  let got = Journal.graph_digest (t.client.graph ()) in
  if not (String.equal got post) then
    failwith
      (Printf.sprintf
         "Store: engine diverged from journal at batch %d: digest %s, \
          journaled %s"
         seq got post)

(* The journaled post digest is computed ahead of the engine apply —
   write-ahead means the record must be durable (and complete) before the
   live state moves — from [pre]'s pass over the live graph and the terms
   of the edges the ops change; [verify_post] re-digests after the apply. *)
let journal_batch t ~kind ops =
  let pre, post = Journal.graph_digests (t.client.graph ()) ops in
  let b = Journal.append t.journal ~kind ~ops ~pre ~post in
  Obs.add t.obs Obs.K.journal_ops (List.length ops);
  b

let do_batch t updates =
  require_writable t "do_batch";
  Obs.with_span t.obs "journal_append" (fun () ->
      match Journal.effective_ops (t.client.graph ()) updates with
      | [] -> None
      | ops ->
          let b = journal_batch t ~kind:Record.Do ops in
          t.client.apply ops;
          verify_post t ~seq:b.Record.seq b.Record.post;
          Some b)

let undo t ~k =
  require_writable t "undo";
  Obs.with_span t.obs "journal_undo" @@ fun () ->
  Obs.observe_time t.obs Obs.K.journal_undo_latency (fun () ->
      match Journal.plan_undo (Journal.batches t.journal) ~k with
      | Error e -> Error e
      | Ok (ops, expected) ->
          let pre = Journal.graph_digest (t.client.graph ()) in
          let b =
            Journal.append t.journal ~kind:(Record.Undo k) ~ops ~pre
              ~post:expected
          in
          Obs.add t.obs Obs.K.journal_ops (List.length ops);
          Obs.incr t.obs Obs.K.journal_undone;
          t.client.apply ops;
          let got = Journal.graph_digest (t.client.graph ()) in
          if not (String.equal got expected) then
            Error
              (Printf.sprintf
                 "undo %d: rolled-back digest %s, journaled pre-state %s" k got
                 expected)
          else Ok b)

let snapshot t =
  require_writable t "snapshot";
  Obs.with_span t.obs "snapshot_write" @@ fun () ->
  Obs.observe_time t.obs Obs.K.snapshot_write_latency (fun () ->
      let snap =
        Snapshot.of_state ~seq:(Journal.tip t.journal)
          ~graph:(t.client.graph ())
          ~answer_digest:(t.client.answer_digest ())
          ~certs:(t.client.certs ())
      in
      Obs.incr t.obs Obs.K.snapshots;
      Snapshot.save ~dir:t.dir snap)

let append_unapplied_for_crash_testing t updates =
  require_writable t "append_unapplied_for_crash_testing";
  match Journal.effective_ops (t.client.graph ()) updates with
  | [] -> ()
  | ops -> ignore (journal_batch t ~kind:Record.Do ops)

let tip t = Journal.tip t.journal
let dir t = t.dir
let header t = Journal.header t.journal
let batches t = Journal.batches t.journal
let digest t = Journal.graph_digest (t.client.graph ())
let writable t = t.writable
let close t = Journal.close t.journal
