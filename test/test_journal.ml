(* The durability battery (lib/journal): qcheck round-trips of the framed
   record codec over arbitrary ops and labels (including the full
   256-byte corpus), crash injection truncating AND corrupting the
   journal at every byte boundary of the final record — recovery must
   either replay the full committed prefix or cleanly drop the torn tail,
   never raise, never apply half a batch — snapshot self-checksums, and
   store-level do/undo/recover round-trips verified by graph digests. *)

module D = Ig_graph.Digraph
module R = Ig_journal.Record
module J = Ig_journal.Journal
module Sn = Ig_journal.Snapshot
module St = Ig_journal.Store

let check = Alcotest.check

(* ---- fixtures ------------------------------------------------------------ *)

(* Fresh working directories under the test's cwd (the dune build dir). *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "tj_scratch_%d" !n in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

let mk_graph () =
  let g = D.create () in
  for _ = 0 to 5 do
    ignore (D.add_node g "x")
  done;
  List.iter
    (fun (u, v) -> ignore (D.add_edge g u v))
    [ (0, 1); (1, 2); (2, 0); (3, 4) ];
  g

let header_of g =
  {
    R.version = R.format_version;
    cls = "scc";
    bound = 0;
    qargs = [];
    base_digest = J.graph_digest g;
  }

let mk_store dir =
  let g = mk_graph () in
  (St.init ~dir ~header:(header_of g) ~client:(St.graph_client g) (), g)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- record codec: qcheck round-trips ------------------------------------ *)

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun u v -> R.Upsert_edge (u, v)) small_nat small_nat;
        map2 (fun u v -> R.Tombstone_edge (u, v)) small_nat small_nat;
        map2
          (fun id l -> R.Upsert_node (id, l))
          small_nat
          (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40));
        map (fun id -> R.Tombstone_node id) small_nat;
      ])

let hex_gen = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '0' ]) (return 32))

let batch_gen =
  QCheck.Gen.(
    map
      (fun ((seq, k), (ops, (pre, post))) ->
        let kind = match k with None -> R.Do | Some n -> R.Undo n in
        { R.seq; kind; ops; pre; post })
      (pair
         (pair small_nat (opt (int_range 1 9)))
         (pair (list_size (int_range 0 12) op_gen) (pair hex_gen hex_gen))))

let header_gen =
  QCheck.Gen.(
    map
      (fun ((cls, bound), (qargs, base_digest)) ->
        { R.version = R.format_version; cls; bound; qargs; base_digest })
      (pair
         (pair (string_size ~gen:printable (int_range 0 10)) small_nat)
         (pair
            (list_size (int_range 0 5)
               (string_size
                  ~gen:(map Char.chr (int_range 0 255))
                  (int_range 0 20)))
            hex_gen)))

let payload_gen =
  QCheck.Gen.(
    oneof
      [ map (fun h -> R.Header h) header_gen; map (fun b -> R.Batch b) batch_gen ])

let roundtrip p =
  let framed = R.frame (R.encode_payload p) in
  match R.read_record framed ~pos:0 with
  | Ok (p', pos) -> p' = p && pos = String.length framed
  | Error _ -> false

let qcheck_roundtrip =
  QCheck.Test.make ~name:"framed payload decodes to itself" ~count:500
    (QCheck.make payload_gen) roundtrip

(* A record whose label walks the whole byte alphabet (the all-256-bytes
   corpus): framing, checksumming and label escaping must all survive. *)
let test_all_bytes_label () =
  let label = String.init 256 Char.chr in
  let b =
    {
      R.seq = 1;
      kind = R.Do;
      ops = [ R.Upsert_node (7, label); R.Upsert_edge (0, 7) ];
      pre = String.make 32 'a';
      post = String.make 32 'b';
    }
  in
  check Alcotest.bool "256-byte label round-trips" true (roundtrip (R.Batch b))

let test_read_record_errors () =
  let framed = R.frame (R.encode_payload (R.Header (header_of (mk_graph ())))) in
  (* every strict prefix is Truncated or Corrupt, never an exception *)
  for len = 0 to String.length framed - 1 do
    match R.read_record (String.sub framed 0 len) ~pos:0 with
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" len
    | Error _ -> ()
  done;
  (* a flipped payload byte must trip the checksum *)
  let body = Bytes.of_string framed in
  Bytes.set body 6 (Char.chr (Char.code (Bytes.get body 6) lxor 0xff));
  match R.read_record (Bytes.to_string body) ~pos:0 with
  | Ok _ -> Alcotest.fail "corrupted record decoded"
  | Error (R.Corrupt _) | Error R.Truncated -> ()

(* ---- op semantics -------------------------------------------------------- *)

let test_effective_ops () =
  let g = mk_graph () in
  (* duplicate insert and absent delete are no-ops *)
  check Alcotest.int "duplicate insert drops" 0
    (List.length (J.effective_ops g [ D.Insert (0, 1) ]));
  check Alcotest.int "absent delete drops" 0
    (List.length (J.effective_ops g [ D.Delete (4, 5) ]));
  (* updates that cancel within the batch net to nothing *)
  check Alcotest.int "insert then delete of an absent edge" 0
    (List.length (J.effective_ops g [ D.Insert (4, 5); D.Delete (4, 5) ]));
  check Alcotest.int "delete then insert of a present edge" 0
    (List.length (J.effective_ops g [ D.Delete (0, 1); D.Insert (0, 1) ]));
  (* the net effect, deletions first *)
  check Alcotest.bool "deletions before insertions" true
    (J.effective_ops g [ D.Insert (4, 5); D.Delete (0, 1) ]
    = [ R.Tombstone_edge (0, 1); R.Upsert_edge (4, 5) ]);
  (match J.effective_ops g [ D.Delete (0, 99) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "update on an unknown node accepted");
  (* the graph itself is untouched by normalization *)
  check Alcotest.bool "graph unmodified" false (D.mem_edge g 4 5);
  check Alcotest.bool "graph unmodified" true (D.mem_edge g 0 1)

let test_client_apply_idempotent () =
  let g = mk_graph () in
  let apply = (St.graph_client g).St.apply in
  let d0 = J.graph_digest g in
  apply [ R.Upsert_edge (4, 5) ];
  let d1 = J.graph_digest g in
  apply [ R.Upsert_edge (4, 5) ];
  check Alcotest.string "second upsert is a no-op" d1 (J.graph_digest g);
  apply [ R.Tombstone_edge (4, 5) ];
  apply [ R.Tombstone_edge (4, 5) ];
  check Alcotest.string "tombstones idempotent too" d0 (J.graph_digest g)

let test_invert () =
  (match J.invert [ R.Upsert_edge (1, 2); R.Tombstone_edge (3, 4) ] with
  | Ok inv ->
      check Alcotest.bool "inverses in reverse order" true
        (inv = [ R.Upsert_edge (3, 4); R.Tombstone_edge (1, 2) ])
  | Error e -> Alcotest.fail e);
  match J.invert [ R.Upsert_node (9, "x") ] with
  | Ok _ -> Alcotest.fail "monotone node op inverted"
  | Error _ -> ()

(* ---- digests -------------------------------------------------------------- *)

(* A fixed 12-node graph: two-digit ids, a self-loop, a removed edge and
   a pending overlay. The MD5 of its canonical text was captured from the
   Format-based writer the buffered one replaced; the snapshot text bytes
   must never move. Its structural digest is pinned too, so a change to
   the hash (its constants, its element terms) cannot go unnoticed; the
   empty graph's lanes sum to zero. *)
let pinned_graph () =
  let g = D.create () in
  for i = 0 to 11 do
    ignore (D.add_node g (Printf.sprintf "l%d" (i mod 4)))
  done;
  List.iter
    (fun (u, v) -> ignore (D.add_edge g u v))
    [ (0, 1); (0, 11); (1, 1); (11, 0); (10, 2); (3, 10); (5, 7); (7, 5); (2, 0) ];
  ignore (D.remove_edge g 5 7);
  ignore (D.add_edge g 4 9);
  g

let test_pinned_digests () =
  let text_md5 g = J.digest_hex (Ig_graph.Io.to_string g) in
  check Alcotest.string "fixed graph text" "eaca3970bcfdabb75a4f75291ea78a56"
    (text_md5 (pinned_graph ()));
  check Alcotest.string "empty graph text" "d3e05c52530e5876bdf0e4000e8052e9"
    (text_md5 (D.create ()));
  check Alcotest.string "fixed graph digest" "1f8655c561b9ad3a763586f6efc4de59"
    (J.graph_digest (pinned_graph ()));
  check Alcotest.string "empty graph digest" "00000000000000000000000000000000"
    (J.graph_digest (D.create ()))

(* The digest separates every graph of a small universe: all 512 edge
   sets on three nodes labelled l0, l1, l0 digest apart. Swapping two
   nodes' labels, or adding an isolated node, moves the digest; interning
   the same names in another order does not. *)
let test_digest_separates () =
  let build ?(intern_first = []) labels edges =
    let g = D.create () in
    List.iter
      (fun l -> ignore (Ig_graph.Interner.intern (D.interner g) l))
      intern_first;
    List.iter (fun l -> ignore (D.add_node g l)) labels;
    List.iter (fun (u, v) -> ignore (D.add_edge g u v)) edges;
    g
  in
  let pairs = List.init 9 (fun i -> (i / 3, i mod 3)) in
  let edges_of mask = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) pairs in
  let labels = [ "l0"; "l1"; "l0" ] in
  let seen = Hashtbl.create 512 in
  for mask = 0 to 511 do
    Hashtbl.replace seen (J.graph_digest (build labels (edges_of mask))) ()
  done;
  check Alcotest.int "512 edge sets, 512 digests" 512 (Hashtbl.length seen);
  let edges = [ (0, 1); (1, 2) ] in
  let d = J.graph_digest (build labels edges) in
  check Alcotest.bool "swapped labels" false
    (String.equal d (J.graph_digest (build [ "l1"; "l0"; "l0" ] edges)));
  check Alcotest.bool "extra isolated node" false
    (String.equal d (J.graph_digest (build (labels @ [ "l0" ]) edges)));
  check Alcotest.string "interning order" d
    (J.graph_digest (build ~intern_first:[ "l1"; "l9"; "l0" ] labels edges))

(* The written-ahead [post] of [graph_digests g ops], given the ops
   [effective_ops] keeps for [g], against the definition it replaces:
   copy the graph, apply the raw ops, digest the copy from scratch.
   Batches are built from
   chunks so that one edge often carries two opposite ops in a row
   (insert then delete of an absent edge, delete then insert of a
   present one); the small id range yields self-loops, repeated edges and
   rows no op touches. Graphs are compacted halfway through their build
   so rows merge a base with a pending overlay. *)
type after_case = {
  n : int;
  edges : (int * int) list;
  ops : R.op list;
}

let after_case_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let node = int_bound (n - 1) in
    let edge = pair node node in
    let* edges = list_size (int_bound 30) edge in
    let chunk =
      let* u, v = edge in
      oneofl
        [
          [ R.Upsert_edge (u, v) ];
          [ R.Tombstone_edge (u, v) ];
          [ R.Upsert_edge (u, v); R.Tombstone_edge (u, v) ];
          [ R.Tombstone_edge (u, v); R.Upsert_edge (u, v) ];
          [ R.Upsert_edge (u, u); R.Tombstone_edge (u, u) ];
          [ R.Upsert_edge (u, v); R.Upsert_edge (u, v) ];
          [ R.Tombstone_edge (u, v); R.Tombstone_edge (u, v) ];
        ]
    in
    let+ chunks = list_size (int_bound 10) chunk in
    { n; edges; ops = List.concat chunks })

let build_case c =
  let g = D.create () in
  for i = 0 to c.n - 1 do
    ignore (D.add_node g (Printf.sprintf "n%d" (i mod 3)))
  done;
  List.iteri
    (fun i (u, v) ->
      if i = List.length c.edges / 2 then D.compact g;
      ignore (D.add_edge g u v))
    c.edges;
  g

let print_after_case c =
  Printf.sprintf "n=%d edges=[%s] ops=[%s]" c.n
    (String.concat "; "
       (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) c.edges))
    (String.concat "; " (List.map R.op_to_string c.ops))

let qcheck_digest_after =
  QCheck.Test.make ~name:"digest after ops = digest of applied copy"
    ~count:500
    (QCheck.make ~print:print_after_case after_case_gen)
    (fun c ->
      let g = build_case c in
      let before = J.graph_digest g in
      let pre, got =
        J.graph_digests g (J.effective_ops g (J.updates_of_ops c.ops))
      in
      let copy = D.copy g in
      D.apply_batch copy (J.updates_of_ops c.ops);
      String.equal got (J.graph_digest copy)
      && String.equal pre before
      && String.equal before (J.graph_digest g))

(* [effective_ops] is the batch's net effect on [g]: each edge at most
   once, deletions first, tombstones only of present edges and upserts
   only of absent ones; its ops reach the graph [apply_batch] reaches, and
   [g] is left alone. The cases' ops, read as updates, give batches with
   repeats, cancelling pairs and self-loops. *)
let qcheck_effective_ops =
  QCheck.Test.make ~name:"effective ops = net effect on the graph" ~count:500
    (QCheck.make ~print:print_after_case after_case_gen)
    (fun c ->
      let g = build_case c in
      let before = J.graph_digest g in
      let us = J.updates_of_ops c.ops in
      let ops = J.effective_ops g us in
      let edge = function
        | R.Upsert_edge (u, v) | R.Tombstone_edge (u, v) -> (u, v)
        | _ -> assert false
      in
      let edges = List.map edge ops in
      let rec dels_first = function
        | R.Upsert_edge _ :: R.Tombstone_edge _ :: _ -> false
        | _ :: rest -> dels_first rest
        | [] -> true
      in
      let effective = function
        | R.Tombstone_edge (u, v) -> D.mem_edge g u v
        | R.Upsert_edge (u, v) -> not (D.mem_edge g u v)
        | _ -> false
      in
      let via_ops = D.copy g and via_batch = D.copy g in
      D.apply_batch via_ops (J.updates_of_ops ops);
      D.apply_batch via_batch us;
      List.length (List.sort_uniq compare edges) = List.length edges
      && dels_first ops
      && List.for_all effective ops
      && String.equal (J.graph_digest via_ops) (J.graph_digest via_batch)
      && String.equal before (J.graph_digest g))

let test_digest_after_cases () =
  let g = mk_graph () in
  let after g ops =
    snd (J.graph_digests g (J.effective_ops g (J.updates_of_ops ops)))
  in
  let same ops =
    let copy = D.copy g in
    D.apply_batch copy (J.updates_of_ops ops);
    J.graph_digest copy
  in
  List.iter
    (fun (what, ops) ->
      check Alcotest.string what (same ops) (after g ops))
    [
      ("no ops", []);
      ( "insert then delete an absent edge",
        [ R.Upsert_edge (1, 3); R.Tombstone_edge (1, 3) ] );
      ( "delete then insert a present edge",
        [ R.Tombstone_edge (0, 1); R.Upsert_edge (0, 1) ] );
      ("self-loop", [ R.Upsert_edge (5, 5) ]);
      ("empty the graph's first row", [ R.Tombstone_edge (0, 1) ]);
    ];
  check Alcotest.string "insert+delete is a no-op" (J.graph_digest g)
    (after g [ R.Upsert_edge (1, 3); R.Tombstone_edge (1, 3) ]);
  List.iter
    (fun (what, ops) ->
      match J.graph_digests g ops with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("node upsert", [ R.Upsert_node (6, "y") ]);
      ("node tombstone", [ R.Tombstone_edge (0, 1); R.Tombstone_node 0 ]);
    ];
  let d = J.graph_digest g in
  (match
     after g [ R.Tombstone_edge (0, 1); R.Upsert_edge (0, 99) ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "edge op on an unknown node accepted");
  check Alcotest.string "unknown node leaves the graph alone" d
    (J.graph_digest g)

(* A label the reader cannot parse back must stop the writer, so neither
   the init snapshot nor a later one is ever written unreadable. *)
let test_unwritable_label_never_snapshotted () =
  List.iter
    (fun label ->
      let dir = fresh_dir () in
      let g = mk_graph () in
      ignore (D.add_node g label);
      (match
         St.init ~dir ~header:(header_of (mk_graph ())) ~client:(St.graph_client g) ()
       with
      | exception Invalid_argument msg ->
          check Alcotest.bool
            (Printf.sprintf "%S: error names node 6" label)
            true
            (String.starts_with ~prefix:"Io: node 6 " msg)
      | _ -> Alcotest.fail (Printf.sprintf "init accepted label %S" label));
      check (Alcotest.list Alcotest.int) "no init snapshot" []
        (Sn.list_seqs ~dir);
      let dir = fresh_dir () in
      let store, g = mk_store dir in
      ignore (St.do_batch store [ D.Insert (4, 5) ]);
      ignore (D.add_node g label);
      (match St.snapshot store with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "snapshot accepted label %S" label));
      St.close store;
      check (Alcotest.list Alcotest.int) "only the init snapshot" [ 0 ]
        (Sn.list_seqs ~dir))
    [ "x y"; ""; "p\nq" ]

(* ---- crash injection at every byte boundary ------------------------------ *)

(* Byte offsets where each framed record starts, walking the file with the
   codec itself. *)
let record_offsets src =
  let rec go pos acc =
    if pos >= String.length src then List.rev acc
    else
      match R.read_record src ~pos with
      | Ok (_, next) -> go next (pos :: acc)
      | Error _ -> List.rev acc
  in
  go (String.length R.magic) []

let mk_journal_with_batches dir =
  let store, _ = mk_store dir in
  List.iter
    (fun u -> ignore (St.do_batch store [ u ]))
    [ D.Insert (4, 5); D.Insert (5, 3); D.Delete (0, 1) ];
  let path = St.journal_path ~dir in
  St.close store;
  path

(* Truncate the journal to every length inside the final record: the scan
   must keep every earlier batch, report the tail torn at the final
   record's offset, and repair must restore a clean journal. *)
let test_truncate_every_boundary () =
  let dir = fresh_dir () in
  let path = mk_journal_with_batches dir in
  let src = read_file path in
  let offsets = record_offsets src in
  let last = List.nth offsets (List.length offsets - 1) in
  let scratch = Filename.concat dir "truncated.igj" in
  (* cutting exactly at the record boundary leaves a shorter clean file *)
  write_file scratch (String.sub src 0 last);
  (match J.scan ~path:scratch with
  | Ok { J.tail = J.Clean; batches; _ } ->
      check Alcotest.int "boundary cut is clean" 2 (List.length batches)
  | Ok _ -> Alcotest.fail "boundary cut reported torn"
  | Error e -> Alcotest.failf "boundary cut unreadable: %s" e);
  for len = last + 1 to String.length src - 1 do
    write_file scratch (String.sub src 0 len);
    match J.scan ~path:scratch with
    | Error e -> Alcotest.failf "truncation to %d: unreadable: %s" len e
    | Ok s -> (
        check Alcotest.int
          (Printf.sprintf "truncation to %d keeps committed prefix" len)
          2
          (List.length s.J.batches);
        match s.J.tail with
        | J.Clean -> Alcotest.failf "truncation to %d reported clean" len
        | J.Torn { offset; dropped; _ } ->
            check Alcotest.int "tear at the final record" last offset;
            check Alcotest.int "dropped bytes" (len - last) dropped;
            (match J.repair ~path:scratch with
            | Error e -> Alcotest.failf "repair at %d: %s" len e
            | Ok n -> check Alcotest.int "repair drops the tail" (len - last) n);
            check Alcotest.string
              (Printf.sprintf "repair at %d keeps the committed prefix" len)
              (String.sub src 0 s.J.valid_bytes)
              (read_file scratch);
            (match J.scan ~path:scratch with
            | Ok { J.tail = J.Clean; batches; _ } ->
                check Alcotest.int "clean after repair" 2 (List.length batches)
            | Ok _ -> Alcotest.failf "still torn after repair at %d" len
            | Error e -> Alcotest.failf "unreadable after repair: %s" e))
  done;
  (* Reattaching truncates the torn tail on the way in (the open_append
     path), to the same committed prefix. *)
  let jpath = St.journal_path ~dir in
  for len = last + 1 to String.length src - 1 do
    write_file jpath (String.sub src 0 len);
    match St.plan ~dir () with
    | Error e -> Alcotest.failf "plan at %d: %s" len e
    | Ok plan -> (
        let g = Sn.graph plan.St.snapshot in
        match St.attach ~dir ~plan ~client:(St.graph_client g) () with
        | Error e -> Alcotest.failf "attach at %d: %s" len e
        | Ok st ->
            St.close st;
            check Alcotest.string
              (Printf.sprintf "attach at %d keeps the committed prefix" len)
              (String.sub src 0 last) (read_file jpath))
  done

(* Flip every byte of the final record in turn: the checksummed frame must
   reject the record as a unit — two committed batches survive, nothing
   half-applied, no exception. *)
let test_corrupt_every_byte () =
  let dir = fresh_dir () in
  let path = mk_journal_with_batches dir in
  let src = read_file path in
  let offsets = record_offsets src in
  let last = List.nth offsets (List.length offsets - 1) in
  let scratch = Filename.concat dir "corrupt.igj" in
  for i = last to String.length src - 1 do
    let b = Bytes.of_string src in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    write_file scratch (Bytes.to_string b);
    match J.scan ~path:scratch with
    | Error e -> Alcotest.failf "corruption at byte %d: unreadable: %s" i e
    | Ok s ->
        check Alcotest.int
          (Printf.sprintf "corruption at byte %d drops the record whole" i)
          2
          (List.length s.J.batches);
        check Alcotest.bool "tail reported torn" true (s.J.tail <> J.Clean)
  done

(* [chop] cuts bytes off the end; a negative count is refused and leaves
   every byte in place. *)
let test_chop () =
  let dir = fresh_dir () in
  let path = mk_journal_with_batches dir in
  let src = read_file path in
  (match J.chop ~path (-5) with
  | Ok () -> Alcotest.fail "negative chop accepted"
  | Error _ -> ());
  check Alcotest.string "negative chop leaves the file alone" src
    (read_file path);
  (match J.chop ~path 3 with
  | Error e -> Alcotest.failf "chop 3: %s" e
  | Ok () -> ());
  check Alcotest.string "chop 3 drops the last three bytes"
    (String.sub src 0 (String.length src - 3))
    (read_file path)

(* ---- snapshots ----------------------------------------------------------- *)

let test_snapshot_checksum () =
  let dir = fresh_dir () in
  let store, g = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let p = St.snapshot store in
  St.close store;
  (match Sn.load ~path:p with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check Alcotest.int "snapshot at tip" 1 (Sn.seq s);
      check Alcotest.string "graph digest matches the live graph"
        (J.graph_digest g) (Sn.graph_digest s));
  (* tampering with one byte must fail the self-checksum *)
  let src = read_file p in
  let i = String.index src ':' in
  let b = Bytes.of_string src in
  Bytes.set b i ';';
  write_file p (Bytes.to_string b);
  match Sn.load ~path:p with
  | Ok _ -> Alcotest.fail "tampered snapshot validated"
  | Error _ -> ()

(* A journal or snapshot written under format version 1, whose digests
   were MD5s of the graph text, is refused with a version error rather
   than read as a digest mismatch. *)
let test_version_1_refused () =
  let dir = fresh_dir () in
  let store, g = mk_store dir in
  St.close store;
  let path = St.journal_path ~dir in
  write_file path
    (R.magic
    ^ R.frame (R.encode_payload (R.Header { (header_of g) with R.version = 1 }))
    );
  (match J.scan ~path with
  | Error e ->
      check Alcotest.string "v1 journal"
        (path ^ ": format version 1, expected 2")
        e
  | Ok _ -> Alcotest.fail "v1 journal scanned");
  let module Json = Ig_obs.Json in
  let v1 =
    match Sn.to_json ~seq:0 ~graph:g ~answer_digest:"" ~certs:[] with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "schema_version" then (k, Json.Int 1) else (k, v))
             fields)
    | _ -> assert false
  in
  let p = Sn.path ~dir ~seq:0 in
  write_file p (Json.to_string v1);
  match Sn.load ~path:p with
  | Error e ->
      check Alcotest.string "v1 snapshot"
        (p ^ ": schema_version 1, expected 2")
        e
  | Ok _ -> Alcotest.fail "v1 snapshot loaded"

(* A corrupt newest snapshot must not strand recovery: plan falls back to
   an older intact one. *)
let test_plan_skips_corrupt_snapshot () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let p = St.snapshot store in
  ignore (St.do_batch store [ D.Insert (5, 3) ]);
  St.close store;
  write_file p "{ not a snapshot";
  match St.plan ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      check Alcotest.int "fell back to snapshot-0" 0 (Sn.seq plan.St.snapshot);
      check Alcotest.int "replays the whole journal" 2
        (List.length plan.St.replay)

(* ---- store round-trips --------------------------------------------------- *)

let test_do_undo_recover () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  let d0 = St.digest store in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let d1 = St.digest store in
  ignore (St.do_batch store [ D.Insert (5, 3); D.Delete (0, 1) ]);
  (* undo(do(G)) = G, digest-for-digest *)
  (match St.undo store ~k:1 with
  | Error e -> Alcotest.fail e
  | Ok _ -> check Alcotest.string "undo 1 restores" d1 (St.digest store));
  (* the last two batches are now {undo of seq 2, seq 2}: rolling both
     back is a wash — the target is the pre of the oldest undone batch *)
  (match St.undo store ~k:2 with
  | Error e -> Alcotest.fail e
  | Ok _ -> check Alcotest.string "undo spanning an undo" d1 (St.digest store));
  (* rolling back the entire history lands at the base *)
  (match St.undo store ~k:(St.tip store) with
  | Error e -> Alcotest.fail e
  | Ok _ -> check Alcotest.string "full rollback" d0 (St.digest store));
  check Alcotest.bool "no-op batches are not journaled" true
    (St.do_batch store [ D.Delete (4, 5) ] = None);
  let tip = St.tip store in
  St.close store;
  (* crash-recover: rebuild from snapshot-0, replay everything *)
  match St.plan ~from_scratch:true ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      let g = Sn.graph plan.St.snapshot in
      match St.attach ~dir ~plan ~client:(St.graph_client g) () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.int "tip survives recovery" tip (St.tip st);
          check Alcotest.string "replay reproduces the digest" d0
            (St.digest st);
          check Alcotest.bool "writable at the tip" true (St.writable st);
          St.close st)

(* After a reattach, undo's bounds come from the reopened journal: k past
   the tip or non-positive is refused with the journal untouched, and
   undoing every batch lands on the base. *)
let test_undo_errors_after_reattach () =
  let dir = fresh_dir () in
  let path = mk_journal_with_batches dir in
  let n = 3 in
  match St.plan ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      let g = Sn.graph plan.St.snapshot in
      match St.attach ~dir ~plan ~client:(St.graph_client g) () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          let size = String.length (read_file path) in
          let refused k msg =
            (match St.undo st ~k with
            | Ok _ -> Alcotest.failf "undo ~k:%d accepted" k
            | Error e -> check Alcotest.string (Printf.sprintf "k=%d" k) msg e);
            check Alcotest.int "tip unchanged" n (St.tip st);
            check Alcotest.int "journal unchanged" size
              (String.length (read_file path))
          in
          refused (n + 1)
            (Printf.sprintf "undo: only %d batch(es) journaled, asked for %d" n
               (n + 1));
          refused 0 "undo: k must be positive";
          (match St.undo st ~k:n with
          | Error e -> Alcotest.fail e
          | Ok _ ->
              check Alcotest.string "undo of every batch restores the base"
                (J.graph_digest (mk_graph ())) (St.digest st));
          St.close st)

let test_undo_of_undo_is_redo () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let after = St.digest store in
  (match St.undo store ~k:1 with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  (match St.undo store ~k:1 with
  | Error e -> Alcotest.fail e
  | Ok _ -> check Alcotest.string "redo" after (St.digest store));
  St.close store

let test_as_of_time_travel () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let d1 = St.digest store in
  ignore (St.do_batch store [ D.Insert (5, 3) ]);
  St.close store;
  match St.plan ~as_of:1 ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      let g = Sn.graph plan.St.snapshot in
      match St.attach ~dir ~plan ~client:(St.graph_client g) () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.string "state as of seq 1" d1 (St.digest st);
          check Alcotest.bool "historical stores are read-only" false
            (St.writable st);
          (match St.undo st ~k:1 with
          | Ok _ -> Alcotest.fail "appended to a rewound history"
          | Error _ | (exception Failure _) -> ());
          St.close st)

(* A batch whose updates cancel changes nothing, so nothing is written. *)
let test_cancelling_batch_not_journaled () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let tip = St.tip store and path = St.journal_path ~dir in
  let size = String.length (read_file path) in
  check Alcotest.bool "cancelling batch journals nothing" true
    (St.do_batch store
       [ D.Delete (0, 1); D.Insert (0, 1); D.Insert (1, 3); D.Delete (1, 3) ]
    = None);
  check Alcotest.int "tip unchanged" tip (St.tip store);
  check Alcotest.int "journal size unchanged" size
    (String.length (read_file path));
  St.close store

(* A crash between the write-ahead append and the engine apply: the
   journal has the batch, the engine does not. Recovery replays it. *)
let test_write_ahead_crash () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  St.append_unapplied_for_crash_testing store [ D.Insert (5, 3) ];
  let tip = St.tip store in
  St.close store;
  match St.plan ~from_scratch:true ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      check Alcotest.int "unapplied batch is committed" tip plan.St.tip;
      let g = Sn.graph plan.St.snapshot in
      match St.attach ~dir ~plan ~client:(St.graph_client g) () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.bool "journal wins after the crash" true
            (D.mem_edge g 5 3);
          St.close st)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_journal"
    [
      ( "codec",
        qsuite [ qcheck_roundtrip ]
        @ [
            Alcotest.test_case "all-256-bytes label" `Quick test_all_bytes_label;
            Alcotest.test_case "prefixes and flips error out" `Quick
              test_read_record_errors;
          ] );
      ( "ops",
        [
          Alcotest.test_case "effective normalization" `Quick
            test_effective_ops;
          Alcotest.test_case "idempotent replay" `Quick
            test_client_apply_idempotent;
          Alcotest.test_case "inversion" `Quick test_invert;
        ]
        @ qsuite [ qcheck_effective_ops ] );
      ( "digests",
        qsuite [ qcheck_digest_after ]
        @ [
            Alcotest.test_case "pinned canonical bytes" `Quick
              test_pinned_digests;
            Alcotest.test_case "digest separates a small universe" `Quick
              test_digest_separates;
            Alcotest.test_case "overlay edge cases" `Quick
              test_digest_after_cases;
            Alcotest.test_case "unwritable label never snapshotted" `Quick
              test_unwritable_label_never_snapshotted;
          ] );
      ( "crash injection",
        [
          Alcotest.test_case "truncate every boundary" `Quick
            test_truncate_every_boundary;
          Alcotest.test_case "corrupt every byte" `Quick
            test_corrupt_every_byte;
          Alcotest.test_case "chop" `Quick test_chop;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "self-checksum" `Quick test_snapshot_checksum;
          Alcotest.test_case "corrupt snapshot skipped" `Quick
            test_plan_skips_corrupt_snapshot;
          Alcotest.test_case "version 1 refused" `Quick
            test_version_1_refused;
        ] );
      ( "store",
        [
          Alcotest.test_case "do/undo/recover" `Quick test_do_undo_recover;
          Alcotest.test_case "undo of undo is redo" `Quick
            test_undo_of_undo_is_redo;
          Alcotest.test_case "undo errors after a reattach" `Quick
            test_undo_errors_after_reattach;
          Alcotest.test_case "as-of time travel" `Quick test_as_of_time_travel;
          Alcotest.test_case "write-ahead crash" `Quick test_write_ahead_crash;
          Alcotest.test_case "cancelling batch not journaled" `Quick
            test_cancelling_batch_not_journaled;
        ] );
    ]
