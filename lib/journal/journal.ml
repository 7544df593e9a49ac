module Digraph = Ig_graph.Digraph
module Interner = Ig_graph.Interner
module Obs = Ig_obs.Obs

type t = {
  oc : out_channel;
  mutable obs : Obs.t;
  mutable next_seq : int;
  mutable committed : Record.batch list; (* newest first *)
}

type tail = Clean | Torn of { offset : int; dropped : int; reason : string }

type scanned = {
  header : Record.header;
  batches : Record.batch list;
  tail : tail;
  valid_bytes : int;
}

let digest_hex s = Digest.to_hex (Digest.string s)

(* ---- graph digests ------------------------------------------------------- *)

(* A keyed multiset hash of the graph's structure: in each of two
   independent 63-bit lanes, the sum of one term per node (from its id and
   its label's name) and one term per edge (from its packed key
   [u lsl 31 lor v]). Each lane mixes with its own splitmix-style
   finalizer, a bijection on 63 bits with fixed constants. Because the
   terms are added, the digest after a batch is the digest before it, less
   the terms of the edges it removes, plus those of the edges it adds. *)

let mix_a z =
  let z = z lxor 0x2545f4914f6cdd1d in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let mix_b z =
  let z = z lxor 0x1b873593cc9e2d51 in
  let z = (z lxor (z lsr 33)) * 0x3f51afd7ed558ccd in
  let z = (z lxor (z lsr 29)) * 0x04ceb9fe1a85ec53 in
  z lxor (z lsr 32)

let string_hash mix s =
  String.fold_left (fun h c -> mix (h + Char.code c)) (mix (String.length s)) s

let edge_key u v = (u lsl 31) lor v

(* The two lane sums of [g]: one pass over the nodes and their successor
   rows, with each label name hashed once. *)
let digest_sums g =
  let names = Digraph.interner g in
  let label_hash mix =
    Array.init (Interner.size names) (fun s ->
        string_hash mix (Interner.name names s))
  in
  let la = label_hash mix_a and lb = label_hash mix_b in
  let a = ref 0 and b = ref 0 in
  for u = 0 to Digraph.n_nodes g - 1 do
    let l = Digraph.label g u in
    a := !a + mix_a (mix_a u + la.(l));
    b := !b + mix_b (mix_b u + lb.(l));
    Digraph.iter_succ
      (fun v ->
        let k = edge_key u v in
        a := !a + mix_a k;
        b := !b + mix_b k)
      g u
  done;
  (!a, !b)

let digest_of_sums (a, b) = Printf.sprintf "%016x%016x" a b
let graph_digest g = digest_of_sums (digest_sums g)

let read_all path =
  In_channel.with_open_bin path In_channel.input_all

let cannot_read path e = Error (Printf.sprintf "cannot read %s: %s" path e)

let scan ~path =
  match read_all path with
  | exception Sys_error e -> cannot_read path e
  | src ->
      let len = String.length src in
      let mlen = String.length Record.magic in
      if len < mlen || not (String.equal (String.sub src 0 mlen) Record.magic)
      then Error (Printf.sprintf "%s: bad or missing journal magic" path)
      else begin
        match Record.read_record src ~pos:mlen with
        | Error _ -> Error (Printf.sprintf "%s: unreadable journal header" path)
        | Ok (Record.Batch _, _) ->
            Error (Printf.sprintf "%s: first record is not a header" path)
        | Ok (Record.Header h, pos0) ->
            if h.Record.version <> Record.format_version then
              Error
                (Printf.sprintf "%s: format version %d, expected %d" path
                   h.Record.version Record.format_version)
            else begin
              (* Committed prefix: contiguous batch records. The first bad
                 or out-of-sequence record ends the prefix; everything from
                 there is torn tail, dropped as a unit. *)
              let rec go pos seq acc =
                if pos = len then (List.rev acc, Clean, pos)
                else
                  let torn reason =
                    ( List.rev acc,
                      Torn { offset = pos; dropped = len - pos; reason },
                      pos )
                  in
                  match Record.read_record src ~pos with
                  | Error Record.Truncated -> torn "truncated record"
                  | Error (Record.Corrupt m) -> torn m
                  | Ok (Record.Header _, _) -> torn "unexpected second header"
                  | Ok (Record.Batch b, pos') ->
                      if b.Record.seq <> seq then
                        torn
                          (Printf.sprintf "sequence gap: found %d, expected %d"
                             b.Record.seq seq)
                      else go pos' (seq + 1) (b :: acc)
              in
              let batches, tail, valid_bytes = go pos0 1 [] in
              Ok { header = h; batches; tail; valid_bytes }
            end
      end

(* A torn tail is cut off in place: the committed prefix is never
   rewritten, so no crash during a repair can shorten it. *)
let repair ~path =
  match scan ~path with
  | Error e -> Error e
  | Ok { tail = Clean; _ } -> Ok 0
  | Ok { tail = Torn { dropped; _ }; valid_bytes; _ } ->
      Unix.truncate path valid_bytes;
      Ok dropped

let chop ~path n =
  if n < 0 then Error (Printf.sprintf "chop: %d is negative" n)
  else
    match In_channel.with_open_bin path In_channel.length with
    | exception Sys_error e -> cannot_read path e
    | len ->
        Unix.truncate path (max 0 (Int64.to_int len - n));
        Ok ()

let create ~path hdr =
  let oc = open_out_bin path in
  output_string oc Record.magic;
  output_string oc (Record.frame (Record.encode_payload (Record.Header hdr)));
  flush oc;
  { oc; obs = Obs.noop; next_seq = 1; committed = [] }

let open_append ~path =
  match scan ~path with
  | Error e -> Error e
  | Ok s ->
      (match s.tail with
      | Clean -> ()
      | Torn _ -> Unix.truncate path s.valid_bytes);
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
      in
      (* Sequence numbers run 1, 2, … with no gap, so the count is the tip. *)
      Ok
        {
          oc;
          obs = Obs.noop;
          next_seq = List.length s.batches + 1;
          committed = List.rev s.batches;
        }

let instrument t obs = t.obs <- obs

(* Write-ahead append: frame, flush to the OS, then fsync so the record
   survives power loss, not just a process crash. The whole durable append
   lands in [wal_append_latency_s], the fsync alone in
   [wal_fsync_latency_s], and the resulting file size in the
   [journal_bytes] gauge. *)
let append t ~kind ~ops ~pre ~post =
  Obs.observe_time t.obs Obs.K.wal_append_latency @@ fun () ->
  let b = { Record.seq = t.next_seq; kind; ops; pre; post } in
  output_string t.oc (Record.frame (Record.encode_payload (Record.Batch b)));
  flush t.oc;
  Obs.observe_time t.obs Obs.K.wal_fsync_latency (fun () ->
      Unix.fsync (Unix.descr_of_out_channel t.oc));
  if Obs.enabled t.obs then
    Obs.set_gauge t.obs Obs.K.journal_bytes (out_channel_length t.oc);
  t.next_seq <- t.next_seq + 1;
  t.committed <- b :: t.committed;
  b

let tip t = t.next_seq - 1
let close t = close_out t.oc

(* ---- op semantics -------------------------------------------------------- *)

(* The batch's net effect ({!Digraph.net_effect}) less the entries that
   would not change [g], deletions first, as [Digraph.apply_net] applies
   them. *)
let effective_ops g updates =
  let dels, inss = Digraph.net_effect updates in
  let keep present op (u, v) =
    if not (Digraph.mem_node g u && Digraph.mem_node g v) then
      invalid_arg
        (Printf.sprintf "Journal.effective_ops: update on unknown edge (%d, %d)"
           u v);
    if Digraph.mem_edge g u v = present then Some (op u v) else None
  in
  List.filter_map (keep true (fun u v -> Record.Tombstone_edge (u, v))) dels
  @ List.filter_map (keep false (fun u v -> Record.Upsert_edge (u, v))) inss

let updates_of_ops ops =
  List.map
    (function
      | Record.Upsert_edge (u, v) -> Digraph.Insert (u, v)
      | Record.Tombstone_edge (u, v) -> Digraph.Delete (u, v)
      | (Record.Upsert_node _ | Record.Tombstone_node _) as op ->
          invalid_arg
            ("Journal.updates_of_ops: node op has no engine update: "
            ^ Record.op_to_string op))
    ops

(* [post] is [pre]'s sums shifted by the terms of the edges [ops] change:
   O(|ops|) beyond [pre]'s pass. [ops] are {!effective_ops} for [g], so
   each one changes [g] and none is shifted twice. *)
let graph_digests g ops =
  let shift (a, b) = function
    | Record.Upsert_edge (u, v) ->
        let k = edge_key u v in
        (a + mix_a k, b + mix_b k)
    | Record.Tombstone_edge (u, v) ->
        let k = edge_key u v in
        (a - mix_a k, b - mix_b k)
    | (Record.Upsert_node _ | Record.Tombstone_node _) as op ->
        invalid_arg
          ("Journal.graph_digests: node op has no edge term: "
          ^ Record.op_to_string op)
  in
  let sums = digest_sums g in
  (digest_of_sums sums, digest_of_sums (List.fold_left shift sums ops))

let invert ops =
  let rec go acc = function
    | [] -> Ok acc
    | op :: rest -> (
        match Record.inverse_op op with
        | Some inv -> go (inv :: acc) rest
        | None ->
            Error
              ("node op is monotone and cannot be undone: "
              ^ Record.op_to_string op))
  in
  go [] ops

(* [committed] is newest first, so the undone batches are its first [k]
   and their inverses are already in rollback order. *)
let plan_undo t ~k =
  let n = tip t in
  if k <= 0 then Error "undo: k must be positive"
  else if k > n then
    Error (Printf.sprintf "undo: only %d batch(es) journaled, asked for %d" n k)
  else
    let rec build invs i = function
      | [] -> assert false (* k <= n batches are committed *)
      | b :: rest -> (
          match invert b.Record.ops with
          | Error e -> Error (Printf.sprintf "batch %d: %s" b.Record.seq e)
          | Ok inv ->
              let invs = inv :: invs in
              if i = k then Ok (List.concat (List.rev invs), b.Record.pre)
              else build invs (i + 1) rest)
    in
    build [] 1 t.committed
