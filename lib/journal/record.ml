type op =
  | Upsert_edge of int * int
  | Tombstone_edge of int * int
  | Upsert_node of int * string
  | Tombstone_node of int

type kind = Do | Undo of int

type header = {
  version : int;
  cls : string;
  bound : int;
  qargs : string list;
  base_digest : string;
}

type batch = {
  seq : int;
  kind : kind;
  ops : op list;
  pre : string;
  post : string;
}

type payload = Header of header | Batch of batch

let format_version = 2
let magic = "IGJRNL01"

(* Labels may contain any byte; the canonical op text escapes them so ids
   and inspection output stay one-line. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | ' ' -> Buffer.add_string b "\\s"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let op_to_string = function
  | Upsert_edge (u, v) -> Printf.sprintf "+e %d %d" u v
  | Tombstone_edge (u, v) -> Printf.sprintf "-e %d %d" u v
  | Upsert_node (id, l) -> Printf.sprintf "+v %d %s" id (escape l)
  | Tombstone_node id -> Printf.sprintf "-v %d" id

let inverse_op = function
  | Upsert_edge (u, v) -> Some (Tombstone_edge (u, v))
  | Tombstone_edge (u, v) -> Some (Upsert_edge (u, v))
  | Upsert_node _ | Tombstone_node _ -> None

(* ---- binary codec -------------------------------------------------------- *)

(* All integers are non-negative and fit 32 bits in practice (node ids,
   sequence numbers, string lengths); they are written as 4-byte
   big-endian. Strings are length-prefixed and binary-safe. *)

let add_u32 b n =
  if n < 0 || n > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Record: integer %d out of u32 range" n);
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_op b = function
  | Upsert_edge (u, v) ->
      Buffer.add_char b '\000';
      add_u32 b u;
      add_u32 b v
  | Tombstone_edge (u, v) ->
      Buffer.add_char b '\001';
      add_u32 b u;
      add_u32 b v
  | Upsert_node (id, l) ->
      Buffer.add_char b '\002';
      add_u32 b id;
      add_str b l
  | Tombstone_node id ->
      Buffer.add_char b '\003';
      add_u32 b id

let encode_payload p =
  let b = Buffer.create 64 in
  (match p with
  | Header h ->
      Buffer.add_char b 'H';
      add_u32 b h.version;
      add_str b h.cls;
      add_u32 b h.bound;
      add_u32 b (List.length h.qargs);
      List.iter (add_str b) h.qargs;
      add_str b h.base_digest
  | Batch t ->
      Buffer.add_char b 'B';
      add_u32 b t.seq;
      (match t.kind with
      | Do -> Buffer.add_char b '\000'
      | Undo k ->
          Buffer.add_char b '\001';
          add_u32 b k);
      add_u32 b (List.length t.ops);
      List.iter (add_op b) t.ops;
      add_str b t.pre;
      add_str b t.post);
  Buffer.contents b

type error = Truncated | Corrupt of string

exception Bad of error

let fail msg = raise (Bad (Corrupt msg))

(* A cursor over an in-memory buffer. [Truncated] means the buffer ended
   mid-field — indistinguishable from a torn write, which is the point. *)
type cursor = { src : string; mutable pos : int; limit : int }

let need c n = if c.pos + n > c.limit then raise (Bad Truncated)

let get_byte c =
  need c 1;
  let x = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  x

let get_u32 c =
  need c 4;
  let b i = Char.code c.src.[c.pos + i] in
  let x = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  x

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let get_op c =
  match get_byte c with
  | 0 ->
      let u = get_u32 c in
      Upsert_edge (u, get_u32 c)
  | 1 ->
      let u = get_u32 c in
      Tombstone_edge (u, get_u32 c)
  | 2 ->
      let id = get_u32 c in
      Upsert_node (id, get_str c)
  | 3 -> Tombstone_node (get_u32 c)
  | t -> fail (Printf.sprintf "unknown op tag %d" t)

let decode_payload s =
  let c = { src = s; pos = 0; limit = String.length s } in
  let p =
    match get_byte c with
    | 0x48 (* 'H' *) ->
        let version = get_u32 c in
        let cls = get_str c in
        let bound = get_u32 c in
        let n = get_u32 c in
        if n > c.limit - c.pos then raise (Bad Truncated);
        let qargs = List.init n (fun _ -> get_str c) in
        Header { version; cls; bound; qargs; base_digest = get_str c }
    | 0x42 (* 'B' *) ->
        let seq = get_u32 c in
        let kind =
          match get_byte c with
          | 0 -> Do
          | 1 -> Undo (get_u32 c)
          | k -> fail (Printf.sprintf "unknown batch kind %d" k)
        in
        let n = get_u32 c in
        if n > c.limit - c.pos then raise (Bad Truncated);
        let ops = List.init n (fun _ -> get_op c) in
        let pre = get_str c in
        Batch { seq; kind; ops; pre; post = get_str c }
    | t -> fail (Printf.sprintf "unknown payload tag %d" t)
  in
  if c.pos <> c.limit then
    fail (Printf.sprintf "%d trailing byte(s) in payload" (c.limit - c.pos));
  p

let frame payload =
  let b = Buffer.create (String.length payload + 24) in
  add_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_string b (Digest.string payload);
  Buffer.contents b

(* The frame length bound is a sanity check against a corrupted length
   field sending the reader gigabytes ahead: no legitimate payload in this
   repo approaches it. *)
let max_payload = 1 lsl 26

let read_record src ~pos =
  let limit = String.length src in
  let c = { src; pos; limit } in
  match
    let len = get_u32 c in
    if len > max_payload then fail (Printf.sprintf "frame length %d" len);
    need c (len + 16);
    let payload = String.sub src c.pos len in
    let sum = String.sub src (c.pos + len) 16 in
    if not (String.equal sum (Digest.string payload)) then
      fail "checksum mismatch";
    (decode_payload payload, c.pos + len + 16)
  with
  | r -> Ok r
  | exception Bad e -> Error e
