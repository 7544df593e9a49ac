(* ---- canonical writer ---------------------------------------------------- *)

(* Decimal digits straight into the buffer, most significant first: no
   intermediate string. Ids and counts are non-negative. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let rec n_digits n = if n < 10 then 1 else 1 + n_digits (n / 10)

(* The reader trims each line and splits it on single spaces, so only a
   non-empty label without whitespace survives a round trip. *)
let add_label buf g v =
  let name = Digraph.label_name g v in
  if
    name = ""
    || String.exists
         (function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false)
         name
  then
    invalid_arg
      (Printf.sprintf
         "Io: node %d has label %S; a label must be non-empty and contain no \
          whitespace"
         v name);
  Buffer.add_string buf name

let add_edge_line buf u v =
  Buffer.add_string buf "e ";
  add_nat buf u;
  Buffer.add_char buf ' ';
  add_nat buf v;
  Buffer.add_char buf '\n'

let to_string g =
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let d = n_digits n in
  let buf = Buffer.create (64 + (n * (d + 12)) + (m * ((2 * d) + 4))) in
  Buffer.add_string buf "# incgraph v1: ";
  add_nat buf n;
  Buffer.add_string buf " nodes ";
  add_nat buf m;
  Buffer.add_string buf " edges\n";
  for v = 0 to n - 1 do
    Buffer.add_string buf "v ";
    add_nat buf v;
    Buffer.add_char buf ' ';
    add_label buf g v;
    Buffer.add_char buf '\n'
  done;
  Digraph.iter_edges (add_edge_line buf) g;
  Buffer.contents buf

(* Deliberate artifact writer/reader: the graph text format. *)
let save path g =
  let text = to_string g in
  let oc = (open_out [@lint.allow "D3"]) path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      close_out oc)

let parse_lines lines =
  let g = Digraph.create () in
  let ids = Hashtbl.create 64 in
  let lineno = ref 0 and edges = ref [] in
  let fail msg = failwith (Printf.sprintf "Io.read: line %d: %s" !lineno msg) in
  let node_of ext =
    match Hashtbl.find_opt ids ext with
    | Some v -> v
    | None -> fail (Printf.sprintf "undeclared node %d" ext)
  in
  Seq.iter
    (fun line ->
      incr lineno;
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ' ' line with
        | [ "v"; ext; label ] ->
            let ext =
              try int_of_string ext with _ -> fail "bad node id"
            in
            if Hashtbl.mem ids ext then fail "duplicate node id";
            Hashtbl.replace ids ext (Digraph.add_node g label)
        | [ "e"; u; v ] ->
            let u = try int_of_string u with _ -> fail "bad edge source" in
            let v = try int_of_string v with _ -> fail "bad edge target" in
            edges := (node_of u, node_of v) :: !edges
        | _ -> fail "unrecognized record")
    lines;
  Digraph.load_edges g !edges;
  g

let read ic =
  let rec lines () =
    match In_channel.input_line ic with
    | None -> Seq.Nil
    | Some l -> Seq.Cons (l, lines)
  in
  parse_lines lines

let load path =
  let ic = (open_in [@lint.allow "D3"]) path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read ic)

let of_string s =
  parse_lines (List.to_seq (String.split_on_char '\n' s))
