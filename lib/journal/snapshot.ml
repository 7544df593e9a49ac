module Json = Ig_obs.Json
module Digraph = Ig_graph.Digraph
module Io = Ig_graph.Io

type t = {
  seq : int;
  graph_digest : string;
  certs : (string * string) list;
  parsed : Digraph.t;
}

let tool_name = "incgraph-journal-snapshot"
let schema_version = 2

let seq t = t.seq
let graph_digest t = t.graph_digest
let certs t = t.certs
let graph t = Digraph.copy t.parsed

let body_fields ~seq ~graph_text ~graph_digest ~answer_digest ~certs =
  [
    ("tool", Json.Str tool_name);
    ("schema_version", Json.Int schema_version);
    ("seq", Json.Int seq);
    ("graph", Json.Str graph_text);
    ("graph_digest", Json.Str graph_digest);
    ("answer_digest", Json.Str answer_digest);
    ("certs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) certs));
  ]

(* The checksum covers the canonical (non-indented) serialization of the
   object without its checksum field; emission order is fixed, so the
   digest is deterministic. *)
let checksum fields = Journal.digest_hex (Json.to_string (Json.Obj fields))

let to_json ~seq ~graph ~answer_digest ~certs =
  let graph_text = Io.to_string graph in
  let fields =
    body_fields ~seq ~graph_text ~graph_digest:(Journal.graph_digest graph)
      ~answer_digest ~certs
  in
  Json.Obj (fields @ [ ("checksum", Json.Str (checksum fields)) ])

let validate json =
  let str k = Option.bind (Json.member k json) Json.to_str_opt in
  let int k = Option.bind (Json.member k json) Json.to_int_opt in
  match str "tool" with
  | Some tl when tl <> tool_name ->
      Error (Printf.sprintf "tool %S, expected %S" tl tool_name)
  | None -> Error "missing \"tool\""
  | Some _ -> (
      match int "schema_version" with
      | Some v when v <> schema_version ->
          Error (Printf.sprintf "schema_version %d, expected %d" v schema_version)
      | None -> Error "missing integer \"schema_version\""
      | Some _ -> (
          match
            ( int "seq",
              str "graph",
              str "graph_digest",
              str "answer_digest",
              Option.bind (Json.member "certs" json) Json.to_obj_opt,
              str "checksum" )
          with
          | Some seq, Some graph_text, Some gd, Some ad, Some cfields, Some sum
            -> (
              let certs =
                List.filter_map
                  (fun (k, v) ->
                    Option.map (fun s -> (k, s)) (Json.to_str_opt v))
                  cfields
              in
              if List.length certs <> List.length cfields then
                Error "non-string certificate section"
              else
                let fields =
                  body_fields ~seq ~graph_text ~graph_digest:gd
                    ~answer_digest:ad ~certs
                in
                if not (String.equal sum (checksum fields)) then
                  Error "snapshot checksum mismatch"
                else
                  match Io.of_string graph_text with
                  | exception Failure e -> Error ("unparsable graph: " ^ e)
                  | g ->
                      if not (String.equal gd (Journal.graph_digest g)) then
                        Error "graph digest does not match graph text"
                      else
                        Ok { seq; graph_digest = gd; certs; parsed = g })
          | _ ->
              Error
                "missing seq/graph/graph_digest/answer_digest/certs/checksum"))

let path ~dir ~seq = Filename.concat dir (Printf.sprintf "snapshot-%d.json" seq)

(* The JSON is built before the file is opened, so a graph the text
   cannot carry leaves no file behind. *)
let write ~dir ~seq ~graph ~answer_digest ~certs =
  let json = to_json ~seq ~graph ~answer_digest ~certs in
  let p = path ~dir ~seq in
  Out_channel.with_open_bin p (fun oc ->
      Out_channel.output_string oc (Json.to_string ~indent:true json);
      Out_channel.output_char oc '\n');
  p

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (Printf.sprintf "cannot read %s: %s" path e)
  | src -> (
      match Json.parse src with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok j -> (
          match validate j with
          | Error e -> Error (Printf.sprintf "%s: %s" path e)
          | Ok t -> Ok t))

let list_seqs ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun name ->
             if
               String.starts_with ~prefix:"snapshot-" name
               && Filename.check_suffix name ".json"
             then
               let mid =
                 String.sub name 9 (String.length name - 9 - 5)
               in
               match int_of_string_opt mid with
               | Some n when n >= 0 -> Some n
               | _ -> None
             else None)
      |> List.sort Int.compare
