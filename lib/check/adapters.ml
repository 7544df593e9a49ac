let canon_nodes ns =
  let ns = List.sort_uniq compare ns in
  "{" ^ String.concat " " (List.map string_of_int ns) ^ "}"

let canon_pairs ps =
  let ps = List.sort_uniq compare ps in
  "{"
  ^ String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) ps)
  ^ "}"

let canon_comps cs =
  let cs = List.sort compare (List.map (List.sort compare) cs) in
  String.concat ""
    (List.map
       (fun c -> "[" ^ String.concat " " (List.map string_of_int c) ^ "]")
       cs)

(* A match subgraph: sorted image nodes plus sorted image edges (the VF2
   canon), printed. *)
let canon_mappings p ms =
  let cs = List.sort_uniq compare (List.map (Ig_iso.Vf2.canon_of p) ms) in
  String.concat ""
    (List.map
       (fun (ns, es) ->
         Printf.sprintf "[%s|%s]"
           (String.concat " " (List.map string_of_int ns))
           (String.concat " "
              (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) es)))
       cs)
