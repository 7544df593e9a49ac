(* Cross-hash-seed byte-identity driver behind the @undo-fuzz alias.

   Runs the durable fuzz (Ig_check.Durable) for all five engines with
   deterministic transcripts enabled, writing DIR/<scenario>.log plus the
   session's on-disk artifacts (journal + snapshots) under
   DIR/<scenario>.store. The alias runs this twice under OCAMLRUNPARAM=R —
   two processes, two fresh Hashtbl hash seeds — and diffs the two output
   trees byte for byte: every graph digest, answer digest, trace digest
   and journal byte must agree, or some hash-order iteration leaked into
   the do/undo/recover path.

   Usage: undo_digests DIR *)

let scenarios = [ ("kws", 211); ("rpq", 212); ("scc", 213); ("sim", 214); ("iso", 215) ]
let steps = 150

let () =
  let dir =
    match Sys.argv with
    | [| _; d |] -> d
    | _ ->
        prerr_endline "usage: undo_digests DIR";
        exit 2
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let failed = ref false in
  List.iter
    (fun (name, seed) ->
      let rng = Random.State.make [| 0xbd; seed |] in
      match Ig_check.Scenarios.by_name ~rng name with
      | None ->
          Printf.eprintf "unknown scenario %s\n" name;
          failed := true
      | Some s ->
          let oc = open_out (Filename.concat dir (name ^ ".log")) in
          let emit line =
            output_string oc line;
            output_char oc '\n'
          in
          (match
             Ig_check.Durable.run ~scenario:s
               ~dir:(Filename.concat dir (name ^ ".store"))
               ~steps ~seed ~emit ()
           with
          | Ok n -> emit (Printf.sprintf "done %d steps" n)
          | Error msg ->
              Printf.eprintf "%s: %s\n" name msg;
              failed := true);
          close_out oc)
    scenarios;
  if !failed then exit 1
