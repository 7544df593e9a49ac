(* Malformed input: byte mutations of well-formed inputs fed to every reader
   of outside text. Each must return its result, or raise the one error its
   interface documents; any other exception fails the property. The
   mutations are seeded, so a run is reproducible; the whole suite takes
   well under a second. *)

module Io = Ig_graph.Io
module Regex = Ig_nfa.Regex
module Spec = Ig_check.Spec
module Slo = Ig_obs.Slo
module Json = Ig_obs.Json
module Snapshot = Ig_journal.Snapshot
module Report = Ig_obs.Report

(* One edit: overwrite, insert or delete the byte at a position, or cut the
   text there. Inserted bytes are either arbitrary or one of the
   characters the formats are built from, so that mutants often stay
   near-valid and reach past the first check. *)
let gen_edit =
  QCheck.Gen.(
    triple (int_bound 3) nat
      (oneof
         [
           map Char.chr (int_bound 255);
           oneofl
             (List.of_seq (String.to_seq " \n\t()*+.-09eps\"\\{}[]:,#=/"));
         ]))

let edit s (op, pos, c) =
  let n = String.length s in
  let i = if n = 0 then 0 else pos mod n in
  match op with
  | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
  | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | 2 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | _ -> String.sub s 0 i

let gen_mutant seeds =
  QCheck.Gen.(
    map2
      (List.fold_left edit)
      (oneofl seeds)
      (list_size (int_range 1 4) gen_edit))

let mutation_test name seeds read =
  QCheck.Test.make ~name ~count:500
    (QCheck.make ~print:String.escaped (gen_mutant seeds))
    (fun s ->
      read s;
      true)

let graph_text =
  "# incgraph v1: 4 nodes 5 edges\n\
   v 0 l1\n\
   v 1 l2\n\
   v 2 l1\n\
   v 7 l3\n\
   e 0 1\n\
   e 1 2\n\
   e 2 0\n\
   e 2 7\n\
   e 7 7\n"

(* Spec arguments are written one per line, so a mutation can also merge,
   split or empty them. *)
let spec cls s =
  ignore (Spec.of_args ~cls ~bound:2 ~args:(String.split_on_char '\n' s))

let pattern_args = [ "l1\nl2\nl3\n0-1\n1-2"; "l1\nl1\n0-1\n1-0" ]

let snapshot_json =
  let graph = Io.of_string graph_text in
  Json.to_string
    (Snapshot.to_json
       (Snapshot.of_state ~seq:3 ~graph ~answer_digest:"0123abcd"
          ~certs:[ ("comp", "v0 c0\nv1 c0\n"); ("ranks", "c0\n") ]))

(* A real report, written by
   bench/main.exe -e fig8a --scale 0.02 --points 1 --out bench_report_seed.json.
   It must decode, so that its mutants start from a valid report. *)
let bench_report =
  let s =
    In_channel.with_open_bin "bench_report_seed.json" In_channel.input_all
  in
  match Result.bind (Json.parse s) Report.of_json with
  | Ok _ -> s
  | Error e -> failwith ("bench_report_seed.json does not decode: " ^ e)

let tests =
  [
    mutation_test "Io.of_string" [ graph_text ] (fun s ->
        match Io.of_string s with _ -> () | exception Failure _ -> ());
    mutation_test "Regex.parse"
      [ "c . (b . a + c)* . c"; "l1 . l2* . l3"; "(eps + a)* b" ]
      (fun s -> ignore (Regex.parse s));
    mutation_test "Spec.of_args kws" [ "l1\nl2"; "k" ] (spec "kws");
    mutation_test "Spec.of_args rpq" [ "l1 . l2* . l3" ] (spec "rpq");
    mutation_test "Spec.of_args iso" pattern_args (spec "iso");
    mutation_test "Spec.of_args sim" pattern_args (spec "sim");
    mutation_test "Slo.of_config" [ Slo.example_config ] (fun s ->
        ignore (Slo.of_config s));
    mutation_test "Json.parse then Snapshot.validate" [ snapshot_json ]
      (fun s ->
        match Json.parse s with
        | Ok j -> ignore (Snapshot.validate j)
        | Error _ -> ());
    mutation_test "Json.parse then Report.of_json" [ bench_report ] (fun s ->
        match Json.parse s with
        | Ok j -> ignore (Report.of_json j)
        | Error _ -> ());
  ]

let () =
  Alcotest.run "malformed"
    [
      ( "byte mutation",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false
             ~rand:(Random.State.make [| 0x6d75 |]))
          tests );
    ]
