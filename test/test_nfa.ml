(* Tests for the regex AST/parser and the Glushkov NFA construction,
   cross-validated against the Brzozowski-derivative oracle. *)

open Ig_nfa
module R = Regex

let check = Alcotest.check

(* ---- parser ------------------------------------------------------------- *)

let parses s expected () =
  match R.parse s with
  | Error e -> Alcotest.failf "parse %S failed: %s" s e
  | Ok q -> check Alcotest.string "ast" expected (R.to_string q)

let rejects s () =
  match R.parse s with
  | Error _ -> ()
  | Ok q -> Alcotest.failf "parse %S unexpectedly gave %s" s (R.to_string q)

let test_roundtrip () =
  List.iter
    (fun s ->
      let q = R.parse_exn s in
      let q' = R.parse_exn (R.to_string q) in
      check Alcotest.string ("roundtrip " ^ s) (R.to_string q) (R.to_string q'))
    [
      "a";
      "eps";
      "a . b . c";
      "a + b + c";
      "(a + b)* . c";
      "c . (b . a + c)* . c";
      "a**";
      "a b c" (* juxtaposition concat *);
    ]

let test_precedence () =
  (* * binds tighter than ., which binds tighter than +. *)
  let q = R.parse_exn "a + b . c*" in
  check Alcotest.string "prec" "a + b . c*" (R.to_string q);
  match q with
  | R.Alt (R.Label "a", R.Concat (R.Label "b", R.Star (R.Label "c"))) -> ()
  | _ -> Alcotest.fail "wrong shape"

let test_size_labels () =
  let q = R.parse_exn "c . (b . a + c)* . c" in
  check Alcotest.int "size" 5 (R.size q);
  check Alcotest.(list string) "labels" [ "c"; "b"; "a" ] (R.labels q);
  check Alcotest.int "eps size" 0 (R.size R.Empty)

let test_matches_oracle () =
  let q = R.parse_exn "c . (b . a + c)* . c" in
  let yes w = check Alcotest.bool (String.concat "" w) true (R.matches q w) in
  let no w = check Alcotest.bool (String.concat "" w) false (R.matches q w) in
  yes [ "c"; "c" ];
  yes [ "c"; "b"; "a"; "c" ];
  yes [ "c"; "c"; "c" ];
  yes [ "c"; "b"; "a"; "c"; "b"; "a"; "c" ];
  no [ "c" ];
  no [ "c"; "b"; "c" ];
  no [];
  no [ "b"; "a" ]

let test_eps () =
  let q = R.parse_exn "eps" in
  check Alcotest.bool "empty word" true (R.matches q []);
  check Alcotest.bool "nonempty" false (R.matches q [ "a" ])

(* ---- Glushkov NFA --------------------------------------------------------- *)

let compile_str s =
  let it = Ig_graph.Interner.create () in
  let q = R.parse_exn s in
  (it, q, Nfa.compile it q)

let accepts it a word =
  Nfa.accepts a (List.map (fun l -> Ig_graph.Interner.intern it l) word)

let test_nfa_basic () =
  let it, _, a = compile_str "a . b" in
  check Alcotest.int "states" 3 (Nfa.n_states a);
  check Alcotest.bool "ab" true (accepts it a [ "a"; "b" ]);
  check Alcotest.bool "a" false (accepts it a [ "a" ]);
  check Alcotest.bool "nullable" false (Nfa.nullable a)

let test_nfa_star_nullable () =
  let it, _, a = compile_str "a*" in
  check Alcotest.bool "nullable" true (Nfa.nullable a);
  check Alcotest.bool "eps" true (accepts it a []);
  check Alcotest.bool "aaa" true (accepts it a [ "a"; "a"; "a" ]);
  check Alcotest.bool "b" false (accepts it a [ "b" ])

let test_nfa_prev_inverts_next () =
  let it, _, a = compile_str "c . (b . a + c)* . c" in
  let syms = List.map (Ig_graph.Interner.intern it) [ "a"; "b"; "c" ] in
  for s = 0 to Nfa.n_states a - 1 do
    List.iter
      (fun sym ->
        List.iter
          (fun s' ->
            check Alcotest.bool "prev contains" true
              (List.mem s (Nfa.prev a s' sym)))
          (Nfa.next a s sym))
      syms
  done;
  (* And nothing spurious. *)
  for s' = 0 to Nfa.n_states a - 1 do
    List.iter
      (fun sym ->
        List.iter
          (fun s ->
            check Alcotest.bool "next contains" true
              (List.mem s' (Nfa.next a s sym)))
          (Nfa.prev a s' sym))
      syms
  done

(* Random regexes over {a,b}; NFA must agree with the derivative oracle. *)
let gen_regex =
  QCheck.Gen.(
    sized_size (int_bound 6) @@ fix (fun self n ->
        if n <= 0 then
          oneof [ return R.Empty; map (fun c -> R.Label c) (oneofl [ "a"; "b" ]) ]
        else
          frequency
            [
              (2, map (fun c -> R.Label c) (oneofl [ "a"; "b" ]));
              (2, map2 (fun x y -> R.Concat (x, y)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun x y -> R.Alt (x, y)) (self (n / 2)) (self (n / 2)));
              (1, map (fun x -> R.Star x) (self (n - 1)));
            ]))

let arb_regex = QCheck.make ~print:R.to_string gen_regex

let prop_nfa_matches_oracle =
  QCheck.Test.make ~name:"Glushkov NFA == derivative oracle" ~count:500
    QCheck.(
      pair arb_regex (list_of_size Gen.(int_bound 6) (oneofl [ "a"; "b" ])))
    (fun (q, w) ->
      let it = Ig_graph.Interner.create () in
      let a = Nfa.compile it q in
      let syms = List.map (Ig_graph.Interner.intern it) w in
      Nfa.accepts a syms = R.matches q w)

(* The printer is exact: it parses back to the very same tree, so it
   denotes the same language and keeps the parser's nesting. *)
let prop_printer_parses_back =
  QCheck.Test.make ~name:"to_string parses back to same language" ~count:300
    arb_regex
    (fun q -> R.parse_exn (R.to_string q) = q)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_nfa"
    [
      ( "parser",
        [
          Alcotest.test_case "simple label" `Quick (parses "a" "a");
          Alcotest.test_case "concat dot" `Quick (parses "a.b" "a . b");
          Alcotest.test_case "juxtaposition" `Quick (parses "a b" "a . b");
          Alcotest.test_case "alt" `Quick (parses "a+b" "a + b");
          Alcotest.test_case "star" `Quick (parses "a*" "a*");
          Alcotest.test_case "grouping" `Quick (parses "(a+b).c" "(a + b) . c");
          Alcotest.test_case "concat nests right" `Quick
            (parses "a . b . c" "a . b . c");
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "reject dangling star" `Quick (rejects "*a");
          Alcotest.test_case "reject empty" `Quick (rejects "");
          Alcotest.test_case "reject unbalanced" `Quick (rejects "(a");
          Alcotest.test_case "reject bad char" `Quick (rejects "a & b");
          Alcotest.test_case "reject trailing plus" `Quick (rejects "a +");
        ] );
      ( "regex",
        [
          Alcotest.test_case "size & labels" `Quick test_size_labels;
          Alcotest.test_case "paper query words" `Quick test_matches_oracle;
          Alcotest.test_case "eps" `Quick test_eps;
        ] );
      ( "nfa",
        Alcotest.test_case "basic" `Quick test_nfa_basic
        :: Alcotest.test_case "star nullable" `Quick test_nfa_star_nullable
        :: Alcotest.test_case "prev inverts next" `Quick
             test_nfa_prev_inverts_next
        :: qsuite [ prop_nfa_matches_oracle; prop_printer_parses_back ] );
    ]
