type t =
  | Empty
  | Label of string
  | Concat of t * t
  | Alt of t * t
  | Star of t

let rec size = function
  | Empty -> 0
  | Label _ -> 1
  | Concat (a, b) | Alt (a, b) -> size a + size b
  | Star a -> size a

let labels q =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Empty -> ()
    | Label l ->
        if not (Hashtbl.mem seen l) then begin
          Hashtbl.replace seen l ();
          acc := l :: !acc
        end
    | Concat (a, b) | Alt (a, b) -> go a; go b
    | Star a -> go a
  in
  go q;
  List.rev !acc

(* Printing: + binds loosest, then ., then *. The parser nests both
   binary operators to the right, so a left operand of the same operator
   is printed at the tighter level (parenthesized) and a right one is
   not: the printed string parses back to the same tree. *)
let rec pp_prec prec ppf q =
  let paren p body =
    if prec > p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match q with
  | Empty -> Format.pp_print_string ppf "eps"
  | Label l -> Format.pp_print_string ppf l
  | Alt (a, b) ->
      paren 0 (fun ppf ->
          Format.fprintf ppf "%a + %a" (pp_prec 1) a (pp_prec 0) b)
  | Concat (a, b) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a . %a" (pp_prec 2) a (pp_prec 1) b)
  | Star a -> paren 2 (fun ppf -> Format.fprintf ppf "%a*" (pp_prec 3) a)

let pp ppf q = pp_prec 0 ppf q

let to_string q = Format.asprintf "%a" pp q

(* Lexer *)
type token = Tident of string | Teps | Tplus | Tdot | Tstar | Tlparen
           | Trparen | Teof

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

let lex s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let err = ref None in
  while !i < n && !err = None do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '+' then (toks := Tplus :: !toks; incr i)
    else if c = '.' then (toks := Tdot :: !toks; incr i)
    else if c = '*' then (toks := Tstar :: !toks; incr i)
    else if c = '(' then (toks := Tlparen :: !toks; incr i)
    else if c = ')' then (toks := Trparen :: !toks; incr i)
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      let id = String.sub s !i (!j - !i) in
      toks := (if id = "eps" then Teps else Tident id) :: !toks;
      i := !j
    end
    else err := Some (Printf.sprintf "unexpected character %C at offset %d" c !i)
  done;
  match !err with
  | Some e -> Error e
  | None -> Ok (List.rev (Teof :: !toks))

exception Parse_error of string

let parse s =
  match lex s with
  | Error e -> Error e
  | Ok toks ->
      let toks = ref toks in
      let peek () = match !toks with t :: _ -> t | [] -> Teof in
      let advance () = match !toks with _ :: r -> toks := r | [] -> () in
      let fail msg = raise (Parse_error msg) in
      (* alt := cat ('+' cat)* ; cat := rep ( '.'? rep )* ; rep := atom '*'* *)
      let rec alt () =
        let a = cat () in
        if peek () = Tplus then begin advance (); Alt (a, alt ()) end else a
      and cat () =
        let a = rep () in
        match peek () with
        | Tdot ->
            advance ();
            Concat (a, cat ())
        | Tident _ | Teps | Tlparen -> Concat (a, cat ())
        | _ -> a
      and rep () =
        let a = atom () in
        let rec stars a =
          if peek () = Tstar then begin advance (); stars (Star a) end else a
        in
        stars a
      and atom () =
        match peek () with
        | Tident l -> advance (); Label l
        | Teps -> advance (); Empty
        | Tlparen ->
            advance ();
            let a = alt () in
            if peek () <> Trparen then fail "expected ')'";
            advance ();
            a
        | Tplus -> fail "unexpected '+'"
        | Tdot -> fail "unexpected '.'"
        | Tstar -> fail "unexpected '*'"
        | Trparen -> fail "unexpected ')'"
        | Teof -> fail "unexpected end of input"
      in
      (try
         let q = alt () in
         if peek () <> Teof then Error "trailing input"
         else Ok q
       with Parse_error e -> Error e)

let parse_exn s =
  match parse s with
  | Ok q -> q
  | Error e -> invalid_arg ("Regex.parse_exn: " ^ e)

(* Brzozowski-derivative matching oracle. [None] encodes the empty
   language. *)
let rec nullable = function
  | Empty -> true
  | Label _ -> false
  | Concat (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Star _ -> true

let concat_opt a b =
  match a with None -> None | Some a -> Some (Concat (a, b))

let alt_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Alt (a, b))

let rec deriv c = function
  | Empty -> None
  | Label l -> if l = c then Some Empty else None
  | Alt (a, b) -> alt_opt (deriv c a) (deriv c b)
  | Concat (a, b) ->
      let left = concat_opt (deriv c a) b in
      if nullable a then alt_opt left (deriv c b) else left
  | Star a as s -> concat_opt (deriv c a) s

let matches q w =
  let rec go q = function
    | [] -> nullable q
    | c :: w -> ( match deriv c q with None -> false | Some q' -> go q' w)
  in
  go q w
