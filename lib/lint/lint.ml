(* Determinism & instrumentation linter.

   A parse-only static-analysis pass over the repo's OCaml sources,
   built on compiler-libs ([Parse] + [Ast_iterator]). The incremental
   engines promise byte-identical traces and output across Hashtbl hash
   seeds (OCAMLRUNPARAM=R); this pass mechanically enforces the coding
   discipline that promise rests on:

     D1  no polymorphic compare/hash in engine modules
     D2  no unordered hash-table iteration in lib/ unless routed
         through the sorted helpers or explicitly annotated
     D3  no ambient nondeterminism (global Random, wall clock) in lib/
         outside lib/obs's monotonic clock
     D4  the one update entry point of an inc_*.ml engine, apply_batch, is
         wrapped in Obs.with_apply, and the engine emits rule-tagged
         tracer events; the storage entry points of the graph
         (compaction, edge insertion and removal) and the durability
         layer carry at least one Obs probe
     D5  every lib/ module has an interface (.mli)
     D6  in lib/, the name argument of an Obs counter, gauge or histogram
         probe is not a string literal: every such name lives in Obs.K
         (span names are exempt)

   Being parse-only, D1 is a syntactic approximation: the operators
   [=]/[<>]/[==]/[!=] are flagged only when used as first-class values
   (e.g. [List.sort ( = )]); ordinary infix applications — in practice
   scalar comparisons — pass. Bare [compare] and [Hashtbl.hash] are
   always flagged in engine scope, applied or not.

   Suppression: [(expr [@lint.allow "D2"])] silences one rule for that
   subtree, [let f = ... [@@lint.allow "D2"]] for one binding, and a
   floating [[@@@lint.allow "D2"]] for the rest of the file. Every
   suppression is counted and surfaced in the report. *)

module Json = Ig_obs.Json
open Parsetree

type severity = Error | Warning

type diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  severity : severity;
  message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let severity_of_name = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | _ -> None

let compare_diagnostic a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let pp_diagnostic ppf d =
  Format.fprintf ppf "%s:%d:%d: [%s/%s] %s" d.file d.line d.col d.rule
    (severity_name d.severity) d.message

(* ---- rule scoping ------------------------------------------------------- *)

let engine_dirs =
  [ "lib/graph/"; "lib/iso/"; "lib/kws/"; "lib/rpq/"; "lib/scc/"; "lib/sim/" ]

let d1_applies path =
  List.exists (fun d -> String.starts_with ~prefix:d path) engine_dirs

let d2_applies path = String.starts_with ~prefix:"lib/" path

let d3_applies path =
  d2_applies path && not (String.starts_with ~prefix:"lib/obs/" path)

(* The filesystem half of D3: in lib/, only the durability layer may open
   files or walk directories — everything else must stay a pure in-memory
   computation (deliberate artifact writers annotate their sites). *)
let d3_fs_applies path =
  d2_applies path && not (String.starts_with ~prefix:"lib/journal/" path)

let d4_applies path =
  d2_applies path
  && String.starts_with ~prefix:"inc_" (Filename.basename path)
  && Filename.check_suffix path ".ml"

(* ---- AST helpers --------------------------------------------------------- *)

let rec flatten_longident acc = function
  | Longident.Lident s -> s :: acc
  | Longident.Ldot (l, s) -> flatten_longident (s :: acc) l
  | Longident.Lapply (_, l) -> flatten_longident acc l

let last2 comps =
  match List.rev comps with
  | x :: y :: _ -> Some (y, x)
  | _ -> None

let allow_rules_of_attrs attrs =
  List.concat_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "lint.allow" then []
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
            [ s ]
        | _ -> [])
    attrs

let eq_ops = [ "="; "<>"; "=="; "!=" ]

let is_eq_op_path comps =
  match comps with
  | [ op ] | [ "Stdlib"; op ] -> List.mem op eq_ops
  | _ -> false

(* Unfold the parameters of a [let f a b = ...] binding. *)
let rec strip_fun e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_fun body
  | Pexp_newtype (_, body) -> strip_fun body
  | _ -> e

(* Head of an application chain, looking through [f @@ x]. *)
let rec app_head e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "@@"; _ }; _ },
        (_, lhs) :: _ ) ->
      app_head lhs
  | Pexp_apply (f, _) -> app_head f
  | _ -> e

let d4_entry_points = [ "apply_batch" ]

(* The storage half of D4: the graph and the durability layer also
   promise deep instrumentation (DESIGN.md §8.6) — every effective edge
   mutation counts one unit of |ΔG|, compaction and WAL append/fsync
   latencies land in the registry as histograms, and commit, replay,
   undo and snapshot times land there as spans. These
   entry points must carry at least one Obs probe
   (observe/observe_time/with_span/incr/add/set_gauge/note_changed_input,
   or the enabled gate guarding a hand-rolled clock read) somewhere in
   their body. *)
let d4_storage_files =
  [
    ("lib/graph/digraph.ml", [ "compact"; "add_edge"; "remove_edge" ]);
    ("lib/journal/journal.ml", [ "append" ]);
    ( "lib/journal/store.ml",
      [ "init"; "attach"; "do_batch"; "undo"; "snapshot" ] );
  ]

let obs_probe_fns =
  [
    "observe"; "observe_time"; "with_span"; "with_apply";
    "incr"; "add"; "set_gauge"; "enabled"; "note_changed_input";
  ]

(* ---- the checker ---------------------------------------------------------- *)

type ctx = {
  path : string; (* repo-relative, '/'-separated *)
  mutable frames : string list list; (* nested [@lint.allow] scopes *)
  mutable file_allows : string list; (* floating [@@@lint.allow] *)
  mutable diags : diagnostic list;
  mutable suppressed : int;
  mutable has_rule_tagged_aff : bool;
  mutable has_update_fn : bool;
}

let fresh_ctx path =
  {
    path;
    frames = [];
    file_allows = [];
    diags = [];
    suppressed = 0;
    has_rule_tagged_aff = false;
    has_update_fn = false;
  }

let allowed ctx rule =
  List.mem rule ctx.file_allows || List.exists (List.mem rule) ctx.frames

let emit ctx ~(loc : Location.t) rule severity message =
  if allowed ctx rule then ctx.suppressed <- ctx.suppressed + 1
  else begin
    let p = loc.loc_start in
    ctx.diags <-
      {
        rule;
        file = ctx.path;
        line = p.pos_lnum;
        col = p.pos_cnum - p.pos_bol;
        severity;
        message;
      }
      :: ctx.diags
  end

(* Digraph adjacency is not a target: every walk of it is ascending. *)
let d2_targets =
  [
    ("Hashtbl", "iter");
    ("Hashtbl", "fold");
    ("Hashtbl", "to_seq");
    ("Hashtbl", "to_seq_keys");
    ("Hashtbl", "to_seq_values");
  ]

let fs_open_fns =
  [
    "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen";
  ]

let fs_channel_fns =
  [
    "open_bin"; "open_text"; "open_gen";
    "with_open_bin"; "with_open_text"; "with_open_gen";
  ]

let fs_targets =
  [
    ("Sys", "readdir"); ("Sys", "remove"); ("Sys", "rename");
    ("Sys", "mkdir"); ("Sys", "rmdir"); ("Sys", "file_exists");
    ("Sys", "is_directory"); ("Sys", "command");
    ("Unix", "openfile"); ("Unix", "mkdir"); ("Unix", "unlink");
    ("Unix", "rename"); ("Unix", "opendir");
    ("Filename", "temp_file"); ("Filename", "open_temp_file");
  ]

let is_fs_ident comps =
  match comps with
  | [ f ] | [ "Stdlib"; f ] when List.mem f fs_open_fns -> true
  | _ -> (
      match last2 comps with
      | Some (("In_channel" | "Out_channel"), f) -> List.mem f fs_channel_fns
      | Some t -> List.mem t fs_targets
      | None -> false)

let check_ident ctx (loc : Location.t) lid =
  let comps = flatten_longident [] lid in
  if d1_applies ctx.path then begin
    (match comps with
    | [ "compare" ] | [ "Stdlib"; "compare" ] ->
        emit ctx ~loc "D1" Error
          "polymorphic compare in an engine module; use Int.compare or a \
           per-type comparator"
    | _ -> ());
    (match last2 comps with
    | Some ("Hashtbl", ("hash" | "seeded_hash")) ->
        emit ctx ~loc "D1" Error
          "polymorphic Hashtbl.hash in an engine module; use Int.hash or a \
           per-type hash"
    | _ -> ());
    if is_eq_op_path comps then
      emit ctx ~loc "D1" Error
        "polymorphic equality operator used as a first-class value in an \
         engine module"
  end;
  if d2_applies ctx.path then begin
    match last2 comps with
    | Some ((m, f) as t) when List.mem t d2_targets ->
        emit ctx ~loc "D2" Error
          (Printf.sprintf
             "%s.%s iterates in hash order; route output-visible iteration \
              through Obs.sorted_bindings, or \
              annotate an order-free site with [@lint.allow \"D2\"]"
             m f)
    | _ -> ()
  end;
  if d3_applies ctx.path then begin
    (match comps with
    | "Random" :: rest when (match rest with "State" :: _ -> false | _ -> true)
      ->
        emit ctx ~loc "D3" Error
          "global Random state in lib/; thread an explicit Random.State \
           through the workload instead"
    | _ -> ());
    match comps with
    | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
        emit ctx ~loc "D3" Error
          "wall-clock read in lib/; timing belongs to lib/obs's monotonic \
           clock"
    | _ -> ()
  end;
  if d3_fs_applies ctx.path && is_fs_ident comps then
    emit ctx ~loc "D3" Error
      "filesystem access in lib/; durable I/O belongs to lib/journal — \
       annotate a deliberate artifact writer with [@lint.allow \"D3\"]"

(* D6: a probe named by a literal is a name that only its call site
   knows; readers of the counter (reports, goldens, SLO configs) would
   repeat the string. *)
let d6_probe_fns =
  [
    "add"; "incr"; "counter"; "set_gauge"; "gauge"; "observe";
    "observe_time"; "histogram";
  ]

let check_d6 ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when d2_applies ctx.path -> (
      match
        ( last2 (flatten_longident [] txt),
          List.filter (fun (l, _) -> l = Asttypes.Nolabel) args )
      with
      | ( Some ("Obs", f),
          _
          :: ( _,
               {
                 pexp_desc = Pexp_constant (Pconst_string (name, _, _));
                 pexp_loc;
                 _;
               } )
          :: _ )
        when List.mem f d6_probe_fns ->
          emit ctx ~loc:pexp_loc "D6" Error
            (Printf.sprintf
               "Obs.%s names %S with a string literal; add the name to \
                Obs.K and use it there"
               f name)
      | _ -> ())
  | _ -> ()

let note_aff ctx e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match (app_head f).pexp_desc with
      | Pexp_ident { txt; _ }
        when (match List.rev (flatten_longident [] txt) with
             | "aff_enter" :: "Obs" :: _ -> true
             | _ -> false)
             && List.exists
                  (fun (l, _) -> l = Asttypes.Labelled "rule")
                  args ->
          ctx.has_rule_tagged_aff <- true
      | _ -> ())
  | _ -> ()

let expr_iter ctx (self : Ast_iterator.iterator) e =
  ctx.frames <- allow_rules_of_attrs e.pexp_attributes :: ctx.frames;
  note_aff ctx e;
  check_d6 ctx e;
  (match e.pexp_desc with
  | Pexp_ident { txt; _ } -> check_ident ctx e.pexp_loc txt
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when is_eq_op_path (flatten_longident [] txt) ->
      (* Applied (infix) equality is the sanctioned scalar case: visit the
         operands, skip the operator ident itself. *)
      List.iter (fun (_, a) -> self.expr self a) args
  | _ -> Ast_iterator.default_iterator.expr self e);
  ctx.frames <- List.tl ctx.frames

let check_d4_binding ctx vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ } when List.mem name d4_entry_points ->
      ctx.has_update_fn <- true;
      let head = app_head (strip_fun vb.pvb_expr) in
      let wrapped =
        match head.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match List.rev (flatten_longident [] txt) with
            | "with_apply" :: _ -> true
            | _ -> false)
        | _ -> false
      in
      if not wrapped then
        emit ctx ~loc:vb.pvb_loc "D4" Error
          (Printf.sprintf
             "%s is not wrapped in Obs.with_apply: per-update latency and \
              |CHANGED| accounting would miss it"
             name)
  | _ -> ()

let mentions_obs_probe expr =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match last2 (flatten_longident [] txt) with
              | Some ("Obs", f) when List.mem f obs_probe_fns ->
                  found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it expr;
  !found

let check_d4_storage_binding ctx entries vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ }
    when List.mem name entries && not (mentions_obs_probe vb.pvb_expr) ->
      emit ctx ~loc:vb.pvb_loc "D4" Error
        (Printf.sprintf
           "storage entry point %s carries no Obs probe: CSR/journal \
            latency and size accounting would miss it"
           name)
  | _ -> ()

let structure_item_iter ctx (self : Ast_iterator.iterator) si =
  match si.pstr_desc with
  | Pstr_attribute a ->
      ctx.file_allows <- allow_rules_of_attrs [ a ] @ ctx.file_allows
  | Pstr_value (_, vbs) ->
      let allows = List.concat_map (fun vb -> allow_rules_of_attrs vb.pvb_attributes) vbs in
      ctx.frames <- allows :: ctx.frames;
      if d4_applies ctx.path then List.iter (check_d4_binding ctx) vbs;
      (match List.assoc_opt ctx.path d4_storage_files with
      | Some entries ->
          List.iter (check_d4_storage_binding ctx entries) vbs
      | None -> ());
      Ast_iterator.default_iterator.structure_item self si;
      ctx.frames <- List.tl ctx.frames
  | _ -> Ast_iterator.default_iterator.structure_item self si

let finish_d4 ctx =
  if d4_applies ctx.path && ctx.has_update_fn && not ctx.has_rule_tagged_aff
  then
    emit ctx
      ~loc:
        {
          Location.loc_start =
            { pos_fname = ctx.path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
          loc_end =
            { pos_fname = ctx.path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
          loc_ghost = false;
        }
      "D4" Error
      "engine file has update entry points but no rule-tagged \
       Obs.aff_enter: AFF provenance would be empty"

let syntax_diag ctx exn lexbuf =
  let loc =
    match exn with
    | Syntaxerr.Error err -> Syntaxerr.location_of_error err
    | _ -> Location.curr lexbuf
  in
  let p = loc.Location.loc_start in
  ctx.diags <-
    {
      rule = "syntax";
      file = ctx.path;
      line = p.pos_lnum;
      col = p.pos_cnum - p.pos_bol;
      severity = Error;
      message = "file does not parse: " ^ Printexc.to_string exn;
    }
    :: ctx.diags

let lint_source ~path source =
  let ctx = fresh_ctx path in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  (try
     let str = Parse.implementation lexbuf in
     let it =
       {
         Ast_iterator.default_iterator with
         expr = expr_iter ctx;
         structure_item = structure_item_iter ctx;
       }
     in
     it.structure it str;
     finish_d4 ctx
   with exn -> syntax_diag ctx exn lexbuf);
  (List.sort compare_diagnostic ctx.diags, ctx.suppressed)

(* Interfaces carry no expression rules; parsing them still catches
   syntax drift and keeps the file count honest. *)
let lint_interface ~path source =
  let ctx = fresh_ctx path in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  (try ignore (Parse.interface lexbuf)
   with exn -> syntax_diag ctx exn lexbuf);
  List.sort compare_diagnostic ctx.diags

(* ---- tree scan ------------------------------------------------------------ *)

(* The linter's own job is walking the source tree; exempt the scan below
   from the lib/-filesystem half of D3. *)
[@@@lint.allow "D3"]

let scanned_roots = [ "bench"; "bin"; "lib"; "test" ]

let rec scan_tree root rel acc =
  let entries = Sys.readdir (Filename.concat root rel) in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if name = "" || name.[0] = '.' || name = "_build" then acc
      else
        let rel' = rel ^ "/" ^ name in
        let full = Filename.concat root rel' in
        if Sys.is_directory full then scan_tree root rel' acc
        else if
          Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
        then rel' :: acc
        else acc)
    acc entries

let scan_files ~root =
  List.sort String.compare
    (List.fold_left
       (fun acc d ->
         let full = Filename.concat root d in
         if Sys.file_exists full && Sys.is_directory full then
           scan_tree root d acc
         else acc)
       [] scanned_roots)

let read_file path = In_channel.with_open_bin path In_channel.input_all

type result = {
  diagnostics : diagnostic list;
  suppressed : int;
  files_scanned : int;
}

let run ~root =
  let files = scan_files ~root in
  let diags = ref [] and supp = ref 0 in
  List.iter
    (fun rel ->
      let src = read_file (Filename.concat root rel) in
      if Filename.check_suffix rel ".ml" then begin
        let ds, s = lint_source ~path:rel src in
        diags := ds @ !diags;
        supp := !supp + s
      end
      else diags := lint_interface ~path:rel src @ !diags)
    files;
  (* D5: every lib/ implementation carries an interface. *)
  List.iter
    (fun ml ->
      if
        Filename.check_suffix ml ".ml"
        && String.starts_with ~prefix:"lib/" ml
        && not (List.mem (ml ^ "i") files)
      then
        diags :=
          {
            rule = "D5";
            file = ml;
            line = 1;
            col = 0;
            severity = Warning;
            message = "lib/ module has no interface (.mli)";
          }
          :: !diags)
    files;
  {
    diagnostics = List.sort compare_diagnostic !diags;
    suppressed = !supp;
    files_scanned = List.length files;
  }

(* ---- the json report ------------------------------------------------------- *)

let diagnostic_to_json d =
  Json.Obj
    [
      ("rule", Json.Str d.rule);
      ("file", Json.Str d.file);
      ("line", Json.Int d.line);
      ("col", Json.Int d.col);
      ("severity", Json.Str (severity_name d.severity));
      ("message", Json.Str d.message);
    ]

let diagnostic_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str_opt in
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  match
    (str "rule", str "file", int "line", int "col", str "severity",
     str "message")
  with
  | Some rule, Some file, Some line, Some col, Some sev, Some message -> (
      match severity_of_name sev with
      | Some severity -> Ok { rule; file; line; col; severity; message }
      | None -> Stdlib.Error (Printf.sprintf "unknown severity %S" sev))
  | _ -> Stdlib.Error "diagnostic missing rule/file/line/col/severity/message"

let diagnostics_of_json j =
  match Option.bind (Json.member "diagnostics" j) Json.to_list_opt with
  | None -> Stdlib.Error "missing or ill-typed \"diagnostics\" array"
  | Some items ->
      List.fold_left
        (fun acc item ->
          match acc with
          | Stdlib.Error _ as e -> e
          | Ok ds -> (
              match diagnostic_of_json item with
              | Ok d -> Ok (d :: ds)
              | Stdlib.Error _ as e -> e))
        (Ok []) items
      |> Result.map List.rev

let report_schema_version = 4

let report_to_json r =
  Json.Obj
    [
      ("tool", Json.Str "incgraph-lint");
      ("schema_version", Json.Int report_schema_version);
      ("files_scanned", Json.Int r.files_scanned);
      ("suppressed", Json.Int r.suppressed);
      ("diagnostics", Json.Arr (List.map diagnostic_to_json r.diagnostics));
    ]

(* Structural check for consumers (bench/validate.exe): schema v4 only;
   returns (version, diagnostic count). *)
let validate json =
  let int k = Option.bind (Json.member k json) Json.to_int_opt in
  match Option.bind (Json.member "tool" json) Json.to_str_opt with
  | Some t when t <> "incgraph-lint" ->
      Stdlib.Error (Printf.sprintf "tool %S, expected \"incgraph-lint\"" t)
  | _ -> (
      match int "schema_version" with
      | None -> Stdlib.Error "missing integer \"schema_version\""
      | Some v when v <> report_schema_version ->
          Stdlib.Error
            (Printf.sprintf "schema_version %d, expected %d" v
               report_schema_version)
      | Some v -> (
          match
            List.find_opt
              (fun k -> int k = None)
              [ "files_scanned"; "suppressed" ]
          with
          | Some k -> Stdlib.Error (Printf.sprintf "missing integer %S" k)
          | None -> (
              match diagnostics_of_json json with
              | Ok ds -> Ok (v, List.length ds)
              | Stdlib.Error _ as e -> e)))
