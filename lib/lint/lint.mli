(** Determinism & instrumentation linter.

    A parse-only static-analysis pass (compiler-libs [Parse] +
    [Ast_iterator]) enforcing the coding discipline behind the engines'
    cross-hash-seed determinism guarantee:

    - [D1] no polymorphic [compare]/[Hashtbl.hash] in engine modules
      (lib/graph, lib/iso, lib/kws, lib/rpq, lib/scc, lib/sim). The
      [=]-family operators are flagged only as first-class values; infix
      applications (in practice scalar comparisons) pass — a documented
      approximation of a parse-only pass.
    - [D2] no [Hashtbl.iter]/[Hashtbl.fold]/[Hashtbl.to_seq*] anywhere
      in lib/: output-visible iteration must go through
      [Obs.sorted_bindings]; order-free sites carry
      [[@lint.allow "D2"]]. ([Digraph] adjacency walks are ascending and
      pass.)
    - [D3] no global [Random], [Sys.time], [Unix.gettimeofday] or
      [Unix.time] in lib/ outside lib/obs.
    - [D4] a top-level [apply_batch] (an engine's one update entry point)
      in a lib/ [inc_*.ml] is wrapped in [Obs.with_apply], and the file
      calls the AFF-entry probe [Obs.aff_enter ~rule] at least once; the
      storage entry points of the graph ([compact], [add_edge],
      [remove_edge]) and the journal carry at least one [Obs] probe.
    - [D5] every lib/ [.ml] has a sibling [.mli].
    - [D6] in lib/, no string literal as the name argument of
      [Obs.add]/[incr]/[counter]/[set_gauge]/[gauge]/[observe]/
      [observe_time]/[histogram]: the names live in [Obs.K]. Span names
      are exempt.

    Suppression: [(expr [@lint.allow "RULE"])] for a subtree,
    [[@@lint.allow "RULE"]] on a binding, [[@@@lint.allow "RULE"]] for
    the rest of the file; all suppressions are counted. *)

type severity = Error | Warning

type diagnostic = {
  rule : string;
  file : string;  (** repo-relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  severity : severity;
  message : string;
}

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** [file:line:col: [rule/severity] message] — one line per finding. *)

val lint_source : path:string -> string -> diagnostic list * int
(** Lint one implementation given its repo-relative [path] (which
    decides rule applicability) and source text. Returns the sorted
    diagnostics and the number of suppressed findings. A file that does
    not parse yields a single ["syntax"] diagnostic. *)

val scan_files : root:string -> string list
(** All [.ml]/[.mli] files under [root]'s bench/, bin/, lib/ and test/
    directories, repo-relative, sorted; [_build] and dotfiles skipped. *)

type result = {
  diagnostics : diagnostic list;
  suppressed : int;
  files_scanned : int;
}

val run : root:string -> result
(** Lint the whole tree rooted at [root]: every implementation and
    interface, then the D5 filesystem check. *)

val diagnostics_of_json :
  Ig_obs.Json.t -> (diagnostic list, string) Stdlib.result
(** Read the ["diagnostics"] array of a report object. *)

val report_schema_version : int
(** [4]. *)

val report_to_json : result -> Ig_obs.Json.t
(** Machine-readable report:
    [{tool; schema_version; files_scanned; suppressed; diagnostics}]. *)

val validate : Ig_obs.Json.t -> (int * int, string) Stdlib.result
(** Structural check of a lint report (bench/validate.exe); accepts
    only schema v4 and returns [(schema_version, diagnostic count)]. *)
