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
      emits at least one rule-tagged [Tracer.aff_enter].
    - [D5] every lib/ [.ml] has a sibling [.mli].

    Suppression: [(expr [@lint.allow "RULE"])] for a subtree,
    [[@@lint.allow "RULE"]] on a binding, [[@@@lint.allow "RULE"]] for
    the rest of the file; all suppressions are counted. A committed
    baseline file can additionally accept specific diagnostics. *)

type severity = Error | Warning

type diagnostic = {
  rule : string;
  file : string;  (** repo-relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  severity : severity;
  message : string;
}

val severity_name : severity -> string
val severity_of_name : string -> severity option

val compare_diagnostic : diagnostic -> diagnostic -> int
(** Order by (file, line, col, rule). *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** [file:line:col: [rule/severity] message] — one line per finding. *)

val d1_applies : string -> bool
val d2_applies : string -> bool
val d3_applies : string -> bool
val d4_applies : string -> bool
(** Which rules fire for a given repo-relative path. *)

val lint_source : path:string -> string -> diagnostic list * int
(** Lint one implementation given its repo-relative [path] (which
    decides rule applicability) and source text. Returns the sorted
    diagnostics and the number of suppressed findings. A file that does
    not parse yields a single ["syntax"] diagnostic. *)

val lint_interface : path:string -> string -> diagnostic list
(** Parse-check an [.mli] (no expression rules). *)

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

val diagnostic_to_json : diagnostic -> Ig_obs.Json.t
val diagnostic_of_json : Ig_obs.Json.t -> (diagnostic, string) Stdlib.result

val diagnostics_of_json :
  Ig_obs.Json.t -> (diagnostic list, string) Stdlib.result
(** Read the ["diagnostics"] array of a report or baseline object. *)

val baseline_to_json : diagnostic list -> Ig_obs.Json.t

val load_baseline : string -> (diagnostic list, string) Stdlib.result
(** Parse a baseline file from disk. *)

val subtract_baseline :
  baseline:diagnostic list ->
  diagnostic list ->
  diagnostic list * int * diagnostic list
(** [(kept, matched, stale)]: drop findings accepted by the baseline,
    matching on every field except severity. [stale] is the baseline
    entries that no longer match any finding — dead entries that would
    silently re-accept a future regression, so the CLI errors on them
    unless [--prune-baseline] rewrites the file. *)

val report_schema_version : int
(** [3]. *)

val report_to_json : ?baselined:int -> ?stale:int -> result -> Ig_obs.Json.t
(** Machine-readable report:
    [{tool; schema_version; files_scanned; suppressed; baselined;
    stale_baseline; diagnostics}]. *)

val validate : Ig_obs.Json.t -> (int * int, string) Stdlib.result
(** Structural check of a lint report (bench/validate.exe); accepts
    only schema v3 and returns [(schema_version, diagnostic count)]. *)
