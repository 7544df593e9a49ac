(** Canonical answer forms: sorted, printed answer sets, so two answers are
    equal exactly when their strings are. {!Spec.make}'s oracles print
    answers this way; they are exposed so hand-rolled test oracles (e.g.
    deliberately buggy engines in mutation tests) and the benchmark driver
    print answers the same way. *)

val canon_nodes : int list -> string
val canon_pairs : (int * int) list -> string
val canon_comps : int list list -> string

val canon_mappings : Ig_iso.Pattern.t -> Ig_iso.Vf2.mapping list -> string
(** ISO's canonical answer form: the sorted match subgraphs (image nodes
    plus image edges). *)
