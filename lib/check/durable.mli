(** Undo-aware durability fuzzing: interleave do / undo / crash-recover.

    Drives one {!Scenarios.t} engine through a journaled session directory
    ({!Ig_journal.Store}), rolling a seeded die each step:

    - {b do} — journal and apply one stream update, then run the full
      differential {!Oracle.check};
    - {b do→undo pair} — apply one update and immediately roll it back,
      asserting the post-undo graph {e and} answer digests are
      byte-identical to the pre-do state;
    - {b undo k} — roll back the last [k ∈ 1..3] batches (undo of an undo
      batch is redo), then {!Oracle.check};
    - {b snapshot} — write a certificate snapshot at the current tip;
    - {b clean crash} — drop the engine, rebuild it from scratch via
      {!Scenarios.t.make} and replay the whole journal, then
      {!Oracle.check};
    - {b torn crash} — journal a batch {e without} applying it, truncate
      the journal mid-record, and recover: the torn tail must be cleanly
      dropped (never a half-applied delta) and the oracle must agree with
      the recovered engine.

    Every action appends deterministic transcript lines through [emit]
    (full graph/answer/trace digests, no timestamps, sorted iteration
    only), so running the same seed under two [OCAMLRUNPARAM=R] hash seeds
    and diffing the transcripts asserts cross-seed byte-identity of the
    entire do/undo/recover history — this is what the [@undo-fuzz] alias
    does. *)

val run :
  scenario:Scenarios.t ->
  dir:string ->
  steps:int ->
  seed:int ->
  ?emit:(string -> unit) ->
  unit ->
  (int, string) result
(** [run ~scenario ~dir ~steps ~seed ()] fuzzes [steps] actions inside the
    session directory [dir] (created if needed; stale journal/snapshot
    files from a previous run are removed first). Returns [Ok steps], or
    [Error reason] on the first oracle disagreement, digest divergence or
    recovery failure. *)

val client_of : Oracle.t -> Ig_journal.Store.client
(** A store client over an oracle: journal ops re-enter the engine as
    unit updates, and snapshots carry the engine's canonical answer digest
    and its certificate dump ([cert_snapshot]). *)
