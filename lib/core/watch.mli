(** Incremental re-checking for live documents — the engine behind
    [speccc watch].

    A {!session} pins one {!Pipeline.options} value to one evolving
    {!Document.t} and re-checks only what an edit actually changed:

    - sentence parses are cached per sentence text (the [nlp.parse]
      LRU), so unedited sentences are never re-parsed;
    - the explicit engine's arena blocks and solo winning frontiers
      are cached per hash-consed formula id
      ({!Speccc_synthesis.Bounded.session}), so after a one-sentence
      edit only that sentence's block is rebuilt and the joint game is
      warm-started next to its fixpoint;
    - localization subset verdicts are memoized across checks
      ({!Localize.memo}), so re-localizing after an edit re-checks
      only subsets that mention an edited formula or a proposition
      whose input/output class changed;
    - whole-document verdicts are kept in a content-addressed LRU, so
      reverting an edit is a cache hit.

    Every store is content-addressed (sentence text, hash-consed
    formula ids, canonical document key); {!check} additionally prunes
    entries referring to edited-away formulas, which bounds growth
    over a long session.  A localization verdict also depends on the
    document's assumptions and partition, which formula ids do not
    capture: {!check} drops the memo entries mentioning a formula with
    a proposition whose input/output class changed, and all of them
    when the assumptions changed or one of their propositions changed
    class.
    The invariant the test-suite pins: a {!check} after any edit
    sequence is {e bit-identical} (verdict, witnesses, localization —
    see {!fingerprint}) to {!check_cold} on the same document.

    A check is one {!Pipeline.run_document} call handed the session's
    parse cache and engine session, then, for an [Inconsistent]
    verdict, {!Refine.localize} with the same engine session and the
    session's memo: the pipeline owns translation, time abstraction,
    partitioning, the engine ladder with its lint step, [recover] and
    [certify], and {!Refine} owns stage 3.
    Semantic analysis is document-global, so translation beyond the
    parse, time abstraction and partitioning are recomputed per check
    — they are linear-time and far off the critical path.

    Sessions with governed options ([fuel]/[deadline]/[cancel]/
    [skip_engines]/[snapshot], or memory pressure) make the same call
    without any session cache: a cached solo frontier costs no fuel,
    and fuel charged against a budget must not depend on what earlier
    checks solved. *)

type session

type reuse = {
  verdict_cached : bool;
      (** the whole check was answered from the document-verdict LRU *)
  parse_hits : int;     (** sentences whose parse was reused *)
  blocks_reused : int;  (** arena blocks reused by the explicit engine *)
  solo_reused : int;    (** solo frontiers reused by the explicit engine *)
  invalidated : int;
      (** localization-memo entries dropped after the edit: those of
          edited-away formulas and those an input/output class or
          assumption change made stale (engine blocks for edited-away
          formulas are pruned alongside) *)
}
(** What one {!check} reused from — and invalidated in — the session. *)

type checked = {
  outcome : Pipeline.outcome;
  localization : Localize.result option;
      (** culprit/partner analysis, present when the verdict is
          [Inconsistent]; indices are 0-based into
          [outcome.document], the checked items *)
  culprit_id : string option;   (** [localization.culprit] as a document id *)
  partner_ids : string list;    (** [localization.partners] as document ids *)
  wall_s : float;               (** wall time of this check *)
  reuse : reuse;
  seq : int;                    (** 1-based check counter within the session *)
}

type counters = {
  checks : int;
  verdict_hits : int;
  engine : Speccc_synthesis.Bounded.session_stats;
  localize_entries : int;   (** live localization-memo entries *)
  invalidated_total : int;  (** memo entries pruned over the session *)
}
(** Cumulative session counters, as printed by [speccc watch --stats]. *)

val create : ?options:Pipeline.options -> Document.t -> session
(** A fresh session over a document.  [options] (default
    {!Pipeline.default_options}) are fixed for the session's lifetime
    — changing them requires a new session, which is what makes the
    cached verdicts sound. *)

val document : session -> Document.t

val set_document : session -> Document.t -> unit
(** Replace the document wholesale (the file-watching CLI uses this on
    re-read); caches carry over and unchanged sentences still hit. *)

val edit : session -> id:string -> text:string -> (unit, string) result
(** Replace the text of the requirement named [id].  [Error] when no
    such requirement exists; the document is unchanged. *)

val insert :
  ?at:int -> session -> id:string -> text:string -> (unit, string) result
(** Insert a new requirement at 0-based position [at] (default:
    append; clamped to the document).  [Error] on a duplicate id. *)

val delete : session -> id:string -> (unit, string) result
(** Remove the requirement named [id]. *)

val check : session -> checked
(** Re-check the current document, reusing session state as described
    above.  Without [recover], raises {!Speccc_nlp.Parser.Error} when a
    sentence does not parse, like the pipeline; session state is
    untouched, so the caller can fix the edit and re-check. *)

val check_cold : ?options:Pipeline.options -> Document.t -> checked
(** One check in a throwaway session: the cold-start oracle the
    incremental identity tests and benchmarks compare against. *)

val counters : session -> counters

val fingerprint : checked -> string
(** Canonical rendering of everything the check claims: verdict class,
    engine, controller (materialized transition-by-transition),
    counterstrategy, unsat core, the requirements a component refuted
    on, and localization.  Two checks of the same document under the
    same options must produce equal fingerprints, whatever session
    state they started from — the incremental-vs-cold identity the
    tests assert. *)
