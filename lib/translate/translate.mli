(** Translation from structured-English syntax trees to LTL
    (Sec. IV-C), with the semantic reasoning of Sec. IV-D applied to
    proposition formation.

    Template summary (matching the appendix output):
    - every sentence is wrapped in the Universality pattern [□ _];
    - condition subclauses (if / when / whenever / once / while /
      after) nest as implications, leading ones outermost;
    - an [until] subclause [B] turns the main formula [A] into
      [¬B → (A W B)] (Req-49's template);
    - a [before] subclause [B] yields [¬B W A];
    - a clause's own formula is its subject/predicate proposition,
      wrapped by [X^t] for an ["in t seconds"] constraint, [♦] for an
      [eventually]-class modifier or a bare future modality
      (will/would), and [□] for always/globally;
    - ["next"] follows the appendix convention of contributing nothing
      ([next_as_x] switches to an [X] wrapper);
    - propositions are [verb_subject] for verbal predicates and the
      {!Speccc_reasoning.Semantic.literal_for} reduction for
      adjective/adverb complements. *)

type config = {
  lexicon : Speccc_nlp.Lexicon.t;
  dictionary : Speccc_reasoning.Antonym.t;
  next_as_x : bool;              (** default [false] (appendix style) *)
}

val default_config : unit -> config

type requirement = {
  text : string;                 (** original sentence *)
  tree : Speccc_nlp.Syntax.sentence;
  formula : Speccc_logic.Ltl.t;
}

type result = {
  requirements : requirement list;
  analyses : Speccc_reasoning.Semantic.subject_analysis list;
      (** Algorithm 1's coloring, for reporting *)
  relations : Speccc_nlp.Dependency.relation list;
}

type parse_cache
(** Bounded per-sentence parse memo (LRU, cache name ["nlp.parse"]),
    keyed by sentence text.  Parsing is the only per-sentence stage of
    the front-end — semantic reasoning is document-global and always
    re-runs — so reusing a tree can never change a translation.  Keys
    do not include the lexicon: keep one cache per lexicon (the watch
    session owns one), never share across configs. *)

val parse_cache : unit -> parse_cache

val specification : ?parse_cache:parse_cache -> config -> string list -> result
(** Translate a list of requirement sentences.  Semantic reasoning is
    performed over the whole specification first (antonym pairs are
    discovered across requirements), then each sentence is translated.
    Raises {!Speccc_nlp.Parser.Error} on ungrammatical input.
    [parse_cache] reuses parse trees for sentences already seen by the
    cache — translations are identical with or without it. *)

val specification_recover :
  ?parse_cache:parse_cache ->
  config ->
  (int * string) list ->
  result * int list * (int * Speccc_nlp.Parser.diagnostic) list
(** Error-recovering {!specification} over [(source_line, text)]
    pairs: ungrammatical sentences are dropped instead of aborting the
    whole document.  Returns the translation of the surviving
    sentences, the original 0-based indices they came from (so callers
    can map reports back to requirement identifiers), and one located
    diagnostic per rejected sentence.  Never raises on grammar
    errors.  [parse_cache] is read and filled as in {!specification},
    with successful parses only (a diagnostic carries its line). *)

val formula_of_sentence : config -> string -> Speccc_logic.Ltl.t
(** Convenience wrapper for a single sentence. *)
