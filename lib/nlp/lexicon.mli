(** Part-of-speech lexicon for the structured English subset
    (Sec. IV-B).

    Closed word classes (modals, subordinators, modifiers,
    conjunctions, determiners, copulas, prepositions, negations) are
    fixed by the paper's grammar.  Open classes (nouns, verbs,
    adjectives, adverbs) hold the vocabulary of the three case
    studies — the analogue of feeding the Stanford parser a domain
    model. *)

type part_of_speech =
  | Noun
  | Verb
  | Adjective
  | Adverb
  | Modal
  | Subordinator
  | Modifier        (** globally / always / sometimes / eventually *)
  | Conjunction     (** and / or *)
  | Determiner
  | Copula          (** be / is / are / was / were / been / being *)
  | Preposition
  | Negation        (** not / never / no *)
  | Number of int
  | Unknown

(** There is one lexicon, built in: the closed classes and the
    case-study vocabulary.  Nothing mutates it after construction, so
    every domain reads it without a lock. *)

val lookup : string -> part_of_speech list
(** All classes a (lowercase) word belongs to, most specific first;
    [[Unknown]] if the word is not known.  Numerals return
    [Number n]. *)

val has_class : string -> part_of_speech -> bool
