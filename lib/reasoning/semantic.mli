(** Algorithm 1 of the paper: semantic reasoning over the
    ⟨subject, dependent⟩ relations extracted by the parser.

    Antonym candidates (adjectives/adverbs) grouped under the same
    subject are colored: {e blue} when a contrasting partner was found
    in the same dependent set by consulting the antonym dictionary,
    {e green} otherwise.  Blue pairs drive proposition reduction: the
    negative member is replaced by the negation of the positive member,
    so [unavailable_pulse_wave] never becomes a separate proposition
    from [available_pulse_wave]. *)

type color = Green | Blue

type colored_word = {
  word : string;
  color : color;
  antonyms_found : string list;
      (** partners discovered in the same dependent set *)
}

type subject_analysis = {
  subject : string;
  words : colored_word list;
}

val analyze :
  Speccc_nlp.Dependency.relation list -> subject_analysis list
(** Algorithm 1: for every subject with more than one dependent,
    consult the dictionary and color the dependents; single-dependent
    subjects keep their word green (the paper skips them: "we cannot
    use the derived antonyms for the corresponding proposition
    reduction"). *)

type literal = {
  prop : string;       (** proposition name *)
  positive : bool;     (** sign contributed by the word's polarity *)
}

val literal_for :
  subject_analysis list -> subject:string -> word:string ->
  literal
(** Proposition for an adjective/adverb [word] attached to [subject]:
    absorbing words abbreviate to the bare subject and contribute only
    a sign; blue (pair-discovered) words collapse onto their positive
    member; green non-absorbing words keep the [word_subject] form. *)

val reduction_count :
  Speccc_nlp.Dependency.relation list -> int * int
(** [(props_without_reasoning, props_with_reasoning)] over all
    subject/word pairs — the quantity the Sec. IV-D example discusses
    (two propositions for available/unavailable collapse into one). *)
