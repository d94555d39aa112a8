(** English inflection analysis: map surface verb forms back to their
    lemma (the translation removes tense information, Sec. IV-C), and
    recognize participles.

    Irregular verbs of the case-study vocabulary are tabulated;
    regular forms are handled by suffix stripping with the usual
    spelling rules (doubling, final-e, y→ied). *)

type verb_form =
  | Base                (** enter *)
  | Third_singular      (** enters *)
  | Past                (** entered *)
  | Past_participle     (** entered, lost *)
  | Present_participle  (** entering *)

val analyze_verb : string -> (string * verb_form) option
(** [analyze_verb word] = [Some (lemma, form)] when the word is
    (an inflection of) a known verb. *)

val lemma : string -> string
(** Verb lemma if recognizable, otherwise the word itself. *)
