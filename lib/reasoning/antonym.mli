(** The user-specified antonym dictionary of Sec. IV-D.

    Each entry relates an adjective/adverb to its canonical pair and
    fixes which member is the positive form (the paper picks the
    positive form "randomly"; we make the choice deterministic and
    user-visible).  The [absorb] flag reproduces the paper's
    abbreviation convention: an absorbing word vanishes into its
    subject (["available pulse_wave" ↦ pulse_wave],
    ["low air_ok_signal" ↦ ¬air_ok_signal]), while a non-absorbing
    word keeps the full [word_subject] proposition
    (["operational cara" ↦ operational_cara]). *)

type polarity = Positive | Negative

type entry = {
  word : string;
  pair : string;        (** canonical pair name = its positive member *)
  polarity : polarity;
  absorb : bool;
}

(** There is one dictionary, built in for the case studies (the
    paper's "online lookup" is out of scope in a sealed environment;
    Algorithm 1's lookup step resolves against this table).  Nothing
    mutates it after construction, so every domain reads it without a
    lock. *)

val lookup : string -> entry option
val antonyms : string -> string list
(** All known words with the same pair but opposite polarity. *)

val is_negative : string -> bool
