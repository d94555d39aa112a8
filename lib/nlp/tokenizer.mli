(** Tokenization of requirement sentences.

    Words are lowercased; hyphens and underscores are kept inside
    words ([auto-control] is one token); commas and periods become
    punctuation tokens; everything else splits on whitespace. *)

type token =
  | Word of string
  | Comma
  | Period

val is_word_char : char -> bool
(** Characters that may appear inside a word token (letters, digits,
    [-], [_], [']).  Exposed so diagnostics can re-locate tokens in
    the original text with the same word-boundary rule. *)

val tokenize : string -> token list
(** Raises [Failure] on characters outside the structured subset. *)

val split_sentences : string -> string list
(** Split a multi-sentence specification text on periods, dropping
    blank segments. *)
