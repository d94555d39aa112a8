(** Recursive-descent parser for the structured English grammar
    (Sec. IV-B), producing {!Syntax.sentence} trees and replacing the
    role the Stanford parser plays in the paper's prototype.

    Segmentation rules (derived from the appendix corpus):
    - a segment starting with a subordinator (if, when, whenever, once,
      while, after, before, until) is a subordinate clause group;
    - a comma followed by a conjunction continues the current clause
      group with a further clause;
    - a comma followed by anything else closes the current segment;
    - "until"/"before" occurring mid-segment opens a trailing
      subordinate clause even without a comma;
    - "next" is treated as a clause modifier (its use throughout the
      appendix), not as a segment opener. *)

exception Error of string

type diagnostic = {
  diag_message : string;
  diag_line : int;      (** 1-based source line; 0 when unknown *)
  diag_start : int;     (** 0-based char offset of the offending span *)
  diag_end : int;       (** exclusive end of the span *)
}
(** Where and why a sentence fell outside the grammar.  The span
    points at the offending word(s) in the sentence text when the
    failure names any, and covers the whole sentence otherwise. *)

val sentence : string -> Syntax.sentence
(** Parse one requirement sentence.  Raises {!Error} with a diagnostic
    when the text falls outside the grammar. *)

val sentence_result :
  ?line:int -> string -> (Syntax.sentence, diagnostic) result
(** Non-raising {!sentence}: a malformed requirement becomes an
    [Error diagnostic] carrying the source line (as passed by the
    caller, who knows the document layout) and the column span of the
    offending words — the error-recovery entry point document-level
    callers use to keep going with the remaining requirements. *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** ["line L, columns A-B: message"] (columns are 1-based and
    inclusive; the line part is omitted when unknown). *)

val sentence_opt : string -> Syntax.sentence option

val specification : string -> Syntax.sentence list
(** Parse a multi-sentence specification (split on periods). *)
