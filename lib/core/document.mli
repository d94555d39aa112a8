(** Requirement documents: the textual format the tool consumes.

    One requirement per line.  A line may start with an identifier
    followed by a colon, as in the CARA document the paper works from:

    {v
    # CARA working modes (comment)
    Req-08: If Air Ok signal remains low, auto control mode is
    Req-17.1: When auto control mode is running, eventually ...
    If the pump is lost, the alarm is triggered.
    v}

    Lines without an identifier get positional ones ([R1], [R2], ...);
    blank lines and [#] comments are skipped. *)

type item = {
  id : string;
  text : string;
  line : int;
      (** 1-based source line in the document file ({!parse} tracks
          blank and comment lines), or the 1-based position for
          documents assembled in memory — the anchor parse-error
          diagnostics report *)
}

type t = item list

val parse : string -> t
(** Parse document text. *)

val of_file : string -> t
(** Raises [Sys_error] when unreadable. *)

val of_texts : string list -> t
(** Positional identifiers. *)

val texts : t -> string list

val is_assumption : item -> bool
(** An item whose identifier starts with [assume] (case-insensitive)
    is an environment assumption: [Assume: the pump is available.]
    Such requirements become the antecedent of the realizability check
    rather than obligations of the system. *)

val key : t -> string
(** The content key: each item's id and text, in order.  The ids also
    fix the assumption/guarantee split, and translation is
    deterministic, so equal keys mean equal checked formulas under
    equal options. *)

val id_at : t -> int -> string
(** Identifier of the requirement at a 0-based index ([R<n+1>] when
    out of range, so report printers never raise). *)

val pp : Format.formatter -> t -> unit
