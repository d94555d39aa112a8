(** The inverse direction: render template-fragment LTL back into the
    structured English subset.

    Useful for reporting — localization culprits, counterstrategy
    narrations and lint findings can be phrased in the same language
    the requirements were written in.  Only the shapes the forward
    translator emits are supported:

    {v □(guard → response)         If <guard>, <response>.
       □(guard → ♦r)               When <guard>, eventually <response>.
       □(guard → X^t r)            If <guard>, <response> in t seconds.
       □ r / □ ¬r                  <response>.  (invariants)
       ♦ r                         Eventually <response>. v}

    Propositions are un-mangled with the built-in lexicon's
    morphology:
    [press_start_button ↦ "the start button is pressed"],
    [pump ↦ "the pump is available"] (bare subjects read as status
    propositions), [¬pump ↦ "the pump is lost"].

    {!roundtrips} states the contract: for formulas in the fragment,
    re-translating the produced sentence yields the original formula
    (tested property). *)

val sentence : Speccc_logic.Ltl.t -> string option
(** [None] when the formula is outside the supported fragment. *)

val proposition : positive:bool -> string -> string
(** English phrase for one (possibly negated) proposition. *)

val roundtrip_checked :
  Translate.config ->
  Speccc_logic.Ltl.t ->
  (Speccc_logic.Ltl.t, Speccc_runtime.Runtime.error) result
(** Verbalize the formula and run the produced sentence back through
    the forward translator, returning the re-translated formula.
    [Error (Invalid_input _)] (stage ["verbalize"]) when the formula
    is outside the fragment or re-translation does not yield exactly
    one requirement; tokenizer/parser escapes surface as typed errors
    instead of exceptions.  Never raises. *)

val roundtrips : Translate.config -> Speccc_logic.Ltl.t -> bool
(** Does [sentence] produce text that the forward pipeline translates
    back to the same formula?  ([false] also when [sentence] returns
    [None] or re-translation fails.) *)
