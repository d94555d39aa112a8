(** Seeded random generation of checking scenarios.

    Everything here draws exclusively from {!Prng}, so a seed fully
    determines the case sequence.  Documents are built from sentence
    templates that stay inside the structured-English grammar
    ([docs/GRAMMAR.md]) and the built-in lexicon, so generated specs
    exercise the {e real} NLP front end rather than a mock; LTL
    alphabets are kept small enough (≤ 5 propositions) that the
    explicit engine and the lasso-enumeration reference
    ({!Refeval.find_model}) stay affordable. *)

val formula :
  Prng.t -> props:string list -> depth:int -> Speccc_logic.Ltl.t
(** Random formula over the given propositions with AST depth at most
    [depth]; all connectives including [Until]/[Weak_until]/[Release]
    are reachable. *)

val ltl_spec : Prng.t -> Case.ltl_spec
(** Random specification.  Template-class specs ([template = true])
    instantiate Globally-scope Dwyer patterns over input guards and
    output responses — the fragment where the symbolic engine is
    complete; free-class specs use {!formula}.  Roughly a third are
    closed (no inputs), where realizability coincides with
    satisfiability and the tableau gives an exact reference. *)

val doc : Prng.t -> string list
(** Random structured-English document (2–4 sentences) over the
    built-in lexicon's subjects, verbs and absorbing adjective pairs.
    Every template has been validated to parse and translate. *)

val timeabs_case : Prng.t -> Case.t
(** Random time-abstraction problem; duplicate θ values and mixed
    domains are generated on purpose (the merge path is under test). *)

val partition_case : Prng.t -> Case.t
(** Random partition-inference + adjustment scenario; some move lists
    deliberately overlap, which the oracle expects {!Stdlib.invalid_arg}
    to reject. *)

val case : Prng.t -> Case.t
(** One scenario, kind chosen by weight (LTL specs most frequent). *)
