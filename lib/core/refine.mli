(** Stage 3 (Sec. V-B): localization and heuristic refinement.  When
    the synthesis engine reports inconsistency, the requirements that
    conflict are localized, and the input/output partition itself may
    be the problem: candidate adjustments move propositions of the
    located requirements between the classes; the first adjustment
    that makes the specification realizable is returned.

    {!localize} and {!run} are the one stage-3 path every verb takes:
    they start from a checked {!Pipeline.outcome} and check every
    subset under the document's fixed interface (its assumptions as
    antecedent, its partition restricted to the subset's
    propositions), so the verdict on the whole document is the one the
    pipeline gave.

    The third bullet — modifying the requirements themselves — is the
    user's job; {!suggest} surfaces the information needed for it. *)

type adjustment = {
  moved_to_output : string list;
  moved_to_input : string list;
  partition : Speccc_partition.Partition.t;
}

val adjust_partition :
  check:(Speccc_partition.Partition.t -> bool) ->
  partition:Speccc_partition.Partition.t ->
  focus:string list ->
  adjustment option
(** [adjust_partition ~check ~partition ~focus] tries single moves and
    then pairs of moves of the propositions in [focus] (typically the
    propositions of the located requirements), inputs first ("the
    propositions belonging to the intermediate variables ... are
    targets to be adjusted").  [check] re-runs realizability under the
    adjusted partition. *)

type suggestion = {
  localization : Localize.result option;
  adjustment : adjustment option;
  advice : string;
}

val suggest :
  check_subset:(Speccc_logic.Ltl.t list -> bool) ->
  check_partition:(Speccc_partition.Partition.t -> bool) ->
  partition:Speccc_partition.Partition.t ->
  Speccc_logic.Ltl.t list ->
  suggestion
(** The stage-3 loop over caller-supplied checks: localize, try
    partition adjustments focused on the located requirements, and
    produce advice for the remaining case (modify the requirements).
    For formulas a synthetic benchmark builds; a checked document goes
    through {!run}. *)

val localize :
  ?memo:Localize.memo ->
  ?explicit_session:Speccc_synthesis.Bounded.session ->
  Pipeline.options ->
  Pipeline.outcome ->
  Localize.result option
(** Localize the conflict of a checked document with {!Localize.run}
    over its guarantees.  Each subset is checked with certification
    off, under all of the document's assumptions (so an assumption is
    never culprit or partner; a guarantee identical to an assumption
    is dropped) and under [outcome.partition] restricted to the
    propositions of the subset and the assumptions.  Indices are
    positions in [outcome.document].  A [Consistent] outcome has
    nothing to localize ([None], nothing solved); under an
    [Inconsistent] outcome the whole document takes that verdict
    without a second solve.

    [memo] and [explicit_session] are the caller's caches, as in
    {!Localize.run} and {!Pipeline.run_document}.  A memo's verdicts
    hold for one set of assumptions and one class per proposition:
    {!Watch} prunes the entries an edit invalidates. *)

val run : Pipeline.options -> Pipeline.outcome -> suggestion
(** {!localize}, then partition adjustments focused on the located
    requirements, each checked on the whole document (assumptions
    included, certification off), then advice.  Requirement numbers
    in the advice are positions in [outcome.document]. *)
