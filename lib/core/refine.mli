(** Heuristic refinement (Sec. V-B, second bullet): when the synthesis
    engine reports inconsistency, the input/output partition itself may
    be the problem.  Candidate adjustments move propositions of the
    located requirements between the classes; the first adjustment that
    makes the specification realizable is returned.

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
(** The full stage-3 loop: localize, try partition adjustments focused
    on the located requirements, and produce advice for the remaining
    case (modify the requirements). *)
