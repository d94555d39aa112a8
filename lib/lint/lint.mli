(** Early sanity checks on a translated specification, before the
    synthesis-based consistency check — the automated-consistency
    tradition of Heitmeyer et al.'s SCR checker (the paper's related
    work [8]), recast for LTL requirements.

    All checks are decided exactly by Büchi-automaton emptiness over
    {!Speccc_automata.Nbw}; findings carry witness words where
    meaningful.  These checks are cheaper than realizability and catch
    the blunt errors (a self-contradictory requirement, two
    requirements with directly conflicting responses, a guard that can
    never fire) with pinpoint blame, complementing the game-based check
    that judges the specification as a whole. *)

type finding =
  | Unsatisfiable of int
      (** requirement [i] admits no behaviour at all *)
  | Valid of int
      (** requirement [i] is a tautology — it constrains nothing,
          usually a translation accident *)
  | Pair_conflict of int * int * Speccc_logic.Trace.t
      (** requirements [i] and [j] are jointly unsatisfiable; the
          witness satisfies [i] but violates [j] *)
  | Vacuous_guard of int
      (** requirement [i] has the shape [□(guard → _)] and [guard] can
          never hold under the whole specification — the requirement
          never fires *)

val satisfiable :
  ?budget:Speccc_runtime.Budget.t ->
  Speccc_logic.Ltl.t ->
  Speccc_logic.Trace.t option
(** A model of the formula, or [None] if unsatisfiable.  [budget]
    governs the underlying tableau (exhaustion raises
    [Speccc_runtime.Runtime.Interrupt]). *)

val valid : ?budget:Speccc_runtime.Budget.t -> Speccc_logic.Ltl.t -> bool
(** Is the formula true on every word? *)

val equivalent : Speccc_logic.Ltl.t -> Speccc_logic.Ltl.t -> bool
(** Language equality (via validity of the biconditional). *)

val check :
  ?budget:Speccc_runtime.Budget.t -> Speccc_logic.Ltl.t list -> finding list
(** All findings over a specification, cheapest checks first.
    [Pair_conflict] is only reported for pairs where neither member is
    already [Unsatisfiable], and the quadratic pass is skipped for
    specifications beyond 60 requirements.  [Vacuous_guard] reads a
    guard under the whole specification when it has at most 10
    requirements and its tableau fits in a reserve of
    {!context_reserve_fuel} steps of its own (under [budget]'s
    deadline and cancellation when given); otherwise the guard is read
    on its own. *)

val context_reserve_fuel : int
(** Steps allowed for the tableau of the whole specification, the
    vacuity context of {!check}. *)

val first_conflict :
  ?budget:Speccc_runtime.Budget.t -> Speccc_logic.Ltl.t list -> finding option
(** The first [Unsatisfiable] or [Pair_conflict] finding of {!check},
    found by the same requirement-then-pair order, stopping there:
    no validity or vacuity check runs.  [None] when there is no
    conflict. *)

val pp_finding :
  requirement_text:(int -> string option) ->
  Format.formatter ->
  finding ->
  unit
