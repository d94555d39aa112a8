(** Symbolic safety-game engine over BDDs (the scalable counterpart of
    {!Bounded}, mirroring G4LTL's architecture: liveness is bounded by
    a look-ahead parameter, the rest is a safety game).

    The specification must be a {e syntactic safety} formula in NNF
    (callers bound liveness first with
    {!Speccc_logic.Classify.bound_liveness}).  Every temporal
    subformula becomes an {e obligation bit}; the game state is the set
    of pending obligations, and the system resolves both the output
    valuation and the way disjunctive obligations are discharged.

    Soundness: a [Realizable] verdict is always correct (the extracted
    strategy maintains all obligations forever, which implies the
    safety formula).  Completeness holds for the fragment the paper's
    translator emits — conjunctions of requirements of the forms
    [G (pre -> post)], [G (pre -> X^n post)], [G (pre -> bounded-F)],
    [p W q] and propositional constraints — because every disjunction
    is resolved with the current letter in view.  Specifications that
    require delaying the choice between temporal disjuncts (e.g.
    [(G a) || (G b)] against an adaptive environment) may be reported
    unrealizable spuriously; the front-end cross-checks such shapes
    with the explicit engine when feasible. *)

type verdict =
  | Realizable of strategy
  | Unrealizable

and strategy

val solve :
  ?budget:Speccc_runtime.Budget.t ->
  ?snapshot_base:Speccc_runtime.Snapshot.t ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t ->
  verdict
(** Raises [Invalid_argument] if the formula is not syntactic safety
    (contains [Until]/[Eventually] after NNF).  [budget] governs the
    BDD manager for the whole solve (one fuel unit per node
    construction, stage ["bdd"]) plus one unit per fixpoint round
    (stage ["symbolic"]); exhaustion raises
    [Speccc_runtime.Runtime.Interrupt].  The fault checkpoints
    ["engine.symbolic"] (entry) and ["bdd.fixpoint"] (per round) are
    announced.  When [snapshot_base] is given, each fixpoint round
    publishes it to the budget's snapshot slot with a ["round"] layer
    index added (rebuild-on-resume: the index is progress telemetry
    for partial verdicts; BDD state itself is reconstructed). *)

val to_mealy : ?max_states:int -> strategy -> Mealy.t option
(** Enumerate the reachable strategy states into an explicit Mealy
    machine; [None] if the strategy has more than 20 inputs or more
    than [max_states] (default 4096) reachable states.  The table holds
    2^inputs entries per state, and the number of (state, input) pairs
    is not capped: at 20 inputs and [max_states] states that is 2^32
    entries, so a wide strategy can exhaust memory before either
    limit returns [None]. *)

val stats : strategy -> string
(** One-line diagnostic: obligation bits, BDD nodes, fixpoint rounds. *)
