(** Realizability checking front-end — the paper's stage 2: a
    specification (a set of LTL requirements, implicitly conjoined) is
    {e consistent} iff it is realizable, i.e. a controller reading the
    input propositions and driving the output propositions exists
    (Sec. V-A).

    Two engines form one fallback ladder, run by {!check}, with a
    lint pass ([Speccc_lint.Lint]) as its last step; both engines
    mirror the paper's engine, G4LTL, a bounded-synthesis tool that
    bounds eventualities with a look-ahead (Sec. V-A):
    - [Symbolic]: BDD obligation game ({!Obligation}); liveness is
      first strengthened to [lookahead]-bounded eventualities, exactly
      as G4LTL's unroll parameter does.
    - [Explicit]: exact bounded synthesis with a dual-game
      unrealizability check ({!Bounded}), the last rung; cost is
      exponential in the number of propositions.  Without assumptions
      the rung first tries to refute on output components (see
      {!check}), each game over the component's own propositions, and
      only then plays the whole conjunction; the letter budget
      ({!Bounded.fits}) applies per component and to the whole game,
      which is skipped when the whole alphabet exceeds it.

    [Auto] runs the whole ladder; forcing [Explicit] or [Symbolic]
    runs that single rung.  The lint step is not a rung: it runs
    whenever no rung concluded, and it cannot be skipped or forced. *)

type engine = Explicit | Symbolic | Auto

type verdict =
  | Consistent        (** realizable: a controller exists *)
  | Inconsistent      (** definitely unrealizable *)
  | Inconclusive of string
      (** bound/lookahead exhausted; the string says which limit *)

type rung = {
  rung_engine : string;
      (** a ladder rung ({!rung_names}); the ladder's lint step
          ["lint"] or its abort ["ladder"]; or ["certify"], which the
          pipeline appends *)
  rung_outcome : string;      (** why the ladder moved past this rung *)
  rung_error : Speccc_runtime.Runtime.error option;
      (** present when the rung failed or ran out of resources;
          [None] when it completed but was inconclusive *)
  rung_wall : float;          (** seconds spent on this rung *)
}
(** One abandoned step of the fallback ladder. *)

type report = {
  verdict : verdict;
  engine_used : string;
  controller : Mealy.t option;   (** present when [Consistent] *)
  counterstrategy : Bounded.counterstrategy option;
      (** present when the explicit engine proved [Inconsistent]: the
          environment's winning strategy, usable with
          {!Bounded.refute} to demonstrate the inconsistency against
          any candidate implementation *)
  unsat_core : int list option;
      (** present when [Inconsistent] was proved by unsatisfiability
          of a requirement subset (the lint step's witness): 0-based
          requirement indices whose conjunction admits no behaviour at
          all.  Engines that prove unrealizability game-theoretically
          leave this [None] and ship a [counterstrategy] instead. *)
  refuted_on : int list option;
      (** present when the explicit rung refuted on an output
          component: the 0-based indices of the requirements whose
          conjunction alone is unrealizable over its own propositions.
          The [counterstrategy] is that component's, lifted to the
          whole alphabet. *)
  wall_time : float;             (** seconds (all rungs included) *)
  detail : string;               (** engine diagnostics *)
  degradation : rung list;
      (** engines tried and abandoned before this verdict, in order,
          at most one entry per engine; [[]] when the first engine
          concluded *)
}

(** {2 Witnesses}

    [controller], [counterstrategy] and [unsat_core] are the report's
    {e witnesses}: independently checkable evidence for the verdict,
    validated by [Speccc_certify.Certify] with machinery disjoint from
    the engine that produced them.  Each witness passes through a
    [Speccc_runtime.Fault.corrupt] checkpoint ([witness.controller],
    [witness.counterstrategy], [witness.core]) on emission, so
    certificate rejection is drillable from tests. *)

val rung_names : string list
(** The ladder's rung names in ladder order: [["symbolic"; "explicit"]].
    These are the names [skip] accepts and the [rung_engine] of the
    ladder's own rungs. *)

val canonical_degradation : report -> rung list
(** The degradation log in canonical rendering order: deduplicated,
    stably sorted by ladder position (symbolic, explicit, lint,
    certify, ladder, then anything else).  CLI printers use this so a
    given report always renders identically. *)

val check :
  ?budget:Speccc_runtime.Budget.t ->
  ?engine:engine ->
  ?lookahead:int ->
  ?bound:int ->
  ?skip:string list ->
  ?assumptions:Speccc_logic.Ltl.t list ->
  ?explicit_session:Bounded.session ->
  ?witness:bool ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t list ->
  report
(** [check ~inputs ~outputs requirements] — the one entry point.
    Defaults: [engine = Auto], [lookahead = 6] (bounded-eventuality
    depth for the symbolic engine), [bound = 8] (maximal counting
    bound for the explicit engine), [budget] unlimited.

    {b The ladder.}  Under [Auto] the rungs run in the order symbolic
    → explicit, or explicit alone when [assumptions] are given.
    The first definite verdict ends the ladder; a rung's fuel
    exhaustion, engine failure or inconclusive verdict drops to the
    next rung and is recorded in [report.degradation].  Forcing
    [engine] runs that single rung, whose report — inconclusive or
    not — is the result.  An explicit rung whose whole alphabet
    exceeds the engine's letter budget, and which no output component
    refutes, is skipped as inapplicable, forced or not.  A call
    without [budget] is the same ladder under an unlimited budget.
    Under a finite budget every rung but the last gets half of the
    remaining fuel (the last gets all of it).

    {b The lint step.}  When no rung concluded — every rung degraded,
    was skipped or was inconclusive, and neither the deadline nor
    cancellation aborted the ladder — the ladder ends with a lint pass
    over [requirements] on a 20,000-step reserve of fuel of its own
    that keeps the budget's deadline and cancellation token.  An
    unsatisfiable requirement or a conflicting pair refutes
    realizability: the verdict is [Inconsistent], the engine ["lint"]
    and [unsat_core] the requirements at fault.  Otherwise the verdict
    stays [Inconclusive] with engine ["none"] and the last
    inconclusive rung's [detail], and a ["lint"] rung ends the
    degradation log.  The explanation is "all engines degraded or
    inconclusive", followed by "under the budget" only when some
    logged rung ran out of a resource, and by "; lint found no
    conflict" when the pass completed.  A one-rung ladder (a forced
    engine, or the assumption ladder with nothing skipped) whose rung
    completes inconclusive reports that rung's own verdict: no lint
    step follows it.  Nor does one follow under [assumptions]: the
    pass reads [requirements] without their antecedent, so it could
    refute a realizable [(∧A) → (∧requirements)].  Such a check that
    no rung concluded stays [Inconclusive] with engine ["none"].

    {b Witnesses.}  [witness] (default [false]) says the caller reads
    the witness.  Unset, a symbolic [Consistent] carries no
    controller: enumerating and minimizing the strategy's Mealy
    machine costs far more than solving the game on wide alphabets,
    and the verdict, engine, [detail] and degradation log are the same
    either way.  Set, the symbolic rung extracts its controller (when
    the inputs fit {!Obligation.to_mealy}), and a symbolic
    [Inconsistent], which carries no counterstrategy, continues to the
    explicit rung when it is still in the ladder and returns its
    counterstrategy-carrying report; if that rung cannot produce one,
    the symbolic report stands.  The explicit rung always carries its
    witness, which comes out of the solve itself.
    Callers that never read the witness (subset checks, uncertified
    requests) leave [witness] unset and pay for neither the controller
    extraction nor the explicit dual game.

    [skip] (rung names, e.g. [["symbolic"]]) removes rungs from the
    [Auto] ladder before it runs — the serve mode's circuit breakers
    use this to bypass a rung that keeps failing.  Each skipped rung
    is recorded in [report.degradation] with an outcome starting
    ["skipped:"].  [skip] is ignored when [engine] is forced; skipping
    every rung leads to the lint step like a ladder whose every rung
    degraded.  Under the hard memory watermark the [Auto] ladder
    collapses to its last rung, the explicit one.

    {b The explicit rung.}  With [assumptions] it is one
    {!Bounded.solve} call over the single implication.  Without them
    it first runs a refutation pass: the requirements without liveness
    ({!Speccc_logic.Classify.has_liveness}) are split into the
    connected components of the graph whose edges join requirements
    that share an output, and each component, in order of its lowest
    requirement index, is solved over its own propositions (the
    check's inputs and outputs that its requirements mention).  A
    component that is the whole requirement list, or whose alphabet
    exceeds the letter budget, is skipped.  The first component the
    environment wins ends the rung: the verdict is [Inconsistent] by
    ["explicit"], [refuted_on] names the component, and the
    counterstrategy is the component's lifted by {!Bounded.lift}.
    Sound because unrealizability is upward closed.  Components run
    on the rung's fuel but without [explicit_session] and without the
    budget's snapshot slot: they neither publish nor resume anytime
    progress, and fuel running out in a component ends the pass
    without a refutation.  When no component refutes, the rung plays
    the requirement list (one block per requirement) in one
    {!Bounded.solve} call, or is logged as skipped when the whole
    alphabet exceeds the letter budget.  [explicit_session] only
    shares the whole game's caches across calls — arena blocks and
    solo frontiers of unchanged requirement formulas; without it each
    call uses a fresh session.  The verdict and witness are the same
    with or without it.

    [assumptions] are environment hypotheses [A]: the checked formula
    becomes [(∧A) → (∧requirements)], so the system need only comply
    while the environment behaves.  The top-level temporal disjunction
    this introduces is outside the symbolic engine's completeness
    fragment, so [Auto] starts assumption-carrying checks at the
    explicit rung; forcing [Symbolic] stays sound but may report
    spurious unrealizability.

    Never raises.  A wall-clock [Timeout] or [Cancelled] is global: it
    aborts the ladder, lint step included, with an [Inconclusive]
    report whose engine is ["none"] and whose degradation log is the
    single rung ["ladder"] carrying the error.  Fuel exhaustion never
    escapes the ladder. *)
