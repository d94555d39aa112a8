(** The differential and metamorphic oracles.

    {!check} re-runs one {!Case.t} through the real pipeline stages and
    returns every {e divergence} — a violation of a cross-engine trust
    rule or of a metamorphic law.  An empty list means the case passed
    every applicable oracle.

    Trust rules for the engine differential (soundness asymmetry of
    the two engines):
    - [Consistent] is sound from {e every} engine (it ships a
      controller), so it may always be held against a trusted
      [Inconsistent].
    - [Inconsistent] is trusted from the explicit engine
      (game-theoretically exact) and from any verdict carrying an
      unsat core (tableau-proved); from the symbolic engine it is
      trusted only on template-class specs (the translator fragment,
      where the obligation game is complete).
    - Closed specs (no inputs) reduce realizability to satisfiability,
      so the tableau ({!Speccc_lint.Lint.satisfiable}) and — on tiny
      alphabets — exhaustive lasso enumeration
      ({!Refeval.find_model}) serve as exact references.

    Metamorphic laws: NNF/simplify/hash-consing invariance, the
    antonym-merge law (swapping an absorbing adjective for its partner
    negates exactly the subject literal), the time-abstraction
    constraint system (θ = θ'·d + Δ, |Δ| < d, θ' ≥ 1, ΣΔ ≤ budget,
    domains after duplicate merge), analytic/SMT objective agreement
    (and whole-solution agreement — divisor and every rewrite — when
    every domain is [Nonnegative], the pipeline's case),
    GCD-feasibility dominance, and partition disjointness /
    move-conflict rejection / idempotence. *)

type divergence = {
  oracle : string;
      (** which trust rule or law broke: ["engines"], ["certify"],
          ["tableau"], ["enumeration"], ["refeval"], ["nnf"],
          ["hashcons"], ["antonym"], ["translate"], ["timeabs"],
          ["partition"], ["crash"] *)
  detail : string;  (** human-readable evidence *)
}

val check : ?buggy_timeabs:bool -> Case.t -> divergence list
(** Run every oracle applicable to the case.  [buggy_timeabs]
    (default [false]) re-enables the historical θ' = 0 collapse in the
    time-abstraction solvers ([~allow_zero_theta:true]) {e without}
    relaxing the oracle — flipping it on demonstrates that the oracle
    catches the pre-fix bug (used by tests and docs). *)

val pp_divergence : Format.formatter -> divergence -> unit
