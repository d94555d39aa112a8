(** Time counting and abstraction (Sec. IV-E).

    Timing constraints become chains of [X] operators (one [X] per
    second).  To keep synthesis tractable the chains are compressed:
    every length [θi] is rewritten to [θ'i] via a common divisor [d]
    with a bounded arrival error [Δi]:

    {v θi = θ'i × d + Δi,   -d < Δi < d,   d ≥ 1,  θ'i ≥ 1 v}

    θ'i ≥ 1 matters: admitting θ'i = 0 would rewrite [X^θ φ] to [φ],
    silently turning a timed obligation into an immediate one (found
    by the {!Speccc_diffcheck} metamorphic oracle).  The legacy
    collapse is still reachable through [~allow_zero_theta:true] so
    the oracle can demonstrate the bug and the paper's reported Table
    optimum (which contains a θ' = 0 rewrite) can be reproduced.

    subject to a user budget [Σ|Δi| ≤ B] and per-θ sign domains
    (an action may be allowed to arrive only early, only late, or
    either — but not both, which linearizes the objective).  The
    two-objective problem (minimize [Σθ'i], then [Σ|Δi|]) is reduced
    to lexicographic single-objective optimization, solved either by

    - {!solve_analytic}: exact divisor enumeration — what the pipeline
      uses ([Speccc_core.Pipeline.abstract_times]), or
    - {!solve_smt}: bit-blasting over the bundled SAT solver — the
      paper's strategy ("efficiently solved by modern SMT solvers via
      bit-blasting"), kept as the cross-check the tests, the
      differential oracle and the time-abstraction ablation run, or
    - {!gcd_solution}: the conservative GCD rewriting the paper
      presents first (the pipeline's choice without a budget).

    The pipeline's problems have every domain [Nonnegative].  There
    θ'i = ⌊θi / d⌋, so Σ|Δi| = Σθi − d·Σθ'i and the lexicographic
    optimum fixes d = (Σθi − Σ|Δi|) / Σθ'i: both solvers return the
    same whole {!solution}, divisor and rewrites included.  (Under
    [allow_zero_theta] an optimum with Σθ' = 0 leaves d free.) *)

type delta_domain =
  | Nonnegative  (** the event may arrive early: Δ ∈ [0, d) *)
  | Nonpositive  (** the event may arrive late: Δ ∈ (-d, 0] *)
  | Exact        (** Δ = 0 *)

type problem = {
  thetas : int list;            (** distinct chain lengths Θ, all > 0 *)
  budget : int;                 (** B ≥ 0 *)
  domains : delta_domain list;  (** same length as [thetas] *)
}

type rewrite = {
  theta : int;
  theta' : int;
  delta : int;
}

type solution = {
  divisor : int;
  rewrites : rewrite list;
  x_total : int;       (** Σ θ'i *)
  error_total : int;   (** Σ |Δi| *)
}

val problem_checked :
  ?budget:int ->
  ?domains:delta_domain list ->
  int list ->
  (problem, Speccc_runtime.Runtime.error) result
(** Build a problem; default budget is [max Θ]; default domain is
    [Nonnegative] for every θ (the Sec. IV-E example).  Duplicate θ
    are merged to their most restrictive domain ([Exact] dominates;
    conflicting [Nonnegative]/[Nonpositive] constraints leave only
    [Exact]), so every declared constraint is honoured.  Returns
    [Error (Invalid_input _)] (stage ["timeabs"]) on an empty or
    non-positive Θ, a negative budget, or a domain/θ length mismatch —
    all of which can arrive straight from user input.  Never raises. *)

val problem : ?budget:int -> ?domains:delta_domain list -> int list -> problem
(** {!problem_checked}, raising [Invalid_argument] with the rendered
    error instead. *)

val thetas_of_formulas : Speccc_logic.Ltl.t list -> int list
(** Distinct maximal [X]-chain lengths over a whole specification,
    descending (the set Θ). *)

val gcd_solution : int list -> solution
(** Divide every chain by [gcd Θ]; always exact ([Δi = 0]).  The paper
    proves this sound: realizability is preserved. *)

val solve_analytic : ?allow_zero_theta:bool -> problem -> solution
(** Exact lexicographic optimum by enumerating divisors (1..max Θ) and
    per-θ floor/ceil choices, in microseconds.  [allow_zero_theta]
    (default [false]) re-admits the legacy θ' = 0 collapse —
    test/reproduction only; never enable it in the pipeline. *)

val solve_smt : ?allow_zero_theta:bool -> problem -> solution
(** Same optimum through the bit-blasting SMT encoding (milliseconds
    on two θ, tens of milliseconds on CARA's three); same
    [allow_zero_theta] escape hatch. *)

val apply : solution -> Speccc_logic.Ltl.t -> Speccc_logic.Ltl.t
(** Rewrite every maximal [X]-chain of length [θi] to length [θ'i].
    Chain lengths not covered by the solution are left unchanged. *)

val pp_solution : Format.formatter -> solution -> unit
