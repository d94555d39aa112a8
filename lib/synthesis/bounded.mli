(** Explicit-state bounded synthesis (Safraless, Schewe–Finkbeiner
    style): the specification's negation is translated to a Büchi
    automaton, read as a universal co-Büchi automaton for the
    specification, and the system must keep every run's count of
    accepting-state visits at or below a bound [k].  The resulting
    counting-function safety game is solved by a greatest fixpoint.

    Verdicts:
    - [Realizable m] is exact — [m] is a controller (and can be
      replayed against the trace semantics);
    - [Unrealizable] is exact — it is produced by solving the {e dual}
      game, where the environment realizes the negation (sound by
      determinacy);
    - [Unknown] means neither side won within the bound; callers
      typically retry with a larger bound (this mirrors G4LTL's
      unroll/look-ahead parameter).

    The engine enumerates input/output valuations explicitly and is
    meant for specifications with a moderate number of propositions;
    {!val:solve} raises [Invalid_argument] when
    [2^(|inputs| + |outputs|)] exceeds [max_letters]. *)

type counterstrategy = {
  cs_inputs : string list;
  cs_outputs : string list;
  cs_num_states : int;
  cs_initial : int;
  cs_move : int -> int;
      (** the environment's winning input valuation in this state *)
  cs_next : int -> int -> int;
      (** successor after the system answers with an output mask *)
}
(** A Moore strategy for the environment, witnessing unrealizability:
    whatever outputs the system produces, the play violates the
    specification.  {!val:refute} demonstrates it against any candidate
    controller. *)

type verdict =
  | Realizable of Mealy.t
  | Unrealizable of counterstrategy
  | Unknown of int  (** bound at which both games were lost *)

type algorithm =
  | Antichain
      (** Backward greatest fixpoint over ⊑-maximal counting functions
          (Acacia-style).  The winning region is downward closed, so
          its frontier of maximal elements represents it exactly;
          independent requirements cost a few antichain elements
          instead of a product state space.  This is the default. *)
  | Enumerate
      (** Forward enumeration of every reachable counting function
          followed by a greatest fixpoint on the explicit game graph —
          the original engine, kept selectable for differential
          testing and as a fallback. *)

val default_algorithm : unit -> algorithm
(** [Antichain], unless the environment variable [SPECCC_EXPLICIT] is
    set to ["full"], ["enum"] or ["enumerate"]. *)

val refute : counterstrategy -> Mealy.t -> Speccc_logic.Trace.t
(** Play the counterstrategy against a candidate controller; the
    resulting lasso word is a concrete run of the controller that
    violates the specification the counterstrategy was extracted
    from.  Raises [Invalid_argument] when the proposition interfaces
    disagree. *)

val solve :
  ?budget:Speccc_runtime.Budget.t ->
  ?bound:int ->
  ?max_letters:int ->
  ?algorithm:algorithm ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t ->
  verdict
(** [solve ~inputs ~outputs spec].  Default [bound] is [3]; default
    [max_letters] is [4096] ([= 2^12] combined valuations); default
    [algorithm] is {!default_algorithm}.  Both algorithms decide the
    same games with the same move preferences during extraction, so
    verdicts and witness machines coincide.  When [budget] is given,
    fuel is spent as the solver progresses (stage ["explicit"]) —
    per explored position under [Enumerate], per fixpoint round /
    input valuation / extracted state under [Antichain]; exhaustion
    raises [Speccc_runtime.Runtime.Interrupt].  Under [Antichain] and
    a budget, each fixpoint round publishes its frontier as a snapshot
    so a preempted run can warm-start; warm starts are verdict-safe
    (a loss under a resumed frontier is re-checked from the top).
    The fault checkpoint ["engine.explicit"] is announced on entry. *)

val fits :
  ?max_letters:int -> inputs:string list -> outputs:string list -> unit -> bool
(** Does the alphabet fit the letter budget ([max_letters], default
    [4096])?  {!solve} raises [Invalid_argument] when it does not. *)

val solve_iterative :
  ?budget:Speccc_runtime.Budget.t ->
  ?max_bound:int ->
  ?max_letters:int ->
  ?algorithm:algorithm ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t ->
  verdict
(** Escalate the bound (1, 2, 4, ... up to [max_bound], default 8)
    until a definite verdict is reached. *)

(** {2 Session-incremental conjunction solving}

    The UCW of [¬(f1 ∧ ... ∧ fm)] is the disjoint union of the
    per-conjunct automata [NBW(¬fi)], so the antichain game over a
    requirement conjunction decomposes block-wise.  A {!session}
    caches per formula id the compiled arena block and, per counting
    bound, the converged {e solo} winning frontier of that block alone
    (stored through the [speccc-snap1] codec and re-validated on every
    reuse).  {!solve_conj} then seeds the joint greatest fixpoint with
    the meet of the lifted solo frontiers — a proven upper bound of
    the joint winning region — so after a single-conjunct edit only
    that conjunct's block is rebuilt and re-solved solo, and the joint
    iteration starts next to its fixpoint instead of at ⊤.

    Seeding is exact, not heuristic: the iteration from any frontier
    ⊒ the winning region converges to the same canonical maximal-
    element frontier a cold start reaches, so verdicts {e and}
    extracted witness machines are bit-identical to a fresh-session
    call on the same formula list (the property the watch tests pin).
    Unrealizability is still certified on the conjunction's own dual
    game, exactly as {!solve} does. *)

type session
(** Mutable cache of compiled blocks and solo frontiers.  Keyed by
    hash-consed formula ids, so it is private to one process; it is
    invalidated wholesale when the input/output alphabets change and
    entry-wise via {!prune_session}. *)

type session_stats = {
  cached_blocks : int;
  cached_solo : int;
  built_blocks : int;   (** arena blocks compiled over the session *)
  reused_blocks : int;  (** block-cache hits over the session *)
  solved_solo : int;    (** solo games solved over the session *)
  reused_solo : int;    (** solo-frontier hits over the session *)
}

val create_session : unit -> session
val session_stats : session -> session_stats

val prune_session : session -> retain:(int -> bool) -> unit
(** Drop cached blocks and solo frontiers whose formula id fails
    [retain] — the watch session's explicit invalidation after an
    edit. *)

val solve_conj :
  ?budget:Speccc_runtime.Budget.t ->
  ?session:session ->
  ?bound:int ->
  ?max_letters:int ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t list ->
  verdict
(** [solve_conj ~inputs ~outputs formulas] decides the conjunction of
    [formulas] like [solve (conj formulas)], block-decomposed as
    described above.  Without [session] a fresh one is used (a cold
    run — the identity oracle).  Lists of length [<= 1], and runs
    under the [Enumerate] differential-testing algorithm
    ({!default_algorithm}), fall through to {!solve} on the plain
    conjunction. *)

val solve_conj_iterative :
  ?budget:Speccc_runtime.Budget.t ->
  ?session:session ->
  ?max_bound:int ->
  ?max_letters:int ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t list ->
  verdict
(** {!solve_conj} under the same bound escalation as
    {!solve_iterative} (1, 2, 4, ... up to [max_bound], default 8). *)
