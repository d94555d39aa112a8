(** Explicit-state bounded synthesis (Safraless, Schewe–Finkbeiner
    style): the specification's negation is translated to a Büchi
    automaton, read as a universal co-Büchi automaton for the
    specification, and the system must keep every run's count of
    accepting-state visits at or below a bound [k].  The resulting
    counting-function safety game is solved by a backward greatest
    fixpoint over antichains of ⊑-maximal counting functions
    (Acacia-style): the winning region is downward closed, so its
    frontier of maximal elements represents it exactly.

    Verdicts:
    - [Realizable m] is exact — [m] is a controller (and can be
      replayed against the trace semantics);
    - [Unrealizable] is exact — it is produced by solving the {e dual}
      game, where the environment realizes the negation (sound by
      determinacy);
    - [Unknown] means neither side won at any bound tried (this
      mirrors G4LTL's unroll/look-ahead parameter).

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
  | Unknown of int  (** largest bound at which both games were lost *)

val refute : counterstrategy -> Mealy.t -> Speccc_logic.Trace.t
(** Play the counterstrategy against a candidate controller; the
    resulting lasso word is a concrete run of the controller that
    violates the specification the counterstrategy was extracted
    from.  Raises [Invalid_argument] when the proposition interfaces
    disagree. *)

val lift :
  counterstrategy -> inputs:string list -> outputs:string list ->
  counterstrategy
(** [lift cs ~inputs ~outputs] plays [cs], won over a sub-alphabet,
    over the wider alphabet [inputs]/[outputs], which must contain
    [cs]'s own propositions: inputs [cs] does not mention stay 0, and
    outputs it does not mention are ignored.  Unrealizability is
    upward closed, so a counterstrategy for a sub-conjunction lifted
    this way beats every controller for any conjunction containing
    it.  States and moves are [cs]'s own.  Raises [Invalid_argument]
    when a proposition of [cs] is missing from the wider alphabet. *)

val fits :
  ?max_letters:int -> inputs:string list -> outputs:string list -> unit -> bool
(** Does the alphabet fit the letter budget ([max_letters], default
    [4096])?  {!solve} raises [Invalid_argument] when it does not. *)

(** {2 Sessions}

    The UCW of [¬(f1 ∧ ... ∧ fm)] is the disjoint union of the
    per-conjunct automata [NBW(¬fi)], so the game over a requirement
    conjunction decomposes block-wise.  A {!session} caches per
    formula id the compiled arena block and, per counting bound, the
    converged {e solo} winning frontier of that block alone, so after
    a single-conjunct edit only that conjunct's block is re-compiled
    and re-solved solo. *)

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

(** {2 The solver} *)

val solve :
  ?budget:Speccc_runtime.Budget.t ->
  ?session:session ->
  ?max_bound:int ->
  ?max_letters:int ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t list ->
  verdict
(** [solve ~inputs ~outputs formulas] decides the conjunction of
    [formulas] — the one explicit entry point.  The counting bound
    escalates 1, 2, 4, ... up to [max_bound] (default 8) until a
    definite verdict; default [max_letters] is [4096] ([= 2^12]
    combined valuations).

    {b Block decomposition.}  At each bound every formula is a block
    of the union automaton.  With two or more blocks, each block's
    solo game is solved first (or taken from [session]); a conjunct
    lost solo settles the system game, and otherwise the joint
    fixpoint starts from the meet of the lifted solo frontiers — an
    upper bound of the joint winning region — instead of ⊤.  A single
    formula (an assumption implication [A → G], a one-sentence
    document) is a one-block union started at ⊤ with no solo game:
    the plain antichain game on [NBW(¬f)].  Seeding is exact, not
    heuristic: the iteration from any frontier ⊒ the winning region
    converges to the same canonical maximal-element frontier, so
    verdicts {e and} extracted witness machines are bit-identical with
    a warm session, a fresh one, or none.  Unrealizability is
    certified on the dual game over the automaton of the conjunction
    itself.

    {b Budgets and snapshots.}  When [budget] is given, fuel is spent
    (stage ["explicit"]) per fixpoint round, input valuation and
    extracted witness state, and automaton builds charge the tableau
    cost whether or not the automaton cache or [session] held them;
    exhaustion raises [Speccc_runtime.Runtime.Interrupt].  When the
    budget carries a snapshot slot, every round of the joint system
    game and of the dual game publishes its frontier (tagged with the
    bound and game side), and a bound that ends [Unknown] publishes
    the bare bound.  A run whose slot is armed resumes: past a bare
    bound, or at a frontier's bound from that frontier.  Resumes are
    verdict-safe — a loss under a resumed frontier is re-checked from
    the trusted start (⊤ or the solo seed), so a stale or forged
    snapshot can cost time, never flip a verdict.  Solo games neither
    publish nor resume.

    The fault checkpoint ["engine.explicit"] is announced at every
    bound. *)
