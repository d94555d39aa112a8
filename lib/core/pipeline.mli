(** The SpecCC pipeline (Fig. 1): natural-language requirements are
    translated to LTL (stage 1, with semantic reasoning and time
    abstraction), partitioned into inputs/outputs, and checked for
    consistency by LTL synthesis (stage 2: the engine ladder symbolic →
    explicit → lint of {!Speccc_synthesis.Realizability.check}).
    Stage 3 — refinement — starts from a checked {!outcome}:
    {!Refine.localize} and {!Refine.run} check subsets of
    [outcome.document] under its assumptions and partition. *)

type options = {
  translate : Speccc_translate.Translate.config;
  time_budget : int;
      (** arrival-error budget [B] of the Sec. IV-E time abstraction
          (default 5) *)
  engine : Speccc_synthesis.Realizability.engine;
  lookahead : int;
  bound : int;
  fuel : int option;
      (** deterministic step budget for the synthesis stage; [None] =
          unlimited.  Synthesis always runs
          {!Speccc_synthesis.Realizability.check}'s engine ladder under
          it, lint step included. *)
  deadline : float option;
      (** wall-clock seconds allowed for the synthesis stage; the
          ladder's lint step and certification run on reserves of fuel
          of their own but share this deadline and [cancel] *)
  cancel : Speccc_runtime.Cancellation.token option;
      (** cooperative cancellation, polled at budget checkpoints *)
  skip_engines : string list;
      (** ladder rungs (by name, from
          {!Speccc_synthesis.Realizability.rung_names}) to bypass in
          this run — the serve mode's circuit breakers
          set this while a rung's breaker is open; ignored when
          [engine] is forced. *)
  recover : bool;
      (** true: an ungrammatical requirement is dropped with a located
          diagnostic ([outcome.diagnostics]) and checking continues
          over the remaining requirements; false (default): the
          translation stage raises the first one as
          {!Speccc_nlp.Parser.Error}, with the message
          {!Speccc_nlp.Parser.sentence} raises *)
  certify : bool;
      (** true: validate the verdict's witness with
          {!Speccc_certify.Certify.apply} (on a small reserve of fuel)
          before reporting; a rejected certificate downgrades the
          verdict to [Inconclusive].  Also asks the ladder for a
          witness ([~witness] of
          {!Speccc_synthesis.Realizability.check}). *)
  snapshot : Speccc_runtime.Snapshot.slot option;
      (** anytime-progress slot threaded onto the synthesis budget: the
          engines publish resumable frontiers into it, and an armed
          resume snapshot lets a retried run skip already-completed
          escalation work (see {!Speccc_runtime.Snapshot}) *)
}

val default_options : unit -> options
(** Ungoverned: [fuel], [deadline] and [cancel] are all [None], so
    the ladder runs under an unlimited budget. *)

type stage_times = {
  translation_s : float;
  abstraction_s : float;
  partition_s : float;
  synthesis_s : float;
}

type outcome = {
  document : Document.t;
      (** the items checked, aligned with [requirements] and
          [formulas]: the input document minus any requirement dropped
          by [options.recover] *)
  requirements : Speccc_translate.Translate.requirement list;
  formulas : Speccc_logic.Ltl.t list;
      (** after time abstraction, in requirement order *)
  assumptions : Speccc_logic.Ltl.t list;
      (** the formulas of the assumption items
          ({!Document.is_assumption}), in document order: the
          antecedent of the check *)
  guarantees : (int * Speccc_logic.Ltl.t) list;
      (** the other formulas, each with its position in [document],
          in document order: the obligations of the check *)
  time_solution : Speccc_timeabs.Timeabs.solution option;
  partition : Speccc_partition.Partition.analysis;
  report : Speccc_synthesis.Realizability.report;
  times : stage_times;
      (** [synthesis_s] covers {!decide}, certification included *)
  diagnostics : (string * Speccc_nlp.Parser.diagnostic) list;
      (** requirements dropped by error recovery, as [(id, where/why)]
          pairs in document order; always empty unless
          [options.recover] *)
  certificate : Speccc_certify.Certify.outcome option;
      (** witness-validation outcome; [None] unless [options.certify] *)
}

val abstract_times :
  options ->
  Speccc_logic.Ltl.t list ->
  Speccc_logic.Ltl.t list * Speccc_timeabs.Timeabs.solution option
(** The time-abstraction stage on its own: collect the θ constants,
    solve for the Sec. IV-E optimum under [options.time_budget] with
    {!Speccc_timeabs.Timeabs.solve_analytic} (the [timeabs.solve]
    checkpoint fires first) and rewrite the formulas.  Exposed so a
    benchmark can time this layer on its own; every check runs it
    inside {!run_document}. *)

val decide :
  options ->
  ?explicit_session:Speccc_synthesis.Bounded.session ->
  ?assumptions:Speccc_logic.Ltl.t list ->
  partition:Speccc_partition.Partition.t ->
  Speccc_logic.Ltl.t list ->
  Speccc_synthesis.Realizability.report
  * Speccc_certify.Certify.outcome option
(** The decide step every check ends with: a budget from [options]
    ([fuel], [deadline], [cancel], [snapshot]), the engine ladder of
    {!Speccc_synthesis.Realizability.check} over the guarantees under
    [assumptions] (default none), and, when [options.certify], the
    certification of its witness ({!Speccc_certify.Certify.apply}) on
    a reserve of fuel taken from that budget.  The certificate is
    [None] unless [options.certify]. *)

val run : ?options:options -> string list -> outcome
(** Full pipeline from requirement sentences (positional identifiers;
    equivalent to {!run_document} over {!Document.of_texts}). *)

val run_document :
  ?options:options ->
  ?explicit_session:Speccc_synthesis.Bounded.session ->
  Document.t ->
  outcome
(** Like {!run}, but items whose identifier marks them as environment
    assumptions ({!Document.is_assumption}) become the antecedent of
    the realizability check ([∧A → ∧G]) instead of system obligations.
    Translation, time abstraction and partitioning still treat the
    whole document uniformly, so assumptions share the proposition
    space.  [outcome.formulas] lists every formula in document
    order.

    Sentences are parsed through the translator's domain-local parse
    cache ({!Speccc_translate.Translate.specification_recover}), so
    every call, governed or not, reuses the parses of sentences the
    domain has seen before; a parse tree is a function of the
    sentence text, so this never changes a translation and costs no
    fuel.  [explicit_session] is a cache the caller owns across calls
    ({!Watch} keeps one per session): the explicit engine's arena
    blocks and solo frontiers.  Verdicts and witnesses are the same
    with or without it.  A hit on a solo frontier charges no fuel, so
    a caller that wants fuel accounting independent of earlier calls
    passes no session. *)

val check_formulas :
  ?options:options ->
  ?partition:Speccc_partition.Partition.t ->
  ?explicit_session:Speccc_synthesis.Bounded.session ->
  ?assumptions:Speccc_logic.Ltl.t list ->
  Speccc_logic.Ltl.t list ->
  Speccc_partition.Partition.t * Speccc_synthesis.Realizability.report
(** Stage 2 only: partition (unless given) and {!decide} over formulas
    that are already in LTL, as guarantees under [assumptions]
    (default none), which form the antecedent as in {!run_document}
    and, without [partition], are partitioned as there too.  Used by
    {!Refine}'s subset checks and by specifications authored directly
    in LTL.  [explicit_session] as in {!run_document}.  The report is
    the certified one when [options.certify]; callers that print the
    certificate call {!decide}. *)

val refuted_on : outcome -> string list option
(** The ids, in [outcome.document], of the requirements the explicit
    rung refuted on ([report.refuted_on]); [None] when the verdict did
    not come from an output component. *)

val pp_verdict :
  Document.t -> Format.formatter -> Speccc_synthesis.Realizability.report -> unit
(** The [verdict:] line of a report, then its [refuted on:] line (ids
    taken from the document; positional [R<n>] for [[]]) and its
    [degraded:] lines, as cuts of the enclosing vertical box. *)

val pp_outcome : Format.formatter -> outcome -> unit
