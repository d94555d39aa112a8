(** The SpecCC pipeline (Fig. 1): natural-language requirements are
    translated to LTL (stage 1, with semantic reasoning and time
    abstraction), partitioned into inputs/outputs, and checked for
    consistency by LTL synthesis (stage 2).  Stage 3 — refinement — is
    provided by {!Localize} and {!Refine}. *)

type options = {
  translate : Speccc_translate.Translate.config;
  time_budget : int option;
      (** error budget [B] for the abstraction; [None] = GCD only *)
  use_smt_abstraction : bool;
      (** true: solve the optimization by bit-blasting (the paper's
          route); false: analytic divisor search *)
  engine : Speccc_synthesis.Realizability.engine;
  lookahead : int;
  bound : int;
  fuel : int option;
      (** deterministic step budget for the synthesis stage; [None] =
          unlimited.  Synthesis always runs
          {!Speccc_synthesis.Realizability.check}'s engine ladder, with
          a lint pass as the ladder's floor when every rung degraded. *)
  deadline : float option;
      (** wall-clock seconds allowed for the synthesis stage *)
  cancel : Speccc_runtime.Cancellation.token option;
      (** cooperative cancellation, polled at budget checkpoints *)
  skip_engines : string list;
      (** ladder rungs (by name: ["symbolic"], ["explicit"], ["sat"])
          to bypass in this run — the serve mode's circuit breakers
          set this while a rung's breaker is open; ignored when
          [engine] is forced. *)
  recover : bool;
      (** true: an ungrammatical requirement is dropped with a located
          diagnostic ([outcome.diagnostics]) and checking continues
          over the remaining requirements; false (default): the
          translation stage raises {!Speccc_nlp.Parser.Error} as
          before *)
  certify : bool;
      (** true: validate the verdict's witness with
          {!Speccc_certify.Certify.apply} (on a small reserved budget)
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
  requirements : Speccc_translate.Translate.requirement list;
  formulas : Speccc_logic.Ltl.t list;
      (** after time abstraction, in requirement order *)
  time_solution : Speccc_timeabs.Timeabs.solution option;
  partition : Speccc_partition.Partition.analysis;
  report : Speccc_synthesis.Realizability.report;
  times : stage_times;
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
    solve for a divisor (per [options.time_budget] /
    [options.use_smt_abstraction]) and rewrite the formulas.  Exposed
    for {!Watch}, which re-runs translation and abstraction per edit
    but owns its own synthesis path. *)

val run : ?options:options -> string list -> outcome
(** Full pipeline from requirement sentences (positional identifiers;
    equivalent to {!run_document} over {!Document.of_texts}). *)

val run_document : ?options:options -> Document.t -> outcome
(** Like {!run}, but items whose identifier marks them as environment
    assumptions ({!Document.is_assumption}) become the antecedent of
    the realizability check ([∧A → ∧G]) instead of system obligations.
    Translation, time abstraction and partitioning still treat the
    whole document uniformly, so assumptions share the proposition
    space.  [outcome.formulas] lists every formula in document
    order. *)

val check_formulas :
  ?options:options ->
  ?partition:Speccc_partition.Partition.t ->
  Speccc_logic.Ltl.t list ->
  Speccc_partition.Partition.t * Speccc_synthesis.Realizability.report
(** Stage 2 only: partition (unless given) and synthesis over formulas
    that are already in LTL.  Used by the localization loop and by
    specifications authored directly in LTL. *)

val pp_outcome : Format.formatter -> outcome -> unit
