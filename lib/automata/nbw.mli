(** Nondeterministic Büchi automata from LTL, via the classic tableau
    construction of Gerth, Peled, Vardi and Wolper (GPVW), followed by
    counter-based degeneralization.

    Transition guards are conjunctions of literals (partial
    assignments): a guard [[("a", true); ("b", false)]] is enabled by
    every letter where [a] holds and [b] does not, regardless of other
    propositions. *)

type guard = (string * bool) list
(** Conjunction of literals; the empty guard is [true].  Guards
    produced by the construction never bind the same proposition
    twice. *)

type t = {
  num_states : int;
  initial : int list;
  accepting : bool array;  (** length [num_states] *)
  transitions : (int * guard * int) list;
  atoms : string list;     (** propositions mentioned by the guards *)
}

val of_ltl : ?budget:Speccc_runtime.Budget.t -> Speccc_logic.Ltl.t -> t
(** Büchi automaton accepting exactly the models of the formula.  When
    [budget] is given, one fuel unit is spent per tableau node (stage
    ["tableau"]) and exhaustion raises
    [Speccc_runtime.Runtime.Interrupt]; the fault checkpoint
    ["tableau.expand"] is announced per node.

    Construction is memoized per domain by formula id (cache
    ["nbw.of_ltl"]), so repeated translations of the same formula —
    e.g. across the bound-escalation loops of the explicit and SAT
    engines — are free.  On a formula-cache miss, formulas that
    instantiate a catalogue template shape ({!Template.abstract}) are
    served by atom substitution into one compiled automaton per shape
    (cache ["nbw.template"]) instead of running the tableau.  Under a
    budget a cache hit charges the tableau nodes its cold build cost,
    one unit at a time, so fuel accounting and exhaustion are the same
    with a warm or a cold cache.  An armed fault plan bypasses both
    caches, preserving fault-checkpoint hit counts. *)

val guard_holds : guard -> (string * bool) list -> bool
(** Is the guard enabled by the (total or partial, missing = false)
    assignment? *)

val successors : t -> int -> (string * bool) list -> int list
(** States reachable from a state under a letter. *)

val accepts_lasso : t -> Speccc_logic.Trace.t -> bool
(** Membership test for an ultimately periodic word (used to validate
    the construction against {!Speccc_logic.Trace.holds}). *)

val find_word : t -> Speccc_logic.Trace.t option
(** A lasso word the automaton accepts, or [None] when its language is
    empty.  Letters instantiate the guards along the witness (unbound
    propositions default to false).  Emptiness of [of_ltl f] decides
    satisfiability of [f]; the witness is a model. *)

val is_empty : t -> bool

val pp_dot : Format.formatter -> t -> unit
