(** Template abstraction for the automaton construction.

    Translated requirements overwhelmingly instantiate a handful of
    Dwyer-catalogue template shapes — hundreds of [□(g → ♦r)] response
    instances that differ only in which atoms they mention.  The GPVW
    tableau treats atoms opaquely, so the automaton of such a formula
    is the automaton of its {e shape} with the atoms renamed.
    {!abstract} computes that shape: it recognizes the formula against
    the pattern catalogue ({!Speccc_patterns.Patterns.recognize}) and,
    on a hit, replaces each distinct atom — in first-occurrence
    order — with a canonical slot name.  The consumer
    ({!Speccc_automata.Nbw.of_ltl}) builds one automaton per canonical
    shape and serves later instances by substituting the concrete
    atoms back into the guards, bypassing the tableau entirely.

    Soundness rests on the substitution being a bijection between slot
    names and the formula's atoms: for a bijective atom renaming σ,
    L(σφ) = σ(L(φ)), and renaming an automaton's guard atoms by σ
    realizes exactly that. *)

type abstraction = {
  template : string;  (** pattern-catalogue name, e.g. ["response"] *)
  arity : int;        (** number of distinct atoms = template slots *)
  canonical : Speccc_logic.Ltl.t;
      (** the formula with atom [k] (first-occurrence order) replaced
          by the slot atom [__slot]k; interned, so its id keys the
          compiled shape *)
  mapping : (string * string) list;
      (** slot name → concrete atom, a bijection *)
}

val abstract : Speccc_logic.Ltl.t -> abstraction option
(** The formula's template shape, or [None] when the formula matches
    no catalogue pattern (such formulas take the generic tableau
    path).  [abstract] never fails on a recognized instance: any
    parameter formula abstracts, because the renaming works on atoms,
    not on the pattern's parameter slots. *)
