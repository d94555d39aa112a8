(** A CDCL (conflict-driven clause learning) SAT solver.

    Literals follow the DIMACS convention: variables are positive
    integers [1, 2, ...]; a negative literal [-v] is the negation of
    variable [v]; [0] is invalid.

    The solver is incremental: clauses can be added between [solve]
    calls, and each call may carry assumption literals (checked as
    temporary unit decisions, as in MiniSat).

    Implementation: two-watched-literal propagation, first-UIP clause
    learning, VSIDS-style activity with decay, geometric restarts. *)

type t

type outcome =
  | Sat of bool array
      (** Model indexed by variable (index 0 unused). *)
  | Unsat

val create : unit -> t

val new_var : t -> int
(** Allocate the next fresh variable. *)

val ensure_vars : t -> int -> unit
(** Make sure variables [1..n] exist. *)

val add_clause : t -> int list -> unit
(** Add a clause.  The empty clause makes the instance trivially
    unsatisfiable.  Raises [Invalid_argument] on literal [0]. *)

val solve :
  ?budget:Speccc_runtime.Budget.t -> ?assumptions:int list -> t -> outcome
(** When [budget] is given, one fuel unit is spent per decision and
    per conflict; exhaustion raises
    [Speccc_runtime.Runtime.Interrupt] out of the search (the solver
    may be left mid-search — discard it afterwards).  The fault
    checkpoint ["sat.solve"] is announced on entry. *)

val num_vars : t -> int
val num_clauses : t -> int
(** Problem clauses (not counting learned ones). *)

val num_conflicts : t -> int
(** Total conflicts over the solver's lifetime (diagnostics). *)

val solve_clauses :
  ?budget:Speccc_runtime.Budget.t ->
  ?assumptions:int list ->
  int list list ->
  outcome
(** One-shot convenience: build a solver, add the clauses, solve. *)

