(** A small SMT solver for bounded-integer (non)linear arithmetic,
    implemented by bit-blasting onto the CDCL SAT solver — the role
    Yices 2 plays in the paper's time-abstraction step (Sec. IV-E),
    which explicitly names bit-blasting as the decision strategy.

    Terms denote integers; every variable carries finite bounds, so
    formulas are effectively propositional.  Multiplication of two
    variables is supported (the paper's constraint system is nonlinear
    of degree 2: [θi = θ'i × d + Δi]). *)

type ctx
type term

val create : unit -> ctx

val const : ctx -> int -> term
val var : ctx -> lo:int -> hi:int -> term
(** Fresh integer variable constrained to [[lo, hi]].  Raises
    [Invalid_argument] if [lo > hi]. *)

val add : ctx -> term -> term -> term
val sub : ctx -> term -> term -> term
val mul : ctx -> term -> term -> term
val neg : ctx -> term -> term
val scale : ctx -> int -> term -> term
val sum : ctx -> term list -> term

(** {1 Atoms and assertions} *)

type atom

val eq : ctx -> term -> term -> atom
val le : ctx -> term -> term -> atom
val lt : ctx -> term -> term -> atom
val ge : ctx -> term -> term -> atom
val gt : ctx -> term -> term -> atom

val assert_atom : ctx -> atom -> unit

(** {1 Solving} *)

type model

val value : model -> term -> int
(** Value of a term in the model. *)

val solve : ctx -> model option
(** [None] when the asserted atoms are unsatisfiable. *)

val minimize : ctx -> term -> (int * model) option
(** [minimize ctx obj] finds the least value of [obj] under the current
    assertions (binary search over SAT calls with assumption literals).
    Does not permanently constrain the context. *)

val minimize_lex : ctx -> term list -> (int list * model) option
(** Lexicographic minimization: earlier objectives dominate.  Each
    optimum found is asserted before optimizing the next objective, so
    this {e does} constrain the context (mirrors the paper's reduction
    of the two-objective problem to a single-objective one with the
    primary optimum pinned). *)

val stats : ctx -> int * int
(** [(sat_variables, sat_clauses)] — for the evaluation tables. *)
