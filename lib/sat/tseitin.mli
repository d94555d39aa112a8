(** Structural (Tseitin) encoding of boolean circuits into a SAT
    solver.

    Gates return literals of the underlying {!Sat.t}; negation is free
    (literal sign).  A distinguished always-true variable represents
    the constants.  Common gates are cached so that re-encoding the
    same subcircuit reuses the same literal. *)

type t
type lit = int

val create : Sat.t -> t
val solver : t -> Sat.t

val true_lit : t -> lit
val false_lit : t -> lit
val fresh : t -> lit
(** A fresh unconstrained variable (positive literal). *)

val mk_not : lit -> lit
val mk_and : t -> lit list -> lit
val mk_or : t -> lit list -> lit
val mk_xor : t -> lit -> lit -> lit
val mk_iff : t -> lit -> lit -> lit
val mk_ite : t -> lit -> lit -> lit -> lit
(** [mk_ite t c a b] = if [c] then [a] else [b]. *)

val assert_lit : t -> lit -> unit
(** Constrain the literal to hold (adds a unit clause). *)

val lit_value : bool array -> lit -> bool
(** Read a literal's value from a {!Sat.Sat} model. *)
