(** Two's-complement bit-vector circuits over a {!Speccc_sat.Tseitin}
    context.

    A bit vector is a list of literals, least-significant bit first;
    the most significant bit is the sign.  All operations return
    freshly encoded vectors; widths are managed explicitly
    (sign-extension happens inside binary operations). *)

open Speccc_sat

type t = Tseitin.lit list
(** LSB first; the last literal is the sign bit.  Never empty. *)

val width : t -> int

val of_int : Tseitin.t -> width:int -> int -> t
(** Constant vector; raises [Invalid_argument] if the value does not
    fit in [width] two's-complement bits. *)

val fresh : Tseitin.t -> width:int -> t
(** Vector of fresh unconstrained variables. *)

val width_for : int -> int -> int
(** [width_for lo hi] is the least two's-complement width holding every
    integer in [[lo, hi]]. *)

val add : Tseitin.t -> t -> t -> t
(** Sum, one bit wider than the wider operand (never overflows). *)

val neg : Tseitin.t -> t -> t
(** Two's-complement negation, one bit wider (so [neg min_int] fits). *)

val sub : Tseitin.t -> t -> t -> t

val mul : Tseitin.t -> t -> t -> t
(** Product, width = sum of operand widths. *)

val eq : Tseitin.t -> t -> t -> Tseitin.lit
val le : Tseitin.t -> t -> t -> Tseitin.lit
val lt : Tseitin.t -> t -> t -> Tseitin.lit

val decode : bool array -> t -> int
(** Read the vector's signed value from a SAT model. *)
