(** Reduced ordered binary decision diagrams with hash-consing.

    Variables are non-negative integers, and the variable order is the
    numeric order (smaller index = closer to the root), fixed for the
    life of the manager: a caller chooses the order by how it numbers
    its variables.  Nodes are
    hash-consed inside a {!manager}, so structural equality of diagrams
    built in the same manager is physical equality of node identifiers
    ({!equal} is O(1)).

    The package is deliberately classical — unique table, ITE with a
    direct-mapped computed table that grows with the node count,
    quantification, relational product — and is the backend of the
    symbolic synthesis engine. *)

type manager
type t

val manager : unit -> manager
(** A fresh manager with no variables. *)

val node_count : manager -> int
(** Number of hash-consed nodes in the unique table (diagnostics). *)

(** {1 Diagnostics} *)

type counters = {
  nodes : int;      (** nodes ever hash-consed, across all managers *)
  op_hits : int;    (** computed-table hits (ite, quantification,
                        relational product) *)
  op_misses : int;  (** computed-table misses *)
  reorders : int;
      (** always 0, since the variable order is fixed.  The field stays
          because perfbench's [bdd.reorders] metric reads it, and goes
          at the next change to perfbench. *)
}

val counters : unit -> counters
(** Process-wide cumulative counters, for [--stats] and health
    reports. *)

val set_budget : manager -> Speccc_runtime.Budget.t option -> unit
(** Govern this manager: every subsequent node construction spends one
    fuel unit of the budget (stage ["bdd"]), so runaway
    [ite]/quantification fixpoints abort with
    [Speccc_runtime.Runtime.Interrupt] instead of hanging.  [None]
    removes the governor. *)

(** {1 Constants and variables} *)

val zero : manager -> t
val one : manager -> t
val var : manager -> int -> t
(** [var m i] is the diagram of variable [i].  Raises
    [Invalid_argument] on negative [i]. *)

val nvar : manager -> int -> t
(** Negated variable. *)

(** {1 Structure} *)

val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val hash : t -> int

val top_var : t -> int option
(** Root variable, [None] for constants. *)

val top : t -> int
(** Root variable, [-1] for constants — allocation-free variant of
    {!top_var} for hot traversals. *)

val low : t -> t
val high : t -> t
(** Cofactors of a non-constant node; raise [Invalid_argument] on
    constants. *)

(** {1 Boolean operations} *)

val ite : manager -> t -> t -> t -> t
val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor : manager -> t -> t -> t
val imp : manager -> t -> t -> t
val and_list : manager -> t list -> t

(** {1 Quantification and substitution} *)

val exists : manager -> int list -> t -> t
val forall : manager -> int list -> t -> t

val and_exists : manager -> int list -> t -> t -> t
(** [and_exists m vars f g] is [exists m vars (and_ m f g)], the
    relational product (CUDD's [AndAbstract]), computed in one
    recursive pass: the conjunction is never built whole, and each
    variable of [vars] is eliminated as soon as the recursion splits
    on it.  [vars] may be empty (the result is [and_ m f g]) and may
    name variables outside both supports.  Results share the [ite]
    computed table. *)

val restrict : manager -> (int * bool) list -> t -> t
(** Cofactor with respect to an assignment of some variables. *)

val compose : manager -> int -> t -> t -> t
(** [compose m v g f] substitutes diagram [g] for variable [v] in
    [f]. *)

val rename : manager -> (int * int) list -> t -> t
(** Variable renaming.  The mapping must be injective;
    order-compatibility is {e not} required (implemented via compose,
    so arbitrary renamings are correct, just slower for large
    shifts). *)

val rename_monotone : manager -> (int * int) list -> t -> t
(** Renaming by a single memoized traversal — fast, but only sound
    when the mapping is strictly increasing on the diagram's support and no target variable occurs in the
    support.  Raises [Invalid_argument] when the mapping is not
    monotone; the support condition is the caller's responsibility.
    This is the workhorse for current-state/next-state swaps in
    interleaved layouts. *)

(** {1 Analysis} *)

val support : t -> int list
(** Variables the diagram depends on, in increasing order (root-most
    first). *)

val sat_count : t -> nvars:int -> float
(** Number of satisfying assignments over [nvars] variables
    ([0 .. nvars-1] all considered, whether or not in the support). *)

val any_sat : t -> (int * bool) list option
(** Some satisfying partial assignment (support variables only), or
    [None] if the diagram is [zero]. *)

val eval : t -> (int -> bool) -> bool
(** Evaluate under a total assignment. *)

val size : t -> int
(** Number of distinct nodes reachable from this diagram (including
    terminals). *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering (variables shown by index). *)
