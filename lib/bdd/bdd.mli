(** Reduced ordered binary decision diagrams with hash-consing.

    Variables are non-negative integers; the variable order is the
    numeric order (smaller index = closer to the root) until
    {!reorder} installs a different permutation.  Nodes are
    hash-consed inside a {!manager}, so structural equality of diagrams
    built in the same manager is physical equality of node identifiers
    ({!equal} is O(1)).

    The package is deliberately classical — unique table, ITE with a
    direct-mapped computed table, quantification, relational product,
    group-sifting reordering — and is the backend of the symbolic
    synthesis engine. *)

type manager
type t

val manager : unit -> manager
(** A fresh manager with no variables. *)

val node_count : manager -> int
(** Number of hash-consed nodes in the unique table (diagnostics). *)

val clear_caches : manager -> unit
(** Drop operation caches (unique table is kept). *)

(** {1 Diagnostics} *)

type counters = {
  nodes : int;      (** nodes ever hash-consed, across all managers *)
  op_hits : int;    (** computed-table hits (ite, quantification,
                        relational product) *)
  op_misses : int;  (** computed-table misses *)
  reorders : int;   (** dynamic reordering passes *)
}

val counters : unit -> counters
(** Process-wide cumulative counters, for [--stats] and health
    reports. *)

val has_budget : manager -> bool
(** Whether a governor budget is currently installed. *)

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

val level : manager -> int -> int
(** Order position of a variable: smaller = closer to the root.  The
    identity until {!reorder} installs a permutation. *)

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
val eqv : manager -> t -> t -> t
val and_list : manager -> t list -> t
val or_list : manager -> t list -> t

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
    when the mapping is strictly increasing along the variable order
    on the diagram's support and no target variable occurs in the
    support.  Raises [Invalid_argument] when the mapping is not
    monotone; the support condition is the caller's responsibility.
    This is the workhorse for current-state/next-state swaps in
    interleaved layouts. *)

(** {1 Analysis} *)

val support : manager -> t -> int list
(** Variables the diagram depends on, in variable-order position
    (root-most first). *)

val sat_count : manager -> t -> nvars:int -> float
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

(** {1 Dynamic variable reordering}

    Nodes are immutable, so reordering cannot patch the live graph in
    place the way mutable BDD packages do.  Instead {!reorder} sifts a
    scratch copy of everything reachable from the supplied roots and
    rebuilds it under the improved order, returning the translated
    roots (in the same positions).  {b Every [t] of this manager not
    passed as a root is invalid after the call} — callers must thread
    their complete live set through.  The rebuild also collects
    garbage: nodes unreachable from the roots are dropped from the
    unique table. *)

val set_reorder_threshold : manager -> int option -> unit
(** Unique-table size at which {!reorder_due} starts reporting [true];
    [None] (the default) disables the trigger.  After a reordering the
    threshold is doubled from the surviving live size, so the trigger
    fires on growth, not on every subsequent operation. *)

val reorder_due : manager -> bool
(** Whether the unique table has outgrown the configured threshold. *)

val reorder :
  manager ->
  ?pinned:int -> ?groups:int list list -> ?candidates:int ->
  t list -> t list
(** [reorder m ~pinned ~groups roots] runs one pass of Rudell group
    sifting over the [candidates] heaviest groups (default 32) and
    returns the roots rebuilt under the new order.
    [pinned] keeps the top [pinned] order positions fixed (used to keep
    input variables root-most so strategy extraction can cofactor on
    them); [groups] lists variables that must stay adjacent, in their
    current relative order — e.g. interleaved current/next state pairs
    whose adjacency monotone renaming relies on.  Raises
    [Invalid_argument] if a group is not contiguous in the current
    order. *)

val reorders : manager -> int
(** Reordering passes performed by this manager. *)
