(** Linear temporal logic: abstract syntax and structural operations.

    The grammar follows Sec. IV-A of the paper:
    {v φ ::= p | ¬φ | φ ∨ φ | Xφ | ♦φ | □φ | φ U φ v}
    extended with the derived connectives the paper uses (∧, →, ↔) and
    with the weak-until and release operators needed by negation normal
    form and by the translator's Universality templates. *)

type t =
  | True
  | False
  | Prop of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t
  | Next of t
  | Eventually of t
  | Always of t
  | Until of t * t
  | Weak_until of t * t
  | Release of t * t

(** {1 Smart constructors}

    These perform only constant folding (identities involving [True]
    and [False], plus collapsing physically equal operands of [conj]
    and [disj]) so that formulas stay syntactically close to their
    source requirement, as the paper's appendix output does.  Every
    node they allocate is interned in a per-domain unique table
    (hash-consing), so structurally equal results of smart
    construction are physically equal within a domain. *)

val tt : t
val ff : t
val prop : string -> t
val neg : t -> t
val conj : t -> t -> t
val disj : t -> t -> t
val implies : t -> t -> t
val iff : t -> t -> t
val next : t -> t
val eventually : t -> t
val always : t -> t
val until : t -> t -> t
val weak_until : t -> t -> t
val release : t -> t -> t

val conj_list : t list -> t
(** [conj_list [f1; ...; fn]] is [f1 ∧ ... ∧ fn] ([True] when empty). *)

val disj_list : t list -> t
(** [disj_list [f1; ...; fn]] is [f1 ∨ ... ∨ fn] ([False] when empty). *)

val next_n : int -> t -> t
(** [next_n k f] is [X^k f]. Raises [Invalid_argument] if [k < 0]. *)

(** {1 Hash-consing}

    Every smart-constructor allocation goes through a per-domain
    unique table, assigning each structurally-distinct formula a small
    integer {!id}.  Ids are stable for the lifetime of the domain and
    are the keys of every memo table in this library, but their
    numeric order depends on interning order and therefore differs
    between domains: use them for memoization, never for anything that
    can leak into output ordering (that is what the structural
    {!compare} below is for). *)

val intern : t -> t
(** The canonical (maximally shared) node for this formula in the
    current domain.  Structurally equal inputs return the same
    physical node; interning a formula built from raw constructors is
    how pattern-built terms join the shared world. *)

val id : t -> int
(** The unique id of the formula's canonical node, interning it first
    when needed.  Two formulas have the same id iff they are
    structurally equal (within one domain). *)

val equal_fast : t -> t -> bool
(** Same relation as {!equal}; O(1) on interned formulas. *)

val compare_fast : t -> t -> int
(** A total order consistent with {!equal}, by id — cheap, but
    domain-dependent; see the warning above. *)

type hashcons_stats = { nodes : int; hc_hits : int; hc_misses : int }

val hashcons_stats : unit -> hashcons_stats
(** Unique-table counters for the current domain: distinct nodes ever
    interned, and lookup hits/misses (hits measure sharing). *)

(** {1 Structure} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val size : t -> int
(** Number of AST nodes. *)

val props : t -> string list
(** Propositions occurring in the formula, sorted, without duplicates. *)

val next_depth : t -> int
(** Maximal nesting depth of [Next]; the paper's θ for a requirement. *)

val next_chains : t -> int list
(** Lengths of all maximal chains of consecutive [Next] operators,
    longest first, without duplicates; the paper's set Θ (Sec. IV-E)
    restricted to one formula. A chain of length 0 is never reported. *)

val map_props : (string -> t) -> t -> t
(** Substitute every proposition by a formula. *)

val subformulas : t -> t list
(** All distinct subformulas, in bottom-up order (operands before
    operators). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
