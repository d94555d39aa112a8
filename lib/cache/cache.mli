(** Bounded memoization caches with shared statistics.

    Every cache created through {!Make.create} registers itself under a
    name; {!stats} aggregates hit/miss/eviction counters across all
    instances that share a name (one instance per domain is the normal
    pattern — see {!Make.create_dls}).  A global {!set_enabled} switch
    turns every cache into a pass-through, which the test-suite uses to
    show that verdicts do not depend on memoization. *)

type stats = {
  name : string;        (** registration name, e.g. ["nbw.of_ltl"] *)
  hits : int;
  misses : int;
  evictions : int;
  size : int;           (** live entries across all same-named instances *)
  capacity : int;       (** per-instance bound *)
}

val capacity : name:string -> default:int -> int
(** Central sizing table: the configured capacity for a cache name, or
    [default] when the name has no entry.  Call sites create caches
    with [~capacity:(capacity ~name ~default:...)] so every budget
    lives in one table in this module. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Disable ([false]) or re-enable ([true]) every cache globally.
    While disabled, {!Make.memo} always recomputes and no counters
    move.  Intended for correctness A/B tests, not production. *)

val stats : unit -> stats list
(** Aggregated counters for every cache name seen so far, sorted by
    name.  Thread-safe. *)

val reset : unit -> unit
(** Clear all registered cache instances and zero their counters. *)

val shed : unit -> unit
(** Drop every entry from every registered instance but keep the
    hit/miss counters (each dropped entry counts as an eviction) —
    the memory-watermark shedding hook
    ({!Speccc_runtime.Memwatch.on_soft}).  Safe to call from any
    thread: instances are single-domain for {e lookups}, but a shed
    only unlinks entries, and the worst race outcome is a recomputed
    memo. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)], or [0.] before any lookup. *)

val pp_stats : Format.formatter -> stats list -> unit
(** Render one aligned line per cache, as printed under [--stats]. *)

(** Hashtbl-style keys; equality and hash must agree. *)
module type KEY = sig
  type t
  val equal : t -> t -> bool
  val hash : t -> int
end

module Int_key : KEY with type t = int
(** Formula ids ({!val:Speccc_logic.Ltl.id}) and small packed keys. *)

module String_key : KEY with type t = string
(** Textual keys, e.g. requirement sentences in the parse cache. *)

module Make (K : KEY) : sig
  type 'a t

  val create : name:string -> capacity:int -> unit -> 'a t
  (** A fresh LRU instance holding at most [capacity] entries.
      Instances are not thread-safe; create one per domain. *)

  val create_dls : name:string -> capacity:int -> unit -> 'a t Domain.DLS.key
  (** A domain-local cache: each domain that touches the key lazily
      gets its own instance registered under the same [name]. *)

  val find_opt : 'a t -> K.t -> 'a option
  val add : 'a t -> K.t -> 'a -> unit

  val memo : 'a t -> K.t -> (unit -> 'a) -> 'a
  (** [memo c k f] returns the cached value for [k], or runs [f],
      stores the result, and returns it.  When caching is disabled
      globally this is just [f ()]. *)

  val length : 'a t -> int
  val clear : 'a t -> unit
end
