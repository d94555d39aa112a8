(** Inconsistency localization (Sec. V-B, first bullet): starting from
    a consistent subset, requirements are added one at a time; the
    first addition that breaks consistency is the culprit.  The other
    requirements are then filtered by relevance (shared propositions
    with the culprit), and a minimal inconsistent partner set inside
    the relevant requirements is extracted by a delta-debugging-style
    shrink, which handles the paper's "not neighbored" case. *)

type result = {
  culprit : int;
      (** index of the requirement that broke consistency *)
  consistent_prefix : int list;
      (** indices accepted before the culprit *)
  relevant : int list;
      (** indices sharing propositions with the culprit *)
  partners : int list;
      (** minimal subset of [relevant] that is inconsistent together
          with the culprit *)
}

type memo
(** Session-scoped subset-verdict store, keyed by the {e sorted
    formula-id set} of each checked conjunction — content-addressed,
    so an edited requirement (fresh hash-cons id) can never be served
    a stale verdict.  Create one per long-lived session (the watch
    mode keeps one per document session) and pass it to every {!run}
    whose [check] closes over the same options; runs without a memo
    share nothing. *)

val memo : unit -> memo

val memo_length : memo -> int
(** Number of stored subset verdicts. *)

val prune_memo : memo -> retain:(int -> bool) -> int
(** Drop every entry mentioning a formula id for which [retain]
    returns [false]; returns how many entries were dropped.  The watch
    session calls this after an edit with the surviving document's
    formula ids, so verdicts about edited-away requirements do not
    accumulate. *)

val run :
  ?memo:memo ->
  check:(Speccc_logic.Ltl.t list -> bool) ->
  Speccc_logic.Ltl.t list ->
  result option
(** [run ~check formulas]: [check] decides consistency of a subset
    ({!Refine.localize}'s: realizability under the document's
    assumptions and partition).  Returns
    [None] when the whole specification is consistent.  A requirement
    that is inconsistent on its own is reported as culprit with an
    empty partner set.

    Subset verdicts are memoized in one table keyed by the sorted
    formula ids of each subset, so [check] is invoked at most once per
    distinct requirement set; it must therefore be deterministic and
    extensional (order- and duplicate-insensitive), which holds for
    conjunction-based consistency checks.  Without [memo] the table is
    fresh for this run and verdicts never leak between runs.  With
    [memo], it is the caller's table: a subset whose formula-id set
    was decided by an earlier run (e.g. before an unrelated edit) is
    answered without invoking [check], which must therefore also be
    stable across those runs: same engine options, and whatever else
    the verdict depends on must not have changed either — for
    {!Refine.localize}, the assumptions and the class of each
    proposition, which {!Watch} prunes on. *)

val pp : Format.formatter -> result -> unit
