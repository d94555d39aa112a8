(** Deterministic resource budgets.

    A budget combines a {e fuel} counter (abstract engine steps:
    SAT decisions and conflicts, BDD node constructions, tableau node
    expansions, game positions) with an optional wall-clock deadline
    and an optional {!Cancellation.token}.  Fuel makes termination
    deterministic and test-reproducible; the deadline and the token
    are polled only every few steps so the hot-loop cost stays one
    integer decrement and compare.

    {!checkpoint} is the single primitive engines call from their hot
    loops.  It raises {!Runtime.Interrupt} — callers confine it with
    {!Runtime.guard} at the engine boundary. *)

type t

val max_poll_interval : int
(** Hard upper bound (1024) on the number of steps between two
    deadline/cancellation polls, whatever [poll_every] was requested.
    This bounds cancellation latency in steps. *)

val create :
  ?fuel:int ->
  ?deadline_in:float ->
  ?cancel:Cancellation.token ->
  ?poll_every:int ->
  ?snapshot:Snapshot.slot ->
  unit ->
  t
(** [create ?fuel ?deadline_in ?cancel ()].  [fuel] is the number of
    steps allowed (omitted = unlimited); [deadline_in] is seconds from
    now (omitted = none); [poll_every] (default 256, clamped to
    [1..max_poll_interval]) is the polling period for the deadline and
    the token; [snapshot] is an optional anytime-progress slot shared
    with the supervisor (see {!Snapshot}). *)

val unlimited : unit -> t
(** No fuel limit, no deadline, no token.  [checkpoint] still counts
    steps (for diagnostics) but never raises. *)

val spent : t -> int
(** Steps consumed so far (including those charged by children via
    {!absorb}). *)

val remaining : t -> int option
(** Fuel left; [None] when unlimited. *)

val exhausted : t -> bool

val checkpoint : t -> stage:string -> unit
(** Spend one step.  Raises [Runtime.Interrupt (Fuel_exhausted stage)]
    when the fuel is gone (the refused step is not counted, so [spent]
    never exceeds the fuel given), and — on poll steps —
    [Runtime.Interrupt (Timeout stage)] past the deadline or
    [Runtime.Interrupt (Cancelled stage)] on a triggered token. *)

val check : t -> stage:string -> (unit, Runtime.error) result
(** Non-raising {!checkpoint}, and it always polls. *)

val child : t -> fuel:int -> t
(** A sub-budget for one rung of a fallback ladder: its own fuel pool
    ([min fuel (remaining parent)] when the parent is finite), sharing
    the parent's deadline and cancellation token.  Charge the spend
    back with {!absorb}. *)

val reserve : t -> fuel:int -> t
(** Like {!child}, but [fuel] is not capped by the parent's remaining
    fuel: a reserve for work that runs after the parent's fuel is gone
    (the pipeline's lint floor and certification), still bound by the
    parent's deadline and cancellation token. *)

val absorb : t -> t -> unit
(** [absorb parent c] debits [spent c] from [parent]'s fuel (saturating
    at zero) and adds it to [spent parent].  Call once per child. *)

val slot : t -> Snapshot.slot option
(** The anytime-progress slot, if one was attached.  Children share
    their parent's slot. *)

val publish : t -> Snapshot.t -> unit
(** Publish a progress frontier to the attached slot; no-op without
    one.  Engines call this at completed escalation steps so a
    preempting supervisor sees the newest resumable state. *)

val resume_for : t -> engine:string -> Snapshot.t option
(** The armed resume snapshot for [engine], if the slot holds one.
    Engines call this once at start-up to skip already-completed
    escalation work. *)
