(** Deterministic fault injection.

    Engines announce named checkpoints ({!hit}, {!corrupt}).  Normally
    a hit is a single memory read; when a plan is {!install}ed, the
    n-th hit of a named checkpoint deterministically performs its
    action — raising a typed error, delaying, or (for corrupt-capable
    checkpoints) corrupting the emitted artifact — so every recovery
    path of the fallback ladder {e and} every certificate-rejection
    path is exercisable from tests without pathological inputs.

    The checkpoint vocabulary is a registry ({!Checkpoint}): every
    announcing module registers its sites at init, and tests, the
    chaos explorer, and the CLI ([speccc --list-faults]) enumerate it
    from there instead of hardcoding strings.

    Installation is global and {e off by default}.  The plan state is
    protected by a mutex, so checkpoints may be announced from any
    domain or thread: hit counts are exact under a parallel batch, and
    a [Delay] sleeps outside the lock so it stalls only the announcing
    domain.  [install]/[clear] swap the whole plan atomically; they are
    meant for tests and chaos drills, not for racing against each
    other. *)

type action =
  | Fail of string    (** raise [Engine_failure (checkpoint, message)] *)
  | Timeout_now       (** raise [Timeout checkpoint] *)
  | Exhaust           (** raise [Fuel_exhausted checkpoint] *)
  | Delay of float    (** sleep this many seconds, then continue *)
  | Corrupt
      (** at a {!corrupt} checkpoint: silently mangle the emitted
          artifact (the site decides how); ignored by {!hit} sites *)

type trigger = {
  checkpoint : string;
  after : int;
      (** fire on the [after]-th hit (0 = first); negative = derive a
          small deterministic count from the installed seed *)
  action : action;
}

val install : ?seed:int -> trigger list -> unit
(** Replace the active plan.  [seed] (default 0) resolves negative
    [after] fields reproducibly. *)

val clear : unit -> unit
(** Disarm all triggers and reset hit counters. *)

val active : unit -> bool

val hit : string -> unit
(** Announce a checkpoint.  No-op (one read) when no plan is
    installed; otherwise counts the hit and performs a matching
    trigger's action, raising {!Runtime.Interrupt} for failing
    actions.  [Corrupt] triggers never fire at a [hit] site.  A
    trigger fires at most once. *)

val corrupt : string -> bool
(** Announce a corrupt-capable checkpoint.  Counts like {!hit} and
    performs raising/delaying triggers the same way; returns [true]
    exactly when an armed [Corrupt] trigger fires at this hit, in
    which case the caller must mangle the artifact it is about to
    emit.  [false] (one read) when disarmed. *)

val hits : string -> int
(** Hits recorded at a checkpoint since the last [install]/[clear]
    (0 when inactive). *)

val set_observer : (string -> unit) option -> unit
(** Install (or remove, with [None]) a process-global trace observer.
    The observer is called with the checkpoint name on {e every}
    announce — with or without an installed plan, before any trigger
    fires — so a clean run's ordered checkpoint stream can be
    recorded.  The chaos explorer uses this for its trace phase; the
    callback must be fast and must not announce checkpoints itself. *)

val in_scope : string -> (unit -> 'a) -> 'a
(** Run [f] with [name] pushed on the calling domain's checkpoint
    scope stack.  Guarded I/O paths (store append, journal line,
    socket write) wrap their syscalls in the scope of the checkpoint
    that covers them, which is what the strict-I/O lint checks. *)

val current_scope : unit -> string option
(** Innermost enclosing checkpoint scope on this domain, if any. *)

val strict_io : bool -> unit
(** Arm (or disarm) the strict-I/O lint and reset its findings.  While
    armed, {!io_event} calls with no enclosing {!in_scope} are
    recorded as violations. *)

val io_event : string -> unit
(** Announce a raw I/O operation of the given kind (["unix.write"],
    ["journal.write"], …).  A single atomic read when the lint is
    disarmed; when armed and no checkpoint scope encloses the call,
    the event is booked as unguarded. *)

val unguarded_io : unit -> (string * int) list
(** Unguarded I/O events recorded since the lint was last armed,
    sorted by kind.  Empty means every I/O path announced under an
    enclosing checkpoint. *)

(** The registered checkpoint vocabulary.  Announcing modules
    {!Checkpoint.register} their sites at module init and keep the
    returned name; tests install triggers through the constants; the
    CLI and the chaos explorer enumerate {!Checkpoint.all}. *)
module Checkpoint : sig
  val register : ?corruptible:bool -> string -> string -> string
  (** [register name desc] adds a checkpoint to the registry (idempotent
      per name) and returns [name].  [corruptible] marks sites that
      honor a [Corrupt] trigger via {!corrupt}. *)

  val all : unit -> (string * string) list
  (** [(name, description)] for every registered checkpoint, in
      registration (link) order. *)

  val mem : string -> bool

  val corruptible : string -> bool
  (** Whether the named site was registered as corrupt-capable. *)

  val sat_solve : string

  val timeabs_solve : string
  (** announced by the pipeline before it solves the Sec. IV-E
      optimum of a non-empty Θ under a time budget *)

  val tableau_expand : string
  val bdd_fixpoint : string
  val engine_symbolic : string
  val engine_explicit : string
  val pipeline_lint : string

  val witness_controller : string
  (** controller emission ({!corrupt} site: output bits are flipped) *)

  val witness_counterstrategy : string
  (** counterstrategy emission ({!corrupt} site: moves are scrambled) *)

  val witness_core : string
  (** unsat-core emission ({!corrupt} site: the core is emptied) *)

  val harness_document : string
  (** announced by the batch harness before each document, {e outside}
      the per-document confinement — a raising trigger here kills the
      whole run, simulating a crash for resume drills *)

  val server_request : string
  (** announced by a serve-mode worker just before it starts a
      request, {e inside} its confinement — a [Delay] here models an
      engine stalled between budget checkpoints, the scenario the
      watchdog's hard preemption exists for *)

  val store_append : string
  (** announced by the verdict store before appending a record — a
      raising trigger models the process dying mid-write; a [Corrupt]
      trigger leaves a torn half-frame on disk, the tail the store's
      open-time recovery truncates *)
end
