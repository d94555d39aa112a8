(** Serializable progress frontiers for anytime verdicts.

    A snapshot records how far a long-running engine search got — the
    explicit game's escalation bound, the symbolic fixpoint's layer
    and completed look-ahead — as an engine-tagged key/value record.
    Its one serialization is a JSON object ({!to_json}), the same
    object the journal, serve responses and the verdict store's
    snapshot records carry.  Supervisors carry the last published
    snapshot across a preemption (watchdog trip, harness retry, worker
    respawn) so the next attempt resumes instead of cold-starting.

    Corruption tolerance is structural: {!of_json} returns [None] for
    any other shape, and a consumer that gets [None] simply cold
    starts (persisted snapshots are also guarded by the store frame's
    CRC-32).  A snapshot can only skip work that was already completed
    and re-derivable — verdicts still flow through the engines and the
    certificate gate, so a stale or forged snapshot can cost time, not
    soundness. *)

type t

val make : engine:string -> (string * string) list -> t
(** [make ~engine fields].  [engine] is the producing rung
    ("symbolic", "explicit"). *)

val engine : t -> string
val fields : t -> (string * string) list
val field : t -> string -> string option
val int_field : t -> string -> int option
val with_field : t -> string -> string -> t
(** Functional field update (replaces an existing binding). *)

val to_json : t -> Speccc_json.Jsonl.t
(** [{"engine":E,"k1":"v1",...}]: the engine tag first, then the
    fields in order, every value a JSON string. *)

val of_json : Speccc_json.Jsonl.t -> t option
(** Inverse of {!to_json}; [None] for any value of another shape (not
    an object, [engine] missing or not first, a non-string value). *)

(** {2 Antichain frontiers}

    The explicit engine's resumable frontier is an antichain of
    counting functions.  These helpers pack one into a single string
    field value (and back). *)

val counts_to_field : int array list -> string

val counts_of_field : string -> int array list option
(** Strict inverse of {!counts_to_field}; [None] on any malformed
    element.  Shape validation (array lengths, value ranges) is the
    consumer's job. *)

(** {2 Slots}

    A slot is the rendezvous between an engine publishing progress
    from its own domain and a supervisor reading it from another
    thread after a preemption.  [latest] is what the current attempt
    has reached; [resume] is what the next attempt starts from. *)

type slot

val slot : unit -> slot

val publish : slot -> t -> unit
(** Record the current attempt's newest frontier. *)

val latest : slot -> t option

val rearm : slot -> unit
(** Copy [latest] into [resume]: arm the next attempt with whatever
    the previous one last published.  No-op when nothing was
    published. *)

val set_resume : slot -> t option -> unit
(** Install an externally persisted snapshot (e.g. replayed from the
    verdict store) as the resume point. *)

val resume_for : slot -> engine:string -> t option
(** The armed resume snapshot, if it belongs to [engine]; counts a
    resume when it matches. *)

val published_count : slot -> int
val resumed_count : slot -> int

val clear : slot -> unit
