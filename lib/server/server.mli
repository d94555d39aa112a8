(** Supervised service mode: long-running consistency checking behind
    a JSONL request/response protocol ([speccc serve]).

    {2 Protocol}

    One JSON object per line on the way in, one per line on the way
    out.  Requests:

    {v
    {"id":1,"doc":"R1: If the button is pressed, ...\n..."}
    {"id":"r2","path":"spec.txt","options":{"fuel":50000,"deadline":2.5}}
    {"id":3,"cmd":"health"}
    {"id":4,"cmd":"shutdown"}
    v}

    A [check] request (the default [cmd]) is answered with the echoed
    [id] followed by the {!Speccc_harness.Harness.journal_fields}
    verdict schema, in its order:

    {v
    {"id":1,"doc":"1","verdict":"consistent","engine":"symbolic",...}
    v}

    [options.fuel] counts only when it is an integer in OCaml's [int]
    range; otherwise the configured fuel applies.  Error responses are
    typed: [{"id":..,"error":"overloaded","queue_depth":n}] when the
    queue is past its high-water mark,
    [{"id":..,"error":"bad_request","detail":..}] for malformed input,
    i.e. anything {!Speccc_json.Jsonl.parse} rejects (a lone surrogate
    [\u] escape included; the [id] is then [null]) or a request
    without a document.
    Every request gets exactly one response; none are dropped.

    {2 Supervision}

    A pool of worker domains checks requests.  Each request runs under
    a wall-clock watchdog with two-stage escalation: at [deadline] the
    request's cancellation token trips (a cooperative engine aborts at
    its next budget poll); at [deadline + grace] the worker is
    presumed wedged between checkpoints, so the watchdog answers
    [unknown] (detail [Degraded ("watchdog", Timeout _)]) on its
    behalf, retires the worker in place, and spawns a replacement
    domain with fresh per-domain caches.  Either way a request whose
    deadline passed is answered [unknown] within [deadline + grace]
    wall seconds ([grace] is clamped to [deadline], so within 2x the
    deadline).

    Per-rung circuit {!Breaker}s, one for each name in
    {!Speccc_synthesis.Realizability.rung_names}, skip ladder rungs that
    keep raising [Engine_failure].  Drain — EOF on the input, a [shutdown]
    request, or the [stop] flag (wired to SIGTERM/SIGINT by the CLI) —
    finishes in-flight and queued work, flushes the journal, and
    returns; wedged workers are waited on for [drain_wait] seconds,
    then leaked (reported in {!stats.leaked_workers}).

    A preempted request is not answered with a bare timeout: the
    response carries the victim's last published anytime [progress]
    frontier, the frontier is saved (in memory, and in the store when
    one is wired), and the next request for the same document warm-
    replays it — the engines resume from the saved bound instead of
    cold-starting.  See {!Speccc_runtime.Snapshot}.

    The [health] response carries the full supervision picture: queue
    depth, live workers, restart/shed/watchdog counters, per-rung
    breaker objects [{"state","opens","failures"}], an [anytime]
    object (total and per-worker [preempted]/[resumed] counters plus
    the saved-snapshot count), a [memory] object (GC counters and the
    {!Speccc_runtime.Memwatch} watermark state), cache and
    hash-consing counters, and (when a {!config.store} is wired) the
    verdict-store counters — the shard router's probe reads these to
    decide failover and to verify a respawned worker carries no
    phantom open breakers. *)

type config = {
  harness : Speccc_harness.Harness.config;
      (** per-request checking options (retries, certify, fuel
          default...).  The harness journal/resume/jobs fields are
          ignored per request; [harness.journal] names the server's
          own journal, written once per response. *)
  workers : int;             (** worker domains (floored at 1; default 2) *)
  queue_capacity : int;      (** queued requests before the reader blocks *)
  high_water : int option;
      (** shed (typed [overloaded] response) once the queue holds this
          many requests; [None] = never shed, block only *)
  deadline : float;          (** default per-request wall seconds *)
  grace : float;
      (** extra seconds after the deadline before hard preemption;
          clamped per-request to the request's deadline *)
  watchdog_poll : float;     (** watchdog polling interval, seconds *)
  breaker_threshold : int;   (** consecutive failures that open a rung *)
  breaker_cooldown : float;  (** seconds an open breaker skips its rung *)
  drain_wait : float;        (** seconds to wait on wedged workers at drain *)
  store : Speccc_store.Store.t option;
      (** persistent verdict store; when set, every request consults it
          before any engine runs and every fresh definite verdict is
          persisted to it ({!Speccc_harness.Harness.config.store_find}
          hooks, keyed by content identity salted with
          {!Speccc_store.Store.salt_of_options}).  Its counters join the
          [health] response.  Default [None]. *)
}

val default_config : unit -> config

type stats = {
  served : int;          (** responses written (checks + watchdog answers) *)
  shed : int;            (** [overloaded] responses *)
  bad_requests : int;
  watchdog_trips : int;  (** deadlines that tripped a token *)
  escalations : int;     (** hard preemptions *)
  restarts : int;        (** replacement workers spawned *)
  leaked_workers : int;  (** wedged domains still running at drain *)
  max_queue_depth : int;
  preempted : int;
      (** requests the watchdog answered with a partial verdict
          ([unknown] plus the victim's last [progress] frontier) *)
  resumed : int;
      (** checks that warm-started from a saved anytime snapshot
          instead of cold-starting *)
  breakers : (string * string) list;  (** rung, final breaker state *)
}

val run :
  ?stop:(unit -> bool) ->
  config ->
  input:Unix.file_descr ->
  output:out_channel ->
  stats
(** Serve JSONL requests from [input] until EOF, a [shutdown] request,
    or [stop] returns true (polled at least every 0.1 s; the CLI sets
    it from SIGTERM/SIGINT handlers), then drain and return.  The
    input is read with [select]-based polling, never a blocking
    channel read, so the stop flag always wakes the reader. *)

val run_socket : ?stop:(unit -> bool) -> config -> path:string -> stats
(** Like {!run} over a Unix-domain socket: bind [path] (replacing a
    stale socket file), accept one connection at a time, serve each
    until its EOF, and keep accepting until [shutdown] or [stop].
    Pool, breakers and counters persist across connections.  The
    socket file is removed on return. *)

val pp_stats : Format.formatter -> stats -> unit
