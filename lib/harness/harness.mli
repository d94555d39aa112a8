(** Crash-safe batch checking: a supervisor that runs the pipeline
    over many requirement documents with per-document error
    confinement, retries with backoff, and a journal that makes
    interrupted runs resumable.

    The contract is the batch analogue of the single-run ladder: one
    document's failure — a parser crash, an engine blow-up, an
    injected fault — never takes down the run; it is confined by
    {!Speccc_runtime.Runtime.guard}, retried under the same budget
    after a bounded exponential backoff, and finally recorded as
    [Failed] if every attempt dies.  Fuel exhaustion is not such a
    failure: the engine ladder
    ({!Speccc_synthesis.Realizability.check}) absorbs it and answers,
    so only a failure outside the ladder (a parser crash, a raising
    fault checkpoint) is retried.

    {2 Journal format}

    The journal is JSON Lines: one object per completed document,
    appended and flushed as soon as the document's verdict is known,
    so a crash loses at most the document in flight.  Every line is
    built and read by {!Speccc_json.Jsonl}.  Fields, in this order:

    {v
    {"doc":"<key>","verdict":"consistent|inconsistent|unknown|failed",
     "engine":"<engine_used>","attempts":<n>,"wall":<seconds>,
     "detail":"<one-line diagnostics>"}
    v}

    [wall] is rounded to milliseconds.  Partial verdicts
    ([unknown]/[failed] results with anytime progress to report)
    additionally carry a [progress] object — the rung that was running
    and its frontier fields, e.g. [{"engine":"explicit","bound":"4"}]
    ({!Speccc_runtime.Snapshot.to_json}) — so a preempted check tells the caller how far it got instead of
    answering a bare timeout.

    A resumed run ({!config.resume}) reads the journal back and skips
    every document whose key already has a line, reporting the
    journaled verdict with [fresh = false].  A truncated or corrupt
    trailing line (the process died mid-flush) does not parse; it is
    skipped with a warning instead of aborting the resume.  The same
    verdict-object schema is the serve mode's response format
    ({!Speccc_server.Server}) and the verdict store's record payload
    ({!Speccc_store.Store}). *)

type verdict_class =
  | Consistent
  | Inconsistent
  | Unknown
      (** the pipeline answered [Inconclusive] (including certificate
          downgrades) *)
  | Failed of string
      (** every attempt died; the payload is the last confined error *)

type config = {
  options : Speccc_core.Pipeline.options;
      (** per-document pipeline options; [options.fuel] (default
          200k when unset) is every attempt's budget *)
  retries : int;
      (** extra attempts after the first, each under the same budget
          (default 2) *)
  backoff_base : float;
      (** nominal seconds before the first retry (default 0.05); each
          actual backoff is the doubled base stretched by a
          deterministic per-document jitter factor (see {!backoff}) *)
  backoff_cap : float;  (** ceiling on any single backoff (default 1.0) *)
  sleep : float -> float;
      (** sleeping primitive, returning the seconds actually slept —
          injectable so tests can record schedules instead of waiting
          (default [Unix.sleepf] returning its argument) *)
  journal : string option;  (** JSONL path; [None] = no journal *)
  journal_fsync : bool;
      (** also [fsync] after every journal append, so lines survive
          the {e machine} dying, not just the process (default false;
          the same knob {!Speccc_store.Store} exposes for its log) *)
  resume : bool;
      (** skip documents already present in the journal *)
  jobs : int;
      (** worker domains checking documents concurrently (default 1 =
          the plain sequential loop).  With [jobs > 1] documents are
          fanned out to a [Domain] pool; every worker owns its own
          hash-consing and memo tables, per-document confinement and
          retries are unchanged, and the coordinator merges results
          {e in input order} — journal lines and the results list are
          identical to a sequential run up to the timing-dependent
          [wall] fields.  The ["harness.document"] checkpoint is
          announced by the coordinator at each fresh document's
          journal slot, so an injected crash still leaves an
          input-order journal prefix.  Fault {e plans} are
          mutex-protected process-global state, so fault-injection
          runs are safe at any [jobs] count: hit counts are exact and
          coordinator-announced triggers fire at the same documents
          as in a sequential run. *)
  stop : unit -> bool;
      (** polled before each fresh document (journal replays are never
          blocked); once it returns [true] the run stops cleanly —
          results and journal form an input-order prefix and
          {!summary.interrupted} is set.  The CLI wires SIGINT to
          this.  Default: never stop. *)
  store_find : (Speccc_core.Document.t -> doc_result option) option;
      (** persistent verdict-store lookup consulted {e before} any
          engine runs (the serve mode and CLI wire this to
          [Speccc_store.Store] keyed by content identity).  A hit is
          returned with [attempts = 0] and [fresh = false] — the same
          replay markers a journal replay carries — and no engine
          fuel is burned.  A raising lookup degrades to a miss.
          Default [None]. *)
  store_put : (Speccc_core.Document.t -> doc_result -> unit) option;
      (** called after each {e fresh, definite} verdict
          ([Consistent]/[Inconsistent] — mathematical facts about the
          spec).  [Unknown] and [Failed] indict the budget or the
          environment, not the spec, so they are never persisted.  A
          raising put is swallowed: the verdict in hand wins over
          store I/O.  Default [None]. *)
}

and doc_result = {
  doc : string;                (** document key (file path or name) *)
  verdict : verdict_class;
  engine : string;
  attempts : int;              (** 1 + retries actually used; 0 when
                                   replayed from the journal *)
  wall : float;
  detail : string;
  fresh : bool;                (** false when replayed from the journal *)
  degradation : Speccc_synthesis.Realizability.rung list;
      (** canonical degradation log of the final attempt's report —
          the serve mode's circuit breakers feed on it; [[]] for
          [Failed] results and journal replays (the journal does not
          persist rungs) *)
  progress : Speccc_runtime.Snapshot.t option;
      (** the last anytime frontier the attempts published, attached
          to partial verdicts ([Unknown]/[Failed]) and rendered as the
          journal's [progress] object; [None] for definite verdicts
          and journal replays *)
}

val default_config : unit -> config

type summary = {
  results : doc_result list;   (** one per requested document, in order *)
  exit_code : int;
      (** severity aggregate over the batch: 0 all consistent, 1 some
          inconsistency, 2 some document unknown or failed — the
          single-document CLI convention, taken as a maximum *)
  interrupted : bool;
      (** [config.stop] ended the run early; [results] covers the
          input-order prefix actually processed *)
}

val run : config -> (string * Speccc_core.Document.t) list -> summary
(** Check each [(key, document)] pair in order.  Never raises on
    per-document failures.  The fault checkpoint ["harness.document"]
    is announced before each document {e outside} the confinement
    guard: an injected raise there aborts the whole run, which is how
    the resume tests simulate a crash. *)

val run_files : config -> string list -> summary
(** {!run} over files, keyed by path ({!Speccc_core.Document.of_file}; an
    unreadable file is a [Failed] result, not an exception). *)

val backoff : config -> key:string -> int -> float
(** The seconds slept before retry [i] (0-based) of document [key]:
    [backoff_base * 2^i], stretched by a deterministic jitter factor
    in [1.0, 1.5) derived from [(key, i)], capped at [backoff_cap].
    The jitter keeps a [--jobs N] batch from retrying in lockstep
    after a shared-cause failure while staying bit-reproducible per
    document. *)

val check_one : config -> string -> Speccc_core.Document.t -> doc_result
(** The per-document attempt loop {!run} applies to each document,
    exposed for callers that supervise their own request streams (the
    serve mode): confinement, retries and backoff, one
    [doc_result].  If [config.options.cancel] is tripped externally
    (e.g. by a watchdog), remaining retries are abandoned — the token
    stays tripped, so they could only die at their first poll.  Never
    raises on per-document failures; does not touch the journal. *)

val verdict_tag : verdict_class -> string
(** The journal's [verdict] value: ["consistent"], ["inconsistent"],
    ["unknown"] or ["failed"]. *)

val journal_fields : doc_result -> (string * Speccc_json.Jsonl.t) list
(** The journal object's fields in order ([doc], [verdict], [engine],
    [attempts], [wall], [detail], then [progress] on partial
    verdicts).  The serve mode puts its echoed [id] in front of them. *)

val journal_line : doc_result -> string
(** The JSONL object of {!journal_fields} (no trailing newline) that
    {!run} appends per document. *)

val journal_parse_line : string -> doc_result option
(** Parse one {!journal_line}-format line back into a replayed result
    ([fresh = false], [attempts = 0], no [progress]); [None] for any
    line that does not parse as a JSON object with a [doc] string and
    a known [verdict] tag.  A torn line (cut mid-flush) never parses,
    whatever fields survived the cut.  Field order does not matter.
    The verdict store reuses this as its record payload codec. *)

val journal_append : ?fsync:bool -> string -> doc_result -> unit
(** Append {!journal_line} to the file and flush before returning:
    the line must survive the process dying right after this call.
    With [fsync] (default false) the line is also fsynced, surviving
    the machine dying.  If the file does not end with a newline (a
    crash truncated the previous write), one is inserted first so the
    new line never welds onto the corrupt one. *)

val journal_read :
  ?on_corrupt:(int -> string -> unit) ->
  ?repair:bool ->
  string ->
  (string * doc_result) list
(** Parse a journal back into [(doc key, replayed result)] pairs in
    file order, with [fresh = false] and [attempts = 0].  Unparsable
    non-empty lines — typically one truncated trailing line from a
    crash mid-flush — are reported to [on_corrupt] (1-based line
    number, raw line; default: a stderr warning) and skipped.  With
    [repair] (default false; {!run}'s resume path passes [true]) a
    trailing run of torn lines is additionally {e truncated off the
    file}, so the crash artifact is cleaned up once instead of
    re-skipped forever; interior corruption is never rewritten.  A
    missing file is an empty journal. *)

val pp_summary : Format.formatter -> summary -> unit
(** One line per document plus the severity tally — the [speccc batch]
    report. *)
