(** Persistent content-addressed verdict store.

    The checking pipeline is check-once math: identical hash-consed
    specs always yield the same definite verdict, so a verdict, once
    earned, is worth keeping {e across process lifetimes}.  The store
    is an append-only record log plus an in-memory index; any process
    that opens it warm-starts straight to check-once/answer-forever
    semantics.

    {2 Keys}

    Hash-consed formula ids are per-process (the unique table is
    rebuilt on every start), so they cannot name a record on disk.
    The durable proxy is a content digest of the {e canonical parsed
    document} — the requirement ids, sentence texts and
    assumption/guarantee split that deterministically produce the
    hash-consed formulas — salted with the pipeline options that
    change the checked formulas themselves (today: the time-abstraction
    budget).  Engine choice, fuel, deadlines and lookahead are
    deliberately {e not} part of the key: they decide whether a
    definite verdict is {e reached}, never which one is true.

    {2 On-disk format}

    {v
    header   "SPECCCST1\n"
    record   u32_be payload_length | u32_be crc32(payload) | payload
    payload  <key> '\n' <Harness.journal_line verdict object>
           | <key> '\n' "SNAP " <Snapshot.to_json object>
    v}

    A verdict payload is written by {!Speccc_harness.Harness.journal_line}
    and read back by {!Speccc_harness.Harness.journal_parse_line}, so a
    store record and a journal line are the same JSON object.  A
    snapshot payload is the object a partial verdict carries as its
    [progress] member; the ["SNAP "] marker, not the object's shape,
    tells the two kinds apart.  The frame's CRC-32 is the corruption
    check for both.

    Appends are flushed (optionally fsynced) per record.  {!open_}
    replays the log into the index; a torn tail — short header, short
    payload, or CRC mismatch, i.e. the process died mid-append — is
    {e truncated off} and counted in [recovered_bytes], so the next
    append starts on a clean record boundary.  Everything after the
    first bad frame is dropped: record boundaries downstream of a torn
    frame cannot be trusted.

    Updates are append-wins-last; {!compact} (also triggered
    automatically once enough dead records accumulate) rewrites the
    live index to a temporary file and atomically renames it over the
    log, so a crash at any point leaves either the old or the new file,
    never a hybrid.

    All operations are mutex-protected: serve workers on any domain
    share one handle. *)

type t

type stats = {
  live : int;              (** distinct keys in the index *)
  snapshots : int;         (** live anytime-snapshot entries *)
  appends : int;           (** records appended by this handle *)
  hits : int;
  misses : int;
  compactions : int;
  recovered_bytes : int;   (** torn/corrupt tail bytes truncated at open *)
  crc_failures : int;      (** frames dropped for a CRC mismatch at open *)
  file_bytes : int;        (** current log size on disk *)
}

val key_of_texts : ?salt:string -> string list -> string
(** Content digest (hex) of canonical requirement texts. *)

val key : ?salt:string -> Speccc_core.Document.t -> string
(** Content digest of a parsed document: ids, texts and the
    assumption/guarantee split all feed the digest. *)

val salt_of_options : Speccc_core.Pipeline.options -> string
(** The key salt for the option fields that change the {e checked
    formulas} (and hence possibly the verdict): the time-abstraction
    budget, the translation template switch, and error recovery (which
    decides the surviving sentence set).
    Engine/fuel/deadline/lookahead/bound and the other effort knobs
    are excluded on purpose — a definite verdict is a fact about the
    formulas, shared across engine configurations. *)

val open_ :
  ?fsync:bool ->
  ?compact_threshold:int ->
  ?on_recover:(string -> unit) ->
  string ->
  t
(** Open (creating if absent) the store at a path, replaying the log
    into memory and truncating any torn tail.  [fsync] (default
    false) fsyncs every append and compaction.  [compact_threshold]
    (default 1024) is the number of dead (superseded) records that
    triggers automatic compaction.  [on_recover] (default: stderr
    warning) is told about truncated tails and dropped frames.
    Raises [Sys_error]/[Unix.Unix_error] only for real I/O failure
    (permissions, missing directory) — corruption never raises. *)

val find : t -> string -> Speccc_harness.Harness.doc_result option
(** Index lookup; counts a hit or a miss. *)

val put : t -> key:string -> Speccc_harness.Harness.doc_result -> unit
(** Append a record and update the index.  A put whose key is already
    bound to the same verdict class is deduplicated (no append, no
    growth); a conflicting verdict is appended and wins, so the log
    stays a faithful history.  Announces the [store.append] fault
    checkpoint before writing. *)

val put_snapshot : t -> key:string -> Speccc_runtime.Snapshot.t -> unit
(** Append an anytime-snapshot record: the progress frontier of a
    preempted check, keyed like its verdict would be.  Snapshot
    records ride the same framed log (payload line ["SNAP "] followed
    by the snapshot's JSON object); a later definite verdict for the
    key supersedes the snapshot (it is dropped from the index and at
    the next compaction), identical re-puts are deduplicated, and a
    snapshot body that does not decode (a store written in an older
    snapshot format, say) is skipped at open — the consumer
    cold-starts, never resumes bad state. *)

val find_snapshot : t -> string -> Speccc_runtime.Snapshot.t option
(** The live snapshot for a key, if its verdict is not yet durable. *)

val wire_harness :
  t -> Speccc_harness.Harness.config -> Speccc_harness.Harness.config
(** Point the harness's [store_find]/[store_put] hooks at the store,
    keyed by {!key} salted with {!salt_of_options} of the harness's
    options.  Per-request overrides (fuel, deadline, skipped rungs)
    never touch the salt: they decide whether a definite verdict is
    reached, not which one is true. *)

val cacheable : Speccc_harness.Harness.doc_result -> bool
(** [true] exactly for fresh definite verdicts
    ([Consistent]/[Inconsistent]) — the only results whose truth is a
    property of the spec rather than of the budget that ran it. *)

val compact : t -> unit
(** Rewrite the log to live records only, via temp-file +
    atomic rename (+ directory fsync when [fsync]). *)

val stats : t -> stats

val close : t -> unit
(** Flush and close the append descriptor.  Further [put]s raise;
    [find]s keep answering from the index. *)

val crc32 : string -> int32
(** IEEE CRC-32 of a string — exposed for tests and drills. *)
