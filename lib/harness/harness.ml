open Speccc_core
module Runtime = Speccc_runtime.Runtime
module Fault = Speccc_runtime.Fault
module Realizability = Speccc_synthesis.Realizability

type verdict_class =
  | Consistent
  | Inconsistent
  | Unknown
  | Failed of string

type config = {
  options : Pipeline.options;
  retries : int;
  backoff_base : float;
  backoff_cap : float;
  sleep : float -> float;
  journal : string option;
  journal_fsync : bool;
  resume : bool;
  jobs : int;
  stop : unit -> bool;
  store_find : (Document.t -> doc_result option) option;
  store_put : (Document.t -> doc_result -> unit) option;
}

and doc_result = {
  doc : string;
  verdict : verdict_class;
  engine : string;
  attempts : int;
  wall : float;
  detail : string;
  fresh : bool;
  degradation : Realizability.rung list;
  progress : Speccc_runtime.Snapshot.t option;
}

let default_config () = {
  options = Pipeline.default_options ();
  retries = 2;
  backoff_base = 0.05;
  backoff_cap = 1.0;
  sleep = (fun s -> Unix.sleepf s; s);
  journal = None;
  journal_fsync = false;
  resume = false;
  jobs = 1;
  stop = (fun () -> false);
  store_find = None;
  store_put = None;
}

type summary = {
  results : doc_result list;
  exit_code : int;
  interrupted : bool;
}

(* ---------- JSONL journal ---------- *)

module Jsonl = Speccc_json.Jsonl

let verdict_tag = function
  | Consistent -> "consistent"
  | Inconsistent -> "inconsistent"
  | Unknown -> "unknown"
  | Failed _ -> "failed"

let verdict_of_tag detail = function
  | "consistent" -> Some Consistent
  | "inconsistent" -> Some Inconsistent
  | "unknown" -> Some Unknown
  | "failed" -> Some (Failed detail)
  | _ -> None

(* Partial verdicts carry the anytime progress object: the rung that
   was running plus its frontier fields (bound/round/states reached),
   rendered by the snapshot's own JSON conversion. *)
let journal_fields result =
  [ ("doc", Jsonl.Str result.doc);
    ("verdict", Jsonl.Str (verdict_tag result.verdict));
    ("engine", Jsonl.Str result.engine);
    ("attempts", Jsonl.Num (float_of_int result.attempts));
    ("wall", Jsonl.Num (Float.round (result.wall *. 1000.) /. 1000.));
    ("detail", Jsonl.Str result.detail) ]
  @
  match result.progress with
  | None -> []
  | Some snap -> [ ("progress", Speccc_runtime.Snapshot.to_json snap) ]

let journal_line result = Jsonl.to_string (Jsonl.Obj (journal_fields result))

(* Append one line and flush before returning: the journal must
   survive the process dying right after this call. *)
(* A crash mid-flush can leave the file without a trailing newline;
   appending straight after it would weld the new line onto the
   truncated one and corrupt both. *)
let ends_with_newline path =
  match open_in_bin path with
  | exception Sys_error _ -> true
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
         let n = in_channel_length ic in
         n = 0
         || begin
           seek_in ic (n - 1);
           input_char ic = '\n'
         end)

let journal_checkpoint =
  Fault.Checkpoint.register "journal.append"
    "batch/serve journal, before a verdict line is appended (a raising \
     trigger models dying between finishing a document and journaling \
     it; --resume re-checks exactly that document)"

let journal_append ?(fsync = false) path result =
  Fault.in_scope journal_checkpoint @@ fun () ->
  Fault.hit journal_checkpoint;
  let repair = Sys.file_exists path && not (ends_with_newline path) in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       Fault.io_event "journal.write";
       if repair then output_char oc '\n';
       output_string oc (journal_line result);
       output_char oc '\n';
       flush oc;
       (* flush hands the line to the kernel (survives a process
          crash); fsync makes it survive the machine dying too — the
          same knob the verdict store exposes *)
       if fsync then
         try Unix.fsync (Unix.descr_of_out_channel oc)
         with Unix.Unix_error _ -> ())

(* A journal may end with a truncated or otherwise corrupt line — the
   process died mid-flush.  Resuming must not abort on it: the line is
   reported through [on_corrupt] (by default a stderr warning) and
   skipped, so the document it would have named is simply re-checked. *)
let default_on_corrupt path line_no line =
  Printf.eprintf
    "speccc: warning: %s:%d: unparsable journal line %S (truncated \
     write?); skipping it, the document will be re-checked\n%!"
    path line_no
    (if String.length line <= 40 then line else String.sub line 0 40 ^ "...")

(* A line cut mid-flush does not parse, whatever fields survived. *)
let journal_parse_line line =
  match Jsonl.parse line with
  | Error _ -> None
  | Ok json ->
    let detail = Option.value ~default:"" (Jsonl.str_member "detail" json) in
    let verdict =
      Option.bind (Jsonl.str_member "verdict" json) (verdict_of_tag detail)
    in
    (match (Jsonl.str_member "doc" json, verdict) with
     | Some doc, Some verdict ->
       Some
         {
           doc;
           verdict;
           engine = Option.value ~default:"?" (Jsonl.str_member "engine" json);
           attempts = 0;
           wall = Option.value ~default:0. (Jsonl.num_member "wall" json);
           detail;
           fresh = false;
           degradation = [];
           progress = None;
         }
     | _ -> None)

let journal_read ?on_corrupt ?(repair = false) path =
  if not (Sys.file_exists path) then []
  else begin
    let on_corrupt =
      match on_corrupt with
      | Some f -> f
      | None -> default_on_corrupt path
    in
    let ic = open_in_bin path in
    (* (line number, byte offset of the line start, raw line) *)
    let lines = ref [] in
    let line_no = ref 0 in
    (try
       while true do
         let offset = pos_in ic in
         let line = input_line ic in
         incr line_no;
         if String.trim line <> "" then
           lines := (!line_no, offset, line) :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    let entries =
      List.rev_map
        (fun (line_no, offset, line) ->
           (line_no, offset, line, journal_parse_line line))
        !lines
    in
    (* A torn FINAL line is the expected crash-mid-flush artifact.
       With [repair] the file is truncated back to the last good line,
       so the torn tail never has to be re-skipped (or welded onto by
       a foreign appender) again; mid-file corruption is only ever
       warned about and skipped — rewriting interior history is not
       this function's job. *)
    (if repair then
       let tail_start =
         let rec scan acc = function
           | (_, offset, _, None) :: rest -> scan (Some offset) rest
           | _ -> acc
         in
         scan None (List.rev entries)
       in
       match tail_start with
       | Some offset ->
         (try
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Unix.ftruncate fd offset)
          with Unix.Unix_error _ -> ())
       | None -> ());
    List.filter_map
      (fun (line_no, _, line, parsed) ->
         match parsed with
         | None ->
           on_corrupt line_no line;
           None
         | Some result -> Some (result.doc, result))
      entries
  end

(* ---------- per-document supervision ---------- *)

let default_fuel = 200_000

let classify (outcome : Pipeline.outcome) =
  match outcome.Pipeline.report.Realizability.verdict with
  | Realizability.Consistent -> Consistent
  | Realizability.Inconsistent -> Inconsistent
  | Realizability.Inconclusive _ -> Unknown

let detail_of outcome =
  let report = outcome.Pipeline.report in
  let base =
    match report.Realizability.verdict with
    | Realizability.Inconclusive why -> why
    | Realizability.Consistent | Realizability.Inconsistent ->
      report.Realizability.detail
  in
  let dropped =
    match outcome.Pipeline.diagnostics with
    | [] -> ""
    | diags -> Printf.sprintf " [%d requirement(s) skipped]" (List.length diags)
  in
  base ^ dropped

(* Seeded jitter: a parallel batch that hits a shared-cause failure
   (store outage, breaker trip) would otherwise have all its workers
   retrying in lockstep at exactly base*2^i.  The jitter factor
   (1.0 .. 1.5) is derived from the document key and attempt index, so
   it spreads retries across a window while staying bit-reproducible —
   jobs=4 and jobs=1 runs sleep identical schedules per document. *)
let jitter_factor ~key i =
  let digest = Digest.string (Printf.sprintf "%s\x00backoff\x00%d" key i) in
  1.0 +. (0.5 *. float_of_int (Char.code digest.[0]) /. 256.)

let backoff config ~key i =
  Float.min config.backoff_cap
    (config.backoff_base *. (2. ** float_of_int i) *. jitter_factor ~key i)

let check_once config document =
  Runtime.guard ~stage:"harness" (fun () ->
      Pipeline.run_document ~options:config.options document)

(* Retrying a cancelled run is pointless — the token stays tripped, so
   every further attempt dies at its first budget poll (and a watchdog
   has possibly already answered on our behalf). *)
let externally_cancelled config =
  match config.options.Pipeline.cancel with
  | Some token -> Speccc_runtime.Cancellation.is_cancelled token
  | None -> false

(* The persistent verdict store, when wired in, is the fastest rung of
   all: identical hash-consed specs always yield the same verdict, so
   a stored definite answer is served without burning any engine fuel.
   Only definite verdicts are consulted or persisted — [Unknown] and
   [Failed] indict the budget or the environment, not the spec, so
   they must stay re-checkable.  A store failure is degraded to a
   cache miss (lookups) or a lost write (puts): the verdict in hand
   always wins over store I/O. *)
let store_lookup config document =
  match config.store_find with
  | None -> None
  | Some find -> (try find document with _ -> None)

let store_persist config document result =
  match (config.store_put, result.verdict) with
  | Some put, (Consistent | Inconsistent) when result.fresh ->
    (try put document result with _ -> ())
  | _ -> ()

let supervise_fresh config (key, document) =
  let started = Unix.gettimeofday () in
  (* One anytime slot covers the whole attempt sequence: each attempt
     publishes its frontier into it, and rearming before a retry turns
     the previous attempt's last frontier into the next attempt's
     starting point — a preempted search never cold-starts twice.
     Callers (the serve mode) may hand in their own slot; otherwise
     the document gets a private one. *)
  let slot =
    match config.options.Pipeline.snapshot with
    | Some slot -> slot
    | None -> Speccc_runtime.Snapshot.slot ()
  in
  (* Every attempt runs under the same budget: fuel exhaustion never
     escapes the ladder, so a retry only follows a failure outside it,
     and less fuel could only lose the answer. *)
  let fuel =
    Option.value ~default:default_fuel config.options.Pipeline.fuel
  in
  let config =
    { config with
      options =
        { config.options with
          Pipeline.fuel = Some fuel; snapshot = Some slot } }
  in
  let partial () = Speccc_runtime.Snapshot.latest slot in
  let failed i error =
    {
      doc = key;
      verdict = Failed (Runtime.to_string error);
      engine = "none";
      attempts = i;
      wall = Unix.gettimeofday () -. started;
      detail = Runtime.to_string error;
      fresh = true;
      degradation = [];
      progress = partial ();
    }
  in
  let rec attempt i last_error =
    if i > config.retries then failed i last_error
    else begin
      if i > 0 then begin
        ignore (config.sleep (backoff config ~key (i - 1)));
        Speccc_runtime.Snapshot.rearm slot
      end;
      match check_once config document with
      | Ok outcome ->
        let verdict = classify outcome in
        {
          doc = key;
          verdict;
          engine = outcome.Pipeline.report.Realizability.engine_used;
          attempts = i + 1;
          wall = Unix.gettimeofday () -. started;
          detail = detail_of outcome;
          fresh = true;
          degradation =
            Realizability.canonical_degradation outcome.Pipeline.report;
          progress = (match verdict with Unknown -> partial () | _ -> None);
        }
      | Error error ->
        if externally_cancelled config then failed (i + 1) error
        else attempt (i + 1) error
    end
  in
  attempt 0 (Runtime.Engine_failure ("harness", "not attempted"))

let supervise config (key, document) =
  match store_lookup config document with
  | Some cached ->
    (* replayed from the store: [attempts = 0] is the replay marker
       the journal replays already use *)
    { cached with doc = key; attempts = 0; fresh = false }
  | None ->
    let result = supervise_fresh config (key, document) in
    store_persist config document result;
    result

let check_one config key document = supervise config (key, document)

(* ---------- the batch loop ---------- *)

let severity = function
  | Consistent -> 0
  | Inconsistent -> 1
  | Unknown | Failed _ -> 2

let check_loaded config (key, loaded) =
  match loaded with
  | Ok document -> supervise config (key, document)
  | Error message ->
    {
      doc = key;
      verdict = Failed message;
      engine = "none";
      attempts = 1;
      wall = 0.;
      detail = message;
      fresh = true;
      degradation = [];
      progress = None;
    }

(* [config.stop] is polled before each fresh document (journal
   replays never block, so they pass through): once it reports true,
   the run ends with the results — and the journal — forming a clean
   input-order prefix, exactly what --resume needs to finish the job
   later.  This is how SIGINT drains the batch instead of dying
   mid-write. *)
exception Stop_requested

let run_sequential config journaled documents =
  let results = ref [] in
  let interrupted = ref false in
  (try
     List.iter
       (fun (key, loaded) ->
          match List.assoc_opt key journaled with
          | Some replayed -> results := replayed :: !results
          | None ->
            if config.stop () then begin
              interrupted := true;
              raise Stop_requested
            end;
            (* Announced OUTSIDE the guard on purpose: an injected
               fault here models the whole process dying between
               documents, which is the scenario --resume exists for. *)
            Fault.hit Fault.Checkpoint.harness_document;
            let result = check_loaded config (key, loaded) in
            Option.iter
              (fun path ->
                 journal_append ~fsync:config.journal_fsync path result)
              config.journal;
            results := result :: !results)
       documents
   with Stop_requested -> ());
  (List.rev !results, !interrupted)

(* Parallel mode: a pool of [jobs] domains drains an atomic work
   counter over the non-replayed documents while the spawning domain
   plays coordinator — it waits for each document's slot *in input
   order* and appends journal lines as slots fill, so the journal (and
   the results list) is byte-identical to a sequential run's, minus
   only the timing-dependent [wall] fields.  Each worker domain owns
   private hash-consing and memo tables (they are domain-local), so
   workers share no mutable formula state.

   The [harness.document] checkpoint is announced by the coordinator
   just before it would journal each fresh document, mirroring the
   sequential "process dies between documents" semantics: on an
   injected raise, the journal is a clean input-order prefix.  Workers
   may by then have computed later documents, but un-journaled work is
   simply re-checked on resume. *)
let run_parallel config journaled documents =
  let docs = Array.of_list documents in
  let n = Array.length docs in
  let slots = Array.make n None in
  Array.iteri
    (fun i (key, _) ->
       match List.assoc_opt key journaled with
       | Some replayed -> slots.(i) <- Some replayed
       | None -> ())
    docs;
  (* Decided before any worker starts, so reads below cannot race. *)
  let is_replayed = Array.map Option.is_some slots in
  let pending =
    Array.of_seq
      (Seq.filter (fun i -> not is_replayed.(i)) (Seq.init n Fun.id))
  in
  let next = Atomic.make 0 in
  let lock = Mutex.create () in
  let filled = Condition.create () in
  let worker () =
    let rec loop () =
      let j = Atomic.fetch_and_add next 1 in
      if j < Array.length pending then begin
        let i = pending.(j) in
        let result = check_loaded config docs.(i) in
        Mutex.lock lock;
        slots.(i) <- Some result;
        Condition.broadcast filled;
        Mutex.unlock lock;
        loop ()
      end
    in
    loop ()
  in
  let worker_count = min config.jobs (max 1 (Array.length pending)) in
  let domains = Array.init worker_count (fun _ -> Domain.spawn worker) in
  let interrupted = ref false in
  let collect () =
    let out = ref [] in
    (try
       Array.iteri
         (fun i _ ->
            if is_replayed.(i) then out := Option.get slots.(i) :: !out
            else begin
              if config.stop () then begin
                (* Stop handing out new work; in-flight documents
                   finish in their workers but are not collected, so
                   the journal stays an input-order prefix. *)
                interrupted := true;
                Atomic.set next (Array.length pending);
                raise Stop_requested
              end;
              Fault.hit Fault.Checkpoint.harness_document;
              Mutex.lock lock;
              while slots.(i) = None do
                Condition.wait filled lock
              done;
              let result = Option.get slots.(i) in
              Mutex.unlock lock;
              Option.iter
                (fun path ->
                   journal_append ~fsync:config.journal_fsync path result)
                config.journal;
              out := result :: !out
            end)
         docs
     with Stop_requested -> ());
    List.rev !out
  in
  match collect () with
  | results ->
    Array.iter Domain.join domains;
    (results, !interrupted)
  | exception e ->
    (* Simulated crash (or journal I/O error): stop handing out work,
       let in-flight documents finish, then re-raise. *)
    Atomic.set next (Array.length pending);
    Array.iter Domain.join domains;
    raise e

let run_loaded config documents =
  let journaled =
    match config.journal with
    | Some path when config.resume ->
      (* Replay only definite verdicts.  A journaled [Unknown] or
         [Failed] indicts the budget or the environment of the crashed
         run, not the spec — replaying it would let one transient
         fault poison every subsequent --resume (found by the chaos
         explorer: a corrupted witness degraded a verdict to unknown,
         and the resumed run parroted the degraded answer instead of
         re-checking).  Same policy as the store above. *)
      List.filter
        (fun (_, r) ->
           match r.verdict with
           | Consistent | Inconsistent -> true
           | Unknown | Failed _ -> false)
        (journal_read ~repair:true path)
    | Some _ | None -> []
  in
  let results, interrupted =
    if config.jobs <= 1 then run_sequential config journaled documents
    else run_parallel config journaled documents
  in
  let exit_code =
    List.fold_left (fun acc r -> max acc (severity r.verdict)) 0 results
  in
  { results; exit_code; interrupted }

let run config documents =
  run_loaded config
    (List.map (fun (key, document) -> (key, Ok document)) documents)

let run_files config paths =
  run_loaded config
    (List.map
       (fun path ->
          match Document.of_file path with
          | document -> (path, Ok document)
          | exception Sys_error message -> (path, Error message))
       paths)

let pp_verdict ppf = function
  | Consistent -> Format.pp_print_string ppf "CONSISTENT"
  | Inconsistent -> Format.pp_print_string ppf "INCONSISTENT"
  | Unknown -> Format.pp_print_string ppf "UNKNOWN"
  | Failed why -> Format.fprintf ppf "FAILED (%s)" why

let pp_summary ppf summary =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
       Format.fprintf ppf "%s: %a (engine: %s, attempts: %d, %.3fs)%s@," r.doc
         pp_verdict r.verdict r.engine r.attempts r.wall
         (if r.fresh then "" else " [journaled]"))
    summary.results;
  let count c =
    List.length (List.filter (fun r -> severity r.verdict = c) summary.results)
  in
  Format.fprintf ppf "%d document(s): %d consistent, %d inconsistent, %d unknown/failed"
    (List.length summary.results) (count 0) (count 1) (count 2);
  if summary.interrupted then
    Format.fprintf ppf
      "@,interrupted: remaining documents not checked (the journal \
       holds a clean prefix; rerun with --resume)";
  Format.fprintf ppf "@]"
