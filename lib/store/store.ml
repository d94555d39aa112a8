module Document = Speccc_core.Document
module Pipeline = Speccc_core.Pipeline
module Harness = Speccc_harness.Harness
module Jsonl = Speccc_json.Jsonl
module Snapshot = Speccc_runtime.Snapshot
module Fault = Speccc_runtime.Fault
module Eintr = Speccc_runtime.Eintr

let store_compact =
  Fault.Checkpoint.register "store.compact"
    "verdict store, after the compacted temp log is written and before \
     the atomic rename (a SIGKILL or raising trigger here must leave \
     the old log intact; a Delay opens the kill window the compaction \
     drill uses)"

let header = "SPECCCST1\n"
let max_payload = 1 lsl 26 (* a frame longer than 64 MiB is corruption *)

(* ---------- CRC-32 (IEEE 802.3, the zlib polynomial) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ---------- keys ---------- *)

let key ?(salt = "") doc =
  Digest.to_hex (Digest.string (Document.key doc ^ "\x01" ^ salt))

(* Everything that changes the *checked formulas* (or which sentences
   survive to be checked) must be in the salt, or a stored verdict
   could be served for a semantically different check:
   - [time_budget] picks the time-abstraction solution, rewriting
     every timed formula;
   - the [translate] switch [next_as_x] changes the per-sentence LTL
     templates;
   - [recover] decides whether ungrammatical sentences abort the run
     or are dropped, i.e. which formula set is conjoined.
   The translator's lexicon and dictionary are built in, so with the
   document these fields determine the checked formulas completely.
   Engine knobs stay out on purpose: [engine], [lookahead], [bound],
   [fuel], [deadline], [cancel], [skip_engines], [certify] and
   [snapshot] change how hard the engines try, never which formulas
   are checked — a definite verdict is a fact about the formulas, and
   sharing it across engine configurations is the store's point.  The
   constant "smt=1" and "fe=1" entries name the SMT time abstraction
   and the future-as-eventually template, which every check uses; they
   stay in the salt so that existing stores keep their keys. *)
let salt_of_options (o : Pipeline.options) =
  let flag b = if b then "1" else "0" in
  String.concat ","
    [
      "tb=" ^ string_of_int o.Pipeline.time_budget;
      "smt=1";
      "nx=" ^ flag o.Pipeline.translate.Speccc_translate.Translate.next_as_x;
      "fe=1";
      "rec=" ^ flag o.Pipeline.recover;
    ]

(* ---------- framing ---------- *)

let put_u32_be b off n =
  Bytes.set b off (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (n land 0xff))

let get_u32_be s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame_of_payload payload =
  let n = String.length payload in
  let frame = Bytes.create (8 + n) in
  put_u32_be frame 0 n;
  put_u32_be frame 4 (Int32.to_int (crc32 payload) land 0xFFFFFFFF);
  Bytes.blit_string payload 0 frame 8 n;
  frame

let encode_record ~key result =
  frame_of_payload (key ^ "\n" ^ Harness.journal_line result)

(* Snapshot records share the frame format; their payload line is the
   snapshot's JSON object behind a "SNAP " marker.  The marker, not the
   object's shape, tells the two record kinds apart: a partial verdict
   object carries a "progress" member of its own.  Snapshot records let
   a respawned worker warm-replay anytime progress alongside verdicts:
   a preempted check's frontier survives the process. *)
let snap_marker = "SNAP "

let snapshot_line snap = Jsonl.to_string (Snapshot.to_json snap)

let encode_snapshot_record ~key snap =
  frame_of_payload (key ^ "\n" ^ snap_marker ^ snapshot_line snap)

type decoded =
  | Verdict of string * Harness.doc_result
  | Snapshot_of of string * Snapshot.t

(* Record payloads replay exactly like journal lines: fresh = false,
   attempts = 0, no degradation rungs. *)
let decode_payload payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some i ->
      let key = String.sub payload 0 i in
      let line =
        String.sub payload (i + 1) (String.length payload - i - 1)
      in
      if key = "" then None
      else if
        String.length line >= String.length snap_marker
        && String.sub line 0 (String.length snap_marker) = snap_marker
      then (
        (* an unreadable snapshot body (including one written in an
           older format) is dropped: that check cold-starts *)
        match
          Jsonl.parse
            (String.sub line (String.length snap_marker)
               (String.length line - String.length snap_marker))
        with
        | Ok json ->
            Option.map (fun s -> Snapshot_of (key, s)) (Snapshot.of_json json)
        | Error _ -> None)
      else
        Option.map (fun r -> Verdict (key, r)) (Harness.journal_parse_line line)

(* ---------- the store ---------- *)

type t = {
  path : string;
  fsync : bool;
  compact_threshold : int;
  on_recover : string -> unit;
  lock : Mutex.t;
  index : (string, Harness.doc_result) Hashtbl.t;
  snap_index : (string, Snapshot.t) Hashtbl.t;
  mutable fd : Unix.file_descr option;
  mutable dead : int; (* superseded records still in the log *)
  mutable appends : int;
  mutable hits : int;
  mutable misses : int;
  mutable compactions : int;
  mutable recovered_bytes : int;
  mutable crc_failures : int;
  mutable file_bytes : int;
}

type stats = {
  live : int;
  snapshots : int;
  appends : int;
  hits : int;
  misses : int;
  compactions : int;
  recovered_bytes : int;
  crc_failures : int;
  file_bytes : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let write_all fd bytes = Eintr.write_all fd bytes

let maybe_fsync t fd = if t.fsync then try Unix.fsync fd with Unix.Unix_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Replay the log into [index].  Returns the byte offset of the first
   unusable frame (= where the file must be truncated), or the file
   length when every frame is sound.  Interior records that frame
   correctly but fail to parse are skipped, not fatal: their
   boundaries are still trustworthy. *)
let scan ~on_corrupt ~count_crc index snap_index data =
  let len = String.length data in
  let pos = ref (String.length header) in
  let good_end = ref !pos in
  (try
     while !pos < len do
       if len - !pos < 8 then raise Exit;
       let n = get_u32_be data !pos in
       let crc = get_u32_be data (!pos + 4) in
       if n <= 0 || n > max_payload then raise Exit;
       if len - !pos - 8 < n then raise Exit;
       let payload = String.sub data (!pos + 8) n in
       if Int32.to_int (crc32 payload) land 0xFFFFFFFF <> crc then begin
         count_crc ();
         raise Exit
       end;
       (match decode_payload payload with
       | Some (Verdict (key, result)) ->
           Hashtbl.replace index key result;
           (* a definite verdict supersedes any saved progress *)
           Hashtbl.remove snap_index key
       | Some (Snapshot_of (key, snap)) ->
           Hashtbl.replace snap_index key snap
       | None ->
           on_corrupt
             (Printf.sprintf "unparsable record payload at offset %d (skipped)"
                !pos));
       pos := !pos + 8 + n;
       good_end := !pos
     done
   with Exit -> ());
  !good_end

let default_on_recover msg = Printf.eprintf "speccc store: %s\n%!" msg

let open_ ?(fsync = false) ?(compact_threshold = 1024) ?on_recover path =
  let on_recover = Option.value on_recover ~default:default_on_recover in
  let index = Hashtbl.create 256 in
  let snap_index = Hashtbl.create 64 in
  let hlen = String.length header in
  let data = if Sys.file_exists path then read_file path else "" in
  let recovered = ref 0 in
  let crc_failures = ref 0 in
  let valid_header =
    String.length data >= hlen && String.sub data 0 hlen = header
  in
  let keep, rebuild_header =
    if not valid_header then begin
      (* empty/new file, or not a store file (torn or foreign header):
         recover to an empty store rather than refuse to serve *)
      if String.length data > 0 then begin
        recovered := String.length data;
        on_recover
          (Printf.sprintf "%s: bad header, %d bytes discarded" path
             (String.length data))
      end;
      (0, true)
    end
    else begin
      let keep =
        scan
          ~on_corrupt:(fun msg -> on_recover (path ^ ": " ^ msg))
          ~count_crc:(fun () -> incr crc_failures)
          index snap_index data
      in
      if keep < String.length data then begin
        recovered := String.length data - keep;
        on_recover
          (Printf.sprintf "%s: torn tail, %d bytes truncated at offset %d"
             path !recovered keep)
      end;
      (keep, false)
    end
  in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (try
     if rebuild_header then begin
       Unix.ftruncate fd 0;
       ignore (Unix.write_substring fd header 0 hlen)
     end
     else if !recovered > 0 then Unix.ftruncate fd keep
   with Unix.Unix_error _ -> ());
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let file_bytes = (Unix.fstat fd).Unix.st_size in
  if fsync then (try Unix.fsync fd with Unix.Unix_error _ -> ());
  {
    path;
    fsync;
    compact_threshold = max 1 compact_threshold;
    on_recover;
    lock = Mutex.create ();
    index;
    snap_index;
    fd = Some fd;
    dead = 0;
    appends = 0;
    hits = 0;
    misses = 0;
    compactions = 0;
    recovered_bytes = !recovered;
    crc_failures = !crc_failures;
    file_bytes;
  }

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.index k with
      | Some r ->
          t.hits <- t.hits + 1;
          Some r
      | None ->
          t.misses <- t.misses + 1;
          None)

let cacheable (r : Harness.doc_result) =
  r.Harness.fresh
  &&
  match r.Harness.verdict with
  | Harness.Consistent | Harness.Inconsistent -> true
  | Harness.Unknown | Harness.Failed _ -> false

let verdict_tag = function
  | Harness.Consistent -> 0
  | Harness.Inconsistent -> 1
  | Harness.Unknown -> 2
  | Harness.Failed _ -> 3

let append_fd t =
  match t.fd with
  | Some fd -> fd
  | None -> raise (Sys_error (t.path ^ ": store is closed"))

(* Rewrite live records only; crash-safe via temp file + atomic
   rename.  Caller holds the lock. *)
let compact_locked t =
  Fault.in_scope store_compact @@ fun () ->
  let fd = append_fd t in
  let tmp = t.path ^ ".compact.tmp" in
  let out =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     ignore (Unix.write_substring out header 0 (String.length header));
     Hashtbl.iter
       (fun key result -> write_all out (encode_record ~key result))
       t.index;
     (* live snapshots (keys still without a verdict) survive
        compaction: a respawned worker must be able to resume them *)
     Hashtbl.iter
       (fun key snap ->
          if not (Hashtbl.mem t.index key) then
            write_all out (encode_snapshot_record ~key snap))
       t.snap_index;
     maybe_fsync t out;
     Unix.close out
   with e ->
     (try Unix.close out with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* The temp log is complete but the rename has not happened: dying
     here must leave the old log authoritative and the tmp ignorable. *)
  Fault.hit store_compact;
  Unix.rename tmp t.path;
  if t.fsync then begin
    (* Persist the rename itself: fsync the containing directory. *)
    match Unix.openfile (Filename.dirname t.path) [ Unix.O_RDONLY ] 0 with
    | dirfd ->
        (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
        (try Unix.close dirfd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  end;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let fd = Unix.openfile t.path [ Unix.O_RDWR; Unix.O_APPEND ] 0o644 in
  t.fd <- Some fd;
  t.dead <- 0;
  t.compactions <- t.compactions + 1;
  t.file_bytes <- (Unix.fstat fd).Unix.st_size

let put t ~key result =
  locked t (fun () ->
      (* a definite verdict supersedes any saved anytime progress *)
      if Hashtbl.mem t.snap_index key then begin
        Hashtbl.remove t.snap_index key;
        t.dead <- t.dead + 1
      end;
      let prev = Hashtbl.find_opt t.index key in
      match prev with
      | Some p when verdict_tag p.Harness.verdict = verdict_tag result.Harness.verdict
        ->
          (* Same fact already durable: re-appending would only grow
             the log. *)
          ()
      | _ ->
          Fault.in_scope Fault.Checkpoint.store_append @@ fun () ->
          let fd = append_fd t in
          let frame = encode_record ~key result in
          (* A raising trigger here models dying mid-write: nothing
             reaches the log, the index is untouched.  A [Corrupt]
             trigger models dying *inside* the write: half the frame
             reaches the disk and the handle dies with the process, so
             the next open finds a torn tail and truncates it. *)
          if Fault.corrupt Fault.Checkpoint.store_append then begin
            let torn = Bytes.sub frame 0 (max 1 (Bytes.length frame / 2)) in
            write_all fd torn;
            maybe_fsync t fd;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            t.fd <- None;
            raise (Sys_error (t.path ^ ": injected torn write"))
          end;
          write_all fd frame;
          maybe_fsync t fd;
          t.appends <- t.appends + 1;
          t.file_bytes <- t.file_bytes + Bytes.length frame;
          (* Index the replayed form, so a warm restart and this
             process answer bit-for-bit identically. *)
          let stored =
            {
              result with
              Harness.fresh = false;
              attempts = 0;
              degradation = [];
            }
          in
          Hashtbl.replace t.index key stored;
          (match prev with
          | Some _ -> t.dead <- t.dead + 1
          | None -> ());
          if t.dead >= t.compact_threshold then compact_locked t)

let compact t = locked t (fun () -> compact_locked t)

(* ---------- anytime snapshot records ---------- *)

let put_snapshot t ~key snap =
  locked t (fun () ->
      (* progress for a key whose verdict is already durable is moot *)
      if not (Hashtbl.mem t.index key) then begin
        let same =
          match Hashtbl.find_opt t.snap_index key with
          | Some prev -> snapshot_line prev = snapshot_line snap
          | None -> false
        in
        if not same then begin
          Fault.in_scope Fault.Checkpoint.store_append @@ fun () ->
          let fd = append_fd t in
          Fault.hit Fault.Checkpoint.store_append;
          let frame = encode_snapshot_record ~key snap in
          write_all fd frame;
          maybe_fsync t fd;
          t.appends <- t.appends + 1;
          t.file_bytes <- t.file_bytes + Bytes.length frame;
          if Hashtbl.mem t.snap_index key then t.dead <- t.dead + 1;
          Hashtbl.replace t.snap_index key snap;
          if t.dead >= t.compact_threshold then compact_locked t
        end
      end)

let find_snapshot t key =
  locked t (fun () -> Hashtbl.find_opt t.snap_index key)

(* ---------- harness wiring ---------- *)

let wire_harness t (config : Harness.config) =
  let salt = salt_of_options config.Harness.options in
  {
    config with
    Harness.store_find = Some (fun doc -> find t (key ~salt doc));
    store_put = Some (fun doc result -> put t ~key:(key ~salt doc) result);
  }

let stats t =
  locked t (fun () ->
      {
        live = Hashtbl.length t.index;
        snapshots = Hashtbl.length t.snap_index;
        appends = t.appends;
        hits = t.hits;
        misses = t.misses;
        compactions = t.compactions;
        recovered_bytes = t.recovered_bytes;
        crc_failures = t.crc_failures;
        file_bytes = t.file_bytes;
      })

let close t =
  locked t (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
          maybe_fsync t fd;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.fd <- None)
