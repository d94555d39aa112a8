(* Tests for the persistent content-addressed verdict store: the
   record-log format survives crashes (torn tails, flipped bytes,
   clobbered headers) by truncating back to the last sound record, and
   a reopened store answers exactly what the writing process knew. *)

open Speccc_core
open Speccc_runtime
open Speccc_store

let with_faults ?seed triggers f =
  Fault.install ?seed triggers;
  Fun.protect ~finally:Fault.clear f

let temp_store () =
  let path = Filename.temp_file "speccc_store" ".store" in
  Sys.remove path;
  path

let with_store_path f =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let result ?(verdict = Speccc_harness.Harness.Consistent) ?(engine = "symbolic")
    ?(detail = "ok") doc =
  { Speccc_harness.Harness.doc; verdict; engine; attempts = 1; wall = 0.01;
    detail; fresh = true; degradation = []; progress = None }

let verdict_testable =
  Alcotest.testable
    (fun ppf v ->
       Format.pp_print_string ppf
         (match v with
          | Speccc_harness.Harness.Consistent -> "consistent"
          | Speccc_harness.Harness.Inconsistent -> "inconsistent"
          | Speccc_harness.Harness.Unknown -> "unknown"
          | Speccc_harness.Harness.Failed e -> "failed:" ^ e))
    ( = )

let file_size path = (Unix.stat path).Unix.st_size

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* One record exactly as the store frames it: length, CRC-32, payload. *)
let frame payload =
  let b = Buffer.create 64 in
  let u32 v =
    Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char b (Char.chr (v land 0xff))
  in
  u32 (String.length payload);
  u32 (Int32.to_int (Store.crc32 payload) land 0xffffffff);
  Buffer.add_string b payload;
  Buffer.contents b

(* ---------- roundtrip and warm start ---------- *)

let test_roundtrip () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      Alcotest.(check bool) "fresh store misses" true
        (Store.find store "k1" = None);
      Store.put store ~key:"k1" (result "d1");
      Store.put store ~key:"k2"
        (result ~verdict:Speccc_harness.Harness.Inconsistent "d2");
      (match Store.find store "k1" with
       | Some r ->
         Alcotest.check verdict_testable "verdict"
           Speccc_harness.Harness.Consistent r.Speccc_harness.Harness.verdict;
         Alcotest.(check bool) "replay markers" true
           ((not r.Speccc_harness.Harness.fresh)
            && r.Speccc_harness.Harness.attempts = 0)
       | None -> Alcotest.fail "k1 lost");
      let s = Store.stats store in
      Alcotest.(check int) "live" 2 s.Store.live;
      Alcotest.(check int) "appends" 2 s.Store.appends;
      Alcotest.(check int) "hits" 1 s.Store.hits;
      Alcotest.(check int) "misses" 1 s.Store.misses;
      Store.close store)

let test_reopen_warm_starts () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      Store.put store ~key:"k1" (result "d1");
      Store.put store ~key:"k2"
        (result ~verdict:Speccc_harness.Harness.Inconsistent "d2");
      Store.close store;
      (* a different process would see exactly this *)
      let warm = Store.open_ path in
      let s = Store.stats warm in
      Alcotest.(check int) "live survives reopen" 2 s.Store.live;
      Alcotest.(check int) "no recovery needed" 0 s.Store.recovered_bytes;
      (match Store.find warm "k2" with
       | Some r ->
         Alcotest.check verdict_testable "verdict survives"
           Speccc_harness.Harness.Inconsistent r.Speccc_harness.Harness.verdict;
         Alcotest.(check string) "detail survives" "ok"
           r.Speccc_harness.Harness.detail
       | None -> Alcotest.fail "k2 lost across reopen");
      Store.close warm)

let test_same_verdict_put_dedupes () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      Store.put store ~key:"k1" (result "d1");
      let size = file_size path in
      (* same verdict class again: no append, no growth *)
      Store.put store ~key:"k1" (result ~engine:"heuristic" "d1");
      Alcotest.(check int) "no second append" 1 (Store.stats store).Store.appends;
      Alcotest.(check int) "file unchanged" size (file_size path);
      (* a conflicting verdict is appended and wins *)
      Store.put store ~key:"k1"
        (result ~verdict:Speccc_harness.Harness.Inconsistent "d1");
      Alcotest.(check bool) "conflict appended" true (file_size path > size);
      (match Store.find store "k1" with
       | Some r ->
         Alcotest.check verdict_testable "last write wins"
           Speccc_harness.Harness.Inconsistent r.Speccc_harness.Harness.verdict
       | None -> Alcotest.fail "k1 lost");
      Store.close store)

(* ---------- crash recovery ---------- *)

let test_torn_tail_truncated () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      Store.put store ~key:"k1" (result "d1");
      let good = file_size path in
      Store.put store ~key:"k2" (result "d2");
      Store.close store;
      (* the process died mid-append: cut the last record in half *)
      let data = read_file path in
      write_file path (String.sub data 0 (good + (file_size path - good) / 2));
      let warnings = ref [] in
      let warm =
        Store.open_ ~on_recover:(fun w -> warnings := w :: !warnings) path
      in
      let s = Store.stats warm in
      Alcotest.(check int) "only the sound prefix survives" 1 s.Store.live;
      Alcotest.(check bool) "torn bytes counted" true
        (s.Store.recovered_bytes > 0);
      Alcotest.(check bool) "recovery reported" true (!warnings <> []);
      Alcotest.(check int) "file truncated to last sound record" good
        (file_size path);
      Alcotest.(check bool) "survivor intact" true
        (Store.find warm "k1" <> None);
      (* the log is usable again: append lands on a clean boundary *)
      Store.put warm ~key:"k3" (result "d3");
      Store.close warm;
      let again = Store.open_ path in
      Alcotest.(check int) "clean after repair" 0
        (Store.stats again).Store.recovered_bytes;
      Alcotest.(check int) "both records readable" 2
        (Store.stats again).Store.live;
      Store.close again)

let test_crc_corruption_dropped () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      Store.put store ~key:"k1" (result "d1");
      let good = file_size path in
      Store.put store ~key:"k2" (result "d2");
      Store.close store;
      (* flip one payload byte of the second record: framing intact,
         checksum not *)
      let data = Bytes.of_string (read_file path) in
      let target = good + 8 + 3 in
      Bytes.set data target (Char.chr (Char.code (Bytes.get data target) lxor 1));
      write_file path (Bytes.to_string data);
      let warm = Store.open_ ~on_recover:(fun _ -> ()) path in
      let s = Store.stats warm in
      Alcotest.(check int) "corrupt frame dropped" 1 s.Store.live;
      Alcotest.(check int) "CRC failure counted" 1 s.Store.crc_failures;
      Alcotest.(check int) "truncated back to the sound prefix" good
        (file_size path);
      Store.close warm)

let test_bad_header_rebuilds_empty () =
  with_store_path (fun path ->
      write_file path "not a speccc store at all\n";
      let warnings = ref 0 in
      let store = Store.open_ ~on_recover:(fun _ -> incr warnings) path in
      Alcotest.(check int) "foreign file discarded" 0
        (Store.stats store).Store.live;
      Alcotest.(check bool) "discard reported" true (!warnings > 0);
      Store.put store ~key:"k1" (result "d1");
      Store.close store;
      let warm = Store.open_ path in
      Alcotest.(check int) "rebuilt store is sound" 1
        (Store.stats warm).Store.live;
      Alcotest.(check int) "no recovery on reopen" 0
        (Store.stats warm).Store.recovered_bytes;
      Store.close warm)

let test_append_fault_loses_only_tail_record () =
  (* An injected crash at the [store.append] checkpoint models dying
     between deciding to write and completing the frame: the put is
     lost, everything already on disk survives. *)
  with_store_path (fun path ->
      let store = Store.open_ path in
      Store.put store ~key:"k1" (result "d1");
      with_faults
        [ { Fault.checkpoint = Fault.Checkpoint.store_append; after = 0;
            action = Fault.Fail "died mid-append" } ]
        (fun () ->
           Alcotest.check_raises "injected crash mid-append"
             (Runtime.Interrupt
                (Runtime.Engine_failure ("store.append", "died mid-append")))
             (fun () -> Store.put store ~key:"k2" (result "d2")));
      Store.close store;
      let warm = Store.open_ path in
      Alcotest.(check int) "only the completed record survives" 1
        (Store.stats warm).Store.live;
      Alcotest.(check int) "log not torn" 0
        (Store.stats warm).Store.recovered_bytes;
      Store.close warm)

(* ---------- compaction ---------- *)

let test_compaction_drops_dead_records () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      (* k1 is superseded twice: two dead records in the log *)
      Store.put store ~key:"k1" (result "d1");
      Store.put store ~key:"k1"
        (result ~verdict:Speccc_harness.Harness.Inconsistent "d1");
      Store.put store ~key:"k1" (result "d1");
      Store.put store ~key:"k2" (result "d2");
      let before = file_size path in
      Store.compact store;
      let s = Store.stats store in
      Alcotest.(check int) "live unchanged" 2 s.Store.live;
      Alcotest.(check int) "one compaction" 1 s.Store.compactions;
      Alcotest.(check bool) "log shrank" true (file_size path < before);
      (match Store.find store "k1" with
       | Some r ->
         Alcotest.check verdict_testable "latest verdict kept"
           Speccc_harness.Harness.Consistent r.Speccc_harness.Harness.verdict
       | None -> Alcotest.fail "k1 lost in compaction");
      Store.close store;
      let warm = Store.open_ path in
      Alcotest.(check int) "compacted log replays clean" 2
        (Store.stats warm).Store.live;
      Alcotest.(check int) "no recovery" 0
        (Store.stats warm).Store.recovered_bytes;
      Store.close warm)

(* The compaction crash drill the chaos explorer's model assumes: a
   process SIGKILLed between writing the complete temp log and the
   atomic rename must leave either the old log or the new one — never
   a partial file — and the reopen must book zero recovery work.  The
   kill is landed deterministically by wedging the real [store.compact]
   checkpoint (announced exactly between the two steps) in a forked
   child and killing it once the temp log appears on disk. *)
let test_sigkill_during_compaction () =
  with_store_path (fun path ->
      let tmp = path ^ ".compact.tmp" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
        (fun () ->
           match Unix.fork () with
           | 0 ->
             (* child: fill the log with dead records, then compact —
                the Delay trigger wedges it with the temp log complete
                and the rename not yet performed *)
             Fault.install
               [ { Fault.checkpoint = "store.compact"; after = 0;
                   action = Fault.Delay 30.0 } ];
             let store = Store.open_ path in
             Store.put store ~key:"k1" (result "d1");
             Store.put store ~key:"k1"
               (result ~verdict:Speccc_harness.Harness.Inconsistent "d1");
             Store.put store ~key:"k1" (result "d1");
             Store.put store ~key:"k2" (result "d2");
             Store.compact store;
             Unix._exit 0
           | child ->
             let deadline = Unix.gettimeofday () +. 30.0 in
             while
               (not (Sys.file_exists tmp))
               && Unix.gettimeofday () < deadline
             do
               Unix.sleepf 0.01
             done;
             Alcotest.(check bool) "temp log appeared" true
               (Sys.file_exists tmp);
             Unix.kill child Sys.sigkill;
             ignore (Unix.waitpid [] child);
             let store = Store.open_ path in
             let s = Store.stats store in
             Alcotest.(check int) "every live verdict present" 2 s.Store.live;
             Alcotest.(check int) "no torn bytes to recover" 0
               s.Store.recovered_bytes;
             Alcotest.(check int) "no CRC failures" 0 s.Store.crc_failures;
             (match Store.find store "k1" with
              | Some r ->
                Alcotest.check verdict_testable "k1 kept its latest verdict"
                  Speccc_harness.Harness.Consistent
                  r.Speccc_harness.Harness.verdict
              | None -> Alcotest.fail "k1 lost to the compaction kill");
             Alcotest.(check bool) "k2 survived" true
               (Store.find store "k2" <> None);
             Store.close store))

let test_auto_compaction_at_threshold () =
  with_store_path (fun path ->
      let store = Store.open_ ~compact_threshold:3 path in
      let flip i =
        let verdict =
          if i mod 2 = 0 then Speccc_harness.Harness.Consistent
          else Speccc_harness.Harness.Inconsistent
        in
        Store.put store ~key:"k1" (result ~verdict "d1")
      in
      for i = 0 to 5 do flip i done;
      Alcotest.(check bool) "threshold tripped" true
        ((Store.stats store).Store.compactions >= 1);
      Alcotest.(check int) "live unchanged" 1 (Store.stats store).Store.live;
      Store.close store)

(* ---------- keys ---------- *)

let test_key_content_addressing () =
  let d1 = Document.of_texts [ "If the pump is lost, the alarm is triggered." ] in
  let d2 = Document.of_texts [ "If the pump is lost, the alarm is triggered." ] in
  let d3 = Document.of_texts [ "If the pump is lost, the alarm is muted." ] in
  Alcotest.(check string) "same content, same key" (Store.key d1) (Store.key d2);
  Alcotest.(check bool) "different content, different key" true
    (Store.key d1 <> Store.key d3);
  Alcotest.(check bool) "salt separates keyspaces" true
    (Store.key ~salt:"tb=3" d1 <> Store.key ~salt:"tb=7" d1);
  (* Existing stores keep their keys: the digest of a known document
     under the default salt is pinned. *)
  Alcotest.(check string) "pinned digest" "854f89e420f3b94646c8b849ff72b89d"
    (Store.key
       ~salt:(Store.salt_of_options (Pipeline.default_options ()))
       (Document.parse
          "R1: The pump is started.\nAssume-1: The button is pressed.\n"))

(* Per-field audit of the salt: every option that changes the checked
   formulas (and hence possibly the verdict) must feed it; every
   effort knob — which decides whether a verdict is reached, never
   which one is true — must not. *)
let test_salt_of_options () =
  let options = Pipeline.default_options () in
  let base = Store.salt_of_options options in
  let changes name flipped =
    Alcotest.(check bool) (name ^ " feeds the salt") true
      (Store.salt_of_options flipped <> base)
  in
  let inert name flipped =
    Alcotest.(check string) (name ^ " does not feed the salt") base
      (Store.salt_of_options flipped)
  in
  Alcotest.(check string) "default salt unchanged"
    "tb=5,smt=1,nx=0,fe=1,rec=0" base;
  (* formula-changing fields *)
  changes "time budget" { options with Pipeline.time_budget = 7 };
  changes "next-as-X template"
    { options with
      Pipeline.translate =
        { Speccc_translate.Translate.next_as_x =
            not
              options.Pipeline.translate
                .Speccc_translate.Translate.next_as_x } };
  changes "error recovery" { options with Pipeline.recover = true };
  (* engine/effort knobs *)
  inert "engine choice"
    { options with
      Pipeline.engine = Speccc_synthesis.Realizability.Explicit };
  inert "lookahead" { options with Pipeline.lookahead = 11 };
  inert "bound" { options with Pipeline.bound = 2 };
  inert "fuel" { options with Pipeline.fuel = Some 1234 };
  inert "deadline" { options with Pipeline.deadline = Some 0.5 };
  inert "skip engines"
    { options with Pipeline.skip_engines = [ "symbolic" ] };
  inert "certify" { options with Pipeline.certify = true };
  inert "snapshot slot"
    { options with
      Pipeline.snapshot = Some (Speccc_runtime.Snapshot.slot ()) }

let test_cacheable () =
  Alcotest.(check bool) "definite fresh" true (Store.cacheable (result "d"));
  Alcotest.(check bool) "inconsistent fresh" true
    (Store.cacheable (result ~verdict:Speccc_harness.Harness.Inconsistent "d"));
  Alcotest.(check bool) "unknown is budget, not truth" false
    (Store.cacheable (result ~verdict:Speccc_harness.Harness.Unknown "d"));
  Alcotest.(check bool) "failed is environment, not truth" false
    (Store.cacheable (result ~verdict:(Speccc_harness.Harness.Failed "x") "d"));
  Alcotest.(check bool) "replays are not re-persisted" false
    (Store.cacheable { (result "d") with Speccc_harness.Harness.fresh = false })

(* A store log exactly as earlier releases wrote it (the journal line
   with wall as %.3f, with and without a progress object) replays the
   same verdict, engine and detail. *)
let test_earlier_records_replay () =
  with_store_path (fun path ->
      write_file path
        ("SPECCCST1\n"
         ^ frame
             ("k1\n"
              ^ {|{"doc":"pump \"v2\"","verdict":"inconsistent","engine":"explicit","attempts":1,"wall":0.123,"detail":"unrealizable\ncore: R1, R2"}|})
         ^ frame
             ("k2\n"
              ^ {|{"doc":"d2","verdict":"consistent","engine":"symbolic","attempts":2,"wall":0.123,"detail":"ok","progress":{"engine":"symbolic","round":"3"}}|}));
      let store = Store.open_ path in
      let check key (doc, verdict, engine, detail) =
        match Store.find store key with
        | None -> Alcotest.fail (key ^ " not replayed")
        | Some r ->
          Alcotest.(check string) "doc" doc r.Speccc_harness.Harness.doc;
          Alcotest.check verdict_testable "verdict" verdict
            r.Speccc_harness.Harness.verdict;
          Alcotest.(check string) "engine" engine
            r.Speccc_harness.Harness.engine;
          Alcotest.(check string) "detail" detail
            r.Speccc_harness.Harness.detail;
          Alcotest.(check (float 0.)) "wall" 0.123
            r.Speccc_harness.Harness.wall
      in
      check "k1"
        ("pump \"v2\"", Speccc_harness.Harness.Inconsistent, "explicit",
         "unrealizable\ncore: R1, R2");
      check "k2" ("d2", Speccc_harness.Harness.Consistent, "symbolic", "ok");
      Alcotest.(check int) "nothing recovered" 0
        (Store.stats store).Store.recovered_bytes;
      Store.close store)

(* A snapshot record in the earlier one-line format (magic, FNV-1a
   checksum, percent-escaped payload) between two verdict records: it
   no longer decodes, so it is skipped — its key cold-starts — and the
   verdicts around it replay untouched. *)
let test_old_snapshot_record_skipped () =
  with_store_path (fun path ->
      write_file path
        ("SPECCCST1\n"
         ^ frame
             ("k1\n"
              ^ {|{"doc":"d1","verdict":"consistent","engine":"symbolic","attempts":1,"wall":0.01,"detail":"ok"}|})
         ^ frame "k3\nSNAP speccc-snap1|fae35f259d4d44d3|explicit;bound=8"
         ^ frame
             ("k2\n"
              ^ {|{"doc":"d2","verdict":"inconsistent","engine":"explicit","attempts":1,"wall":0.01,"detail":"lost"}|}));
      let skipped = ref 0 in
      let store = Store.open_ ~on_recover:(fun _ -> incr skipped) path in
      Alcotest.(check int) "the old record is reported once" 1 !skipped;
      Alcotest.(check bool) "no snapshot for its key" true
        (Store.find_snapshot store "k3" = None);
      Alcotest.(check bool) "the verdict before it replays" true
        (Store.find store "k1" <> None);
      Alcotest.(check bool) "the verdict after it replays" true
        (Store.find store "k2" <> None);
      let s = Store.stats store in
      Alcotest.(check int) "no snapshots" 0 s.Store.snapshots;
      Alcotest.(check int) "nothing truncated" 0 s.Store.recovered_bytes;
      Alcotest.(check int) "no CRC failures" 0 s.Store.crc_failures;
      Store.close store)

(* The frame's CRC-32 is the snapshot record's corruption check: a
   flipped byte inside the snapshot object drops the record (and the
   tail after it) instead of resuming from damaged progress. *)
let test_snapshot_record_crc () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      Store.put store ~key:"k1" (result "d1");
      let good = file_size path in
      Store.put_snapshot store ~key:"k2"
        (Snapshot.make ~engine:"explicit" [ ("bound", "8") ]);
      Store.close store;
      let data = Bytes.of_string (read_file path) in
      let target = good + 8 + String.length "k2\nSNAP {\"engine\":\"" in
      Bytes.set data target (Char.chr (Char.code (Bytes.get data target) lxor 1));
      write_file path (Bytes.to_string data);
      let warm = Store.open_ ~on_recover:(fun _ -> ()) path in
      let s = Store.stats warm in
      Alcotest.(check int) "CRC failure counted" 1 s.Store.crc_failures;
      Alcotest.(check bool) "no snapshot" true
        (Store.find_snapshot warm "k2" = None);
      Alcotest.(check int) "no snapshots" 0 s.Store.snapshots;
      Alcotest.(check bool) "the verdict before it survives" true
        (Store.find warm "k1" <> None);
      Alcotest.(check int) "truncated back to the sound prefix" good
        (file_size path);
      Store.close warm)

let test_crc32_vector () =
  (* the classic IEEE check value *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l
    (Store.crc32 "123456789");
  Alcotest.(check int32) "crc32(empty)" 0l (Store.crc32 "")

let () =
  Alcotest.run "store"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "put/find roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "reopen warm-starts" `Quick
            test_reopen_warm_starts;
          Alcotest.test_case "same-verdict puts dedupe" `Quick
            test_same_verdict_put_dedupes;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "CRC corruption dropped" `Quick
            test_crc_corruption_dropped;
          Alcotest.test_case "bad header rebuilds empty" `Quick
            test_bad_header_rebuilds_empty;
          Alcotest.test_case "append fault loses only the tail" `Quick
            test_append_fault_loses_only_tail_record;
          Alcotest.test_case "snapshot record CRC" `Quick
            test_snapshot_record_crc;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "compaction drops dead records" `Quick
            test_compaction_drops_dead_records;
          Alcotest.test_case "auto-compaction at threshold" `Quick
            test_auto_compaction_at_threshold;
          Alcotest.test_case "SIGKILL between temp log and rename" `Quick
            test_sigkill_during_compaction;
        ] );
      ( "keys",
        [
          Alcotest.test_case "content addressing" `Quick
            test_key_content_addressing;
          Alcotest.test_case "salt of options" `Quick test_salt_of_options;
          Alcotest.test_case "cacheable predicate" `Quick test_cacheable;
          Alcotest.test_case "crc32 test vector" `Quick test_crc32_vector;
          Alcotest.test_case "earlier records replay" `Quick
            test_earlier_records_replay;
          Alcotest.test_case "old-format snapshot record skipped" `Quick
            test_old_snapshot_record_skipped;
        ] );
    ]
