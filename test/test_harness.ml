(* Tests for the crash-safe batch harness: per-document confinement,
   retries under one budget with recorded backoff, the JSONL journal,
   and resuming an interrupted run without re-checking journaled
   documents. *)

open Speccc_runtime
open Speccc_core
open Speccc_harness

let with_faults ?seed triggers f =
  Fault.install ?seed triggers;
  Fun.protect ~finally:Fault.clear f

let doc texts = Document.of_texts texts

let consistent_doc =
  doc [ "If the start button is pressed, the pump is started." ]

let inconsistent_doc =
  doc
    [ "If the pump is lost, the alarm is triggered.";
      "If the pump is lost, the alarm is not triggered." ]

let garbage_doc = doc [ "The frobnicator zorps quickly." ]

(* A config that never really sleeps; the recorded schedule is the
   backoff assertion surface. *)
let test_config ?journal ?(resume = false) ?(retries = 2) ?sleeps () =
  let sleep s =
    Option.iter (fun r -> r := s :: !r) sleeps;
    s
  in
  { (Harness.default_config ()) with
    Harness.retries; journal; resume; sleep }

let verdicts summary =
  List.map
    (fun r ->
       match r.Harness.verdict with
       | Harness.Consistent -> "consistent"
       | Harness.Inconsistent -> "inconsistent"
       | Harness.Unknown -> "unknown"
       | Harness.Failed _ -> "failed")
    summary.Harness.results

(* ---------- confinement and severity ---------- *)

let test_batch_confines_failures () =
  let summary =
    Harness.run (test_config ())
      [ ("good", consistent_doc); ("bad", garbage_doc);
        ("conflict", inconsistent_doc) ]
  in
  Alcotest.(check (list string)) "verdict classes"
    [ "consistent"; "failed"; "inconsistent" ]
    (verdicts summary);
  Alcotest.(check int) "severity aggregate" 2 summary.Harness.exit_code

let test_all_consistent_exit_zero () =
  let summary =
    Harness.run (test_config ()) [ ("a", consistent_doc); ("b", consistent_doc) ]
  in
  Alcotest.(check int) "exit 0" 0 summary.Harness.exit_code

let test_recover_rescues_partial_garbage () =
  (* With error recovery on, a document that is only partly garbage
     still gets a verdict from its surviving requirements. *)
  let mixed =
    doc
      [ "The frobnicator zorps quickly.";
        "If the start button is pressed, the pump is started." ]
  in
  let config = test_config () in
  let config =
    { config with
      Harness.options =
        { config.Harness.options with Pipeline.recover = true } }
  in
  let summary = Harness.run config [ ("mixed", mixed) ] in
  Alcotest.(check (list string)) "recovered" [ "consistent" ]
    (verdicts summary)

(* ---------- retries and backoff ---------- *)

let test_retry_schedule () =
  let sleeps = ref [] in
  let config = test_config ~retries:3 ~sleeps () in
  let summary = Harness.run config [ ("bad", garbage_doc) ] in
  (match summary.Harness.results with
   | [ { Harness.verdict = Harness.Failed _; attempts; _ } ] ->
     Alcotest.(check int) "all attempts used" 4 attempts
   | _ -> Alcotest.fail "expected one failed result");
  (* bounded exponential backoff: base 0.05, doubled, jittered by a
     per-(key, attempt) factor in [1.0, 1.5), capped at 1.0 — the
     recorded schedule must match Harness.backoff exactly (the jitter
     is deterministic) and stay within the doubling envelope *)
  let expected =
    List.map (fun i -> Harness.backoff config ~key:"bad" i) [ 0; 1; 2 ]
  in
  Alcotest.(check (list (float 1e-9))) "backoff schedule"
    expected (List.rev !sleeps);
  List.iteri
    (fun i slept ->
       let nominal = 0.05 *. (2. ** float_of_int i) in
       Alcotest.(check bool) "within jitter envelope" true
         (slept >= nominal && slept < nominal *. 1.5))
    (List.rev !sleeps)

let test_unreadable_file_is_failed () =
  let summary =
    Harness.run_files (test_config ()) [ "/nonexistent/doc.spec" ]
  in
  Alcotest.(check (list string)) "failed" [ "failed" ] (verdicts summary)

(* Every attempt runs under the caller's budget, so the harness
   answers what one pipeline run at the same options answers, and a
   retry after a transient fault outside the ladder answers what a
   clean run does. *)
let test_harness_keeps_the_budget () =
  let module Realizability = Speccc_synthesis.Realizability in
  let module Cara = Speccc_casestudies.Cara in
  let cara_1 =
    match List.find_opt (fun c -> c.Cara.row = "1") Cara.components with
    | Some c -> doc (Cara.component_sentences c)
    | None -> Alcotest.fail "no CARA:1 component"
  in
  let fail_once =
    { Fault.checkpoint = Fault.Checkpoint.timeabs_solve; after = 0;
      action = Fault.Fail "injected" }
  in
  (* label, document, fuel, faults, expected class, expected attempts *)
  let rows =
    [ ("pump_control at fuel 100",
       Document.of_file "../examples/specs/pump_control.spec", 100, [],
       "unknown", 1);
      ("CARA:1 at fuel 1500, timeabs.solve failing once", cara_1, 1_500,
       [ fail_once ], "consistent", 2) ]
  in
  List.iter
    (fun (label, document, fuel, faults, expected, attempts) ->
       let config = test_config () in
       let options =
         { config.Harness.options with Pipeline.fuel = Some fuel }
       in
       let report =
         (Pipeline.run_document ~options document).Pipeline.report
       in
       let result =
         with_faults faults (fun () ->
             Harness.check_one { config with Harness.options } label document)
       in
       Alcotest.(check string) (label ^ ": pipeline") expected
         (match report.Realizability.verdict with
          | Realizability.Consistent -> "consistent"
          | Realizability.Inconsistent -> "inconsistent"
          | Realizability.Inconclusive _ -> "unknown");
       Alcotest.(check (pair string string)) (label ^ ": harness = pipeline")
         (expected, report.Realizability.engine_used)
         (List.hd
            (verdicts
               { Harness.results = [ result ]; exit_code = 0;
                 interrupted = false }),
          result.Harness.engine);
       Alcotest.(check int) (label ^ ": attempts") attempts
         result.Harness.attempts)
    rows

(* ---------- journal and resume ---------- *)

let temp_journal () =
  let path = Filename.temp_file "speccc_journal" ".jsonl" in
  Sys.remove path;
  path

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let test_journal_written_per_document () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       let summary =
         Harness.run (test_config ~journal:path ())
           [ ("a", consistent_doc); ("b", inconsistent_doc) ]
       in
       Alcotest.(check int) "exit 1" 1 summary.Harness.exit_code;
       let lines = read_lines path in
       Alcotest.(check int) "one line per document" 2 (List.length lines);
       List.iter
         (fun line ->
            Alcotest.(check bool) "looks like a JSON object" true
              (String.length line > 0 && line.[0] = '{'))
         lines)

let test_resume_skips_journaled () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       let documents =
         [ ("d1", consistent_doc); ("d2", inconsistent_doc);
           ("d3", consistent_doc) ]
       in
       (* First run dies on the third document: the harness.document
          checkpoint is announced outside the per-document guard, so
          the injected failure aborts the whole run — the crash. *)
       (match
          with_faults
            [ { Fault.checkpoint = Fault.Checkpoint.harness_document;
                after = 2; action = Fault.Fail "simulated crash" } ]
            (fun () -> Harness.run (test_config ~journal:path ()) documents)
        with
        | _ -> Alcotest.fail "third document must crash the run"
        | exception Runtime.Interrupt (Runtime.Engine_failure (_, why)) ->
          Alcotest.(check string) "crash cause" "simulated crash" why);
       Alcotest.(check int) "two documents journaled" 2
         (List.length (read_lines path));
       (* Second run resumes: d1 and d2 are replayed from the journal
          (attempts = 0), only d3 is actually re-checked. *)
       let summary =
         Harness.run (test_config ~journal:path ~resume:true ()) documents
       in
       (match summary.Harness.results with
        | [ d1; d2; d3 ] ->
          Alcotest.(check bool) "d1 replayed" false d1.Harness.fresh;
          Alcotest.(check int) "d1 not re-run" 0 d1.Harness.attempts;
          Alcotest.(check bool) "d2 replayed" false d2.Harness.fresh;
          Alcotest.(check bool) "d2 verdict preserved" true
            (d2.Harness.verdict = Harness.Inconsistent);
          Alcotest.(check bool) "d3 freshly checked" true d3.Harness.fresh;
          Alcotest.(check bool) "d3 verdict" true
            (d3.Harness.verdict = Harness.Consistent)
        | _ -> Alcotest.fail "expected three results");
       Alcotest.(check int) "exit code still aggregates" 1
         summary.Harness.exit_code;
       Alcotest.(check int) "journal now complete" 3
         (List.length (read_lines path)))

let test_journal_escaping_roundtrip () =
  (* Keys with quotes, backslashes and newlines must survive the
     journal encode/decode cycle used by --resume. *)
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       let weird = "spec \"v2\"\\final\n(draft)" in
       let _ =
         Harness.run (test_config ~journal:path ())
           [ (weird, consistent_doc) ]
       in
       let summary =
         Harness.run (test_config ~journal:path ~resume:true ())
           [ (weird, consistent_doc) ]
       in
       match summary.Harness.results with
       | [ r ] ->
         Alcotest.(check bool) "replayed, not re-run" false r.Harness.fresh;
         Alcotest.(check string) "key restored" weird r.Harness.doc
       | _ -> Alcotest.fail "expected one result")

let test_resume_skips_truncated_line () =
  (* A crash mid-flush leaves a truncated trailing line.  Resume must
     warn, skip it, re-check that document, and the repaired journal
     must be fully parsable afterwards. *)
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       let documents =
         [ ("d1", consistent_doc); ("d2", inconsistent_doc);
           ("d3", consistent_doc) ]
       in
       let _ = Harness.run (test_config ~journal:path ()) documents in
       (* hand-truncate: keep two full lines plus a torn third *)
       let lines = read_lines path in
       let torn =
         match lines with
         | [ l1; l2; l3 ] ->
           let oc = open_out path in
           output_string oc (l1 ^ "\n" ^ l2 ^ "\n");
           output_string oc (String.sub l3 0 (String.length l3 / 2));
           close_out oc;
           String.sub l3 0 (String.length l3 / 2)
         | _ -> Alcotest.fail "expected three journal lines"
       in
       let corrupt = ref [] in
       let replayed =
         Harness.journal_read
           ~on_corrupt:(fun line_no line -> corrupt := (line_no, line) :: !corrupt)
           path
       in
       Alcotest.(check int) "two lines replayed" 2 (List.length replayed);
       Alcotest.(check (list (pair int string))) "torn line reported"
         [ (3, torn) ] !corrupt;
       (* a resumed run re-checks only d3 *)
       let summary =
         Harness.run (test_config ~journal:path ~resume:true ()) documents
       in
       (match summary.Harness.results with
        | [ d1; d2; d3 ] ->
          Alcotest.(check bool) "d1 replayed" false d1.Harness.fresh;
          Alcotest.(check bool) "d2 replayed" false d2.Harness.fresh;
          Alcotest.(check bool) "d3 re-checked" true d3.Harness.fresh
        | _ -> Alcotest.fail "expected three results");
       (* the resume repaired the crash artifact: the torn trailing
          line was truncated off before d3's line was appended, so the
          journal is wholly sound again *)
       let healed = ref 0 in
       let replayed' =
         Harness.journal_read
           ~on_corrupt:(fun _ _ -> incr healed)
           path
       in
       Alcotest.(check int) "three parsable lines" 3 (List.length replayed');
       Alcotest.(check int) "no corruption left after repair" 0 !healed)

let test_journal_repair_truncates_torn_tail () =
  (* With [repair], a trailing run of torn lines is physically cut off
     the file, so the crash artifact is cleaned once instead of
     re-skipped on every later read; interior corruption is preserved
     (only warned about). *)
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       let documents =
         [ ("d1", consistent_doc); ("d2", inconsistent_doc) ]
       in
       let _ = Harness.run (test_config ~journal:path ()) documents in
       let size_before = (Unix.stat path).Unix.st_size in
       (match read_lines path with
        | [ l1; l2 ] ->
          let oc = open_out path in
          output_string oc (l1 ^ "\n" ^ l2 ^ "\n");
          output_string oc (String.sub l2 0 (String.length l2 / 2));
          close_out oc
        | _ -> Alcotest.fail "expected two journal lines");
       let replayed = Harness.journal_read ~repair:true path in
       Alcotest.(check int) "both sound lines replayed" 2
         (List.length replayed);
       Alcotest.(check int) "torn tail physically truncated" size_before
         (Unix.stat path).Unix.st_size;
       (* second read: nothing corrupt remains *)
       let corrupt = ref 0 in
       let replayed' =
         Harness.journal_read ~on_corrupt:(fun _ _ -> incr corrupt) path
       in
       Alcotest.(check int) "clean re-read" 2 (List.length replayed');
       Alcotest.(check int) "no corruption left" 0 !corrupt)

let test_journal_parse_line_roundtrip () =
  let result =
    Harness.check_one (test_config ()) "spec \"quoted\"\nkey" inconsistent_doc
  in
  (match Harness.journal_parse_line (Harness.journal_line result) with
   | Some r ->
     Alcotest.(check string) "doc key" result.Harness.doc r.Harness.doc;
     Alcotest.(check bool) "inconsistent" true
       (r.Harness.verdict = Harness.Inconsistent);
     Alcotest.(check string) "engine" result.Harness.engine r.Harness.engine;
     Alcotest.(check bool) "replay markers" true
       ((not r.Harness.fresh) && r.Harness.attempts = 0)
   | None -> Alcotest.fail "journal line did not parse back");
  (* a torn line (no closing brace) is rejected, never half-parsed *)
  let line = Harness.journal_line result in
  Alcotest.(check bool) "torn line rejected" true
    (Harness.journal_parse_line (String.sub line 0 (String.length line - 1))
     = None)

(* ---------- the journal format ---------- *)

let verdict_gen =
  let open QCheck2.Gen in
  oneofl
    [ Harness.Consistent; Harness.Inconsistent; Harness.Unknown;
      Harness.Failed "" ]

(* doc keys, engines and details of arbitrary bytes: quotes,
   backslashes, newlines, control characters, bytes >= 0x80 *)
let result_gen =
  let open QCheck2.Gen in
  let bytes = string_size ~gen:char (0 -- 24) in
  let progress =
    opt
      (map2
         (fun engine fields ->
            Speccc_runtime.Snapshot.make ~engine fields)
         (oneofl [ "explicit"; "symbolic" ])
         (list_size (0 -- 3) (pair (oneofl [ "bound"; "round" ]) bytes)))
  in
  map
    (fun ((doc, verdict, engine), (detail, wall, progress)) ->
       let verdict =
         match verdict with Harness.Failed _ -> Harness.Failed detail | v -> v
       in
       { Harness.doc; verdict; engine; attempts = 1; wall; detail;
         fresh = true; degradation = []; progress })
    (pair
       (triple bytes verdict_gen bytes)
       (triple bytes (float_range 0. 1e5) progress))

let prop_journal_roundtrip =
  QCheck2.Test.make ~count:300
    ~name:"journal_parse_line (journal_line r) restores r"
    ~print:Harness.journal_line result_gen
    (fun r ->
       match Harness.journal_parse_line (Harness.journal_line r) with
       | None -> false
       | Some p ->
         p.Harness.doc = r.Harness.doc
         && p.Harness.verdict = r.Harness.verdict
         && p.Harness.engine = r.Harness.engine
         && p.Harness.detail = r.Harness.detail
         && p.Harness.wall = Float.round (r.Harness.wall *. 1000.) /. 1000.
         && (not p.Harness.fresh) && p.Harness.attempts = 0)

(* Lines exactly as earlier releases wrote them (wall as %.3f, the
   progress object last) replay the same verdict, engine and detail. *)
let test_journal_reads_earlier_lines () =
  let lines =
    [ {|{"doc":"specs/a \"b\".spec","verdict":"inconsistent","engine":"explicit","attempts":1,"wall":0.123,"detail":"unrealizable\tcore: R1, R2\u001f"}|};
      {|{"doc":"d2","verdict":"unknown","engine":"none","attempts":3,"wall":0.123,"detail":"budget exhausted","progress":{"engine":"explicit","bound":"4"}}|};
      {|{"doc":"d3","verdict":"failed","engine":"none","attempts":3,"wall":0.000,"detail":"parse error: line 1"}|} ]
  in
  let expected =
    [ ("specs/a \"b\".spec", Harness.Inconsistent, "explicit",
       "unrealizable\tcore: R1, R2\031", 0.123);
      ("d2", Harness.Unknown, "none", "budget exhausted", 0.123);
      ("d3", Harness.Failed "parse error: line 1", "none",
       "parse error: line 1", 0.) ]
  in
  List.iter2
    (fun line (doc, verdict, engine, detail, wall) ->
       match Harness.journal_parse_line line with
       | None -> Alcotest.fail ("earlier line rejected: " ^ line)
       | Some r ->
         Alcotest.(check string) "doc" doc r.Harness.doc;
         Alcotest.(check bool) (doc ^ " verdict") true
           (r.Harness.verdict = verdict);
         Alcotest.(check string) "engine" engine r.Harness.engine;
         Alcotest.(check string) "detail" detail r.Harness.detail;
         Alcotest.(check (float 0.)) "wall" wall r.Harness.wall;
         Alcotest.(check bool) "replay markers" true
           ((not r.Harness.fresh) && r.Harness.attempts = 0))
    lines expected

(* A partial verdict ends in the progress object's brace; cut just
   before the outer one, the line still ends in '}' but is torn. *)
let test_journal_torn_nested_brace () =
  let partial =
    { (Harness.check_one (test_config ()) "d1" consistent_doc) with
      Harness.verdict = Harness.Unknown;
      progress =
        Some (Speccc_runtime.Snapshot.make ~engine:"explicit" [ ("bound", "8") ])
    }
  in
  let line = Harness.journal_line partial in
  let torn = String.sub line 0 (String.length line - 1) in
  Alcotest.(check char) "torn line ends in the inner brace" '}'
    torn.[String.length torn - 1];
  Alcotest.(check bool) "torn line rejected" true
    (Harness.journal_parse_line torn = None);
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       let good = Harness.journal_line { partial with Harness.doc = "d0" } in
       let oc = open_out_bin path in
       output_string oc (good ^ "\n" ^ torn);
       close_out oc;
       let corrupt = ref 0 in
       let replayed =
         Harness.journal_read ~repair:true
           ~on_corrupt:(fun _ _ -> incr corrupt) path
       in
       Alcotest.(check (list string)) "only the sound line replays" [ "d0" ]
         (List.map fst replayed);
       Alcotest.(check int) "torn line reported" 1 !corrupt;
       Alcotest.(check int) "torn tail truncated"
         (String.length good + 1) (Unix.stat path).Unix.st_size)

let test_journal_fsync_append () =
  (* [fsync] is a durability upgrade, not a format change: the line
     must read back exactly like a flushed one. *)
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       let result =
         Harness.check_one (test_config ()) "d1" consistent_doc
       in
       Harness.journal_append ~fsync:true path result;
       match Harness.journal_read path with
       | [ (key, r) ] ->
         Alcotest.(check string) "key" "d1" key;
         Alcotest.(check bool) "verdict survives" true
           (r.Harness.verdict = Harness.Consistent)
       | _ -> Alcotest.fail "expected one fsynced line")

(* ---------- persistent-store hooks ---------- *)

let test_store_hook_short_circuits () =
  (* A store hit is returned with the replay markers and no engine
     runs; fresh definite verdicts are offered to [store_put]. *)
  let stored = Hashtbl.create 4 in
  let puts = ref [] in
  let config =
    { (test_config ()) with
      Harness.store_find =
        Some (fun doc -> Hashtbl.find_opt stored (Document.texts doc));
      store_put =
        Some
          (fun doc result ->
            puts := result.Harness.verdict :: !puts;
            Hashtbl.replace stored (Document.texts doc) result) }
  in
  let first = Harness.check_one config "d1" inconsistent_doc in
  Alcotest.(check bool) "first run is fresh" true first.Harness.fresh;
  Alcotest.(check int) "definite verdict persisted" 1 (List.length !puts);
  let second = Harness.check_one config "d1-again" inconsistent_doc in
  Alcotest.(check bool) "second run served from store" false
    second.Harness.fresh;
  Alcotest.(check int) "store hit burns no attempts" 0
    second.Harness.attempts;
  Alcotest.(check string) "caller's key, not the stored one" "d1-again"
    second.Harness.doc;
  Alcotest.(check bool) "same verdict" true
    (second.Harness.verdict = Harness.Inconsistent);
  Alcotest.(check int) "no second put" 1 (List.length !puts)

let test_store_hook_skips_indefinite () =
  (* Failed/Unknown verdicts indict the budget or environment, not the
     spec: they are never offered to the store. *)
  let puts = ref 0 in
  let config =
    { (test_config ~retries:0 ()) with
      Harness.store_find = Some (fun _ -> None);
      store_put = Some (fun _ _ -> incr puts) }
  in
  let result = Harness.check_one config "bad" garbage_doc in
  Alcotest.(check bool) "parse failure is Failed" true
    (match result.Harness.verdict with Harness.Failed _ -> true | _ -> false);
  Alcotest.(check int) "nothing persisted" 0 !puts

let test_store_hook_failure_degrades () =
  (* A raising lookup is a miss; a raising put is swallowed — store
     I/O never loses a verdict already in hand. *)
  let config =
    { (test_config ()) with
      Harness.store_find = Some (fun _ -> failwith "store down");
      store_put = Some (fun _ _ -> failwith "store down") }
  in
  let result = Harness.check_one config "d1" consistent_doc in
  Alcotest.(check bool) "checked fresh despite store errors" true
    result.Harness.fresh;
  Alcotest.(check bool) "verdict intact" true
    (result.Harness.verdict = Harness.Consistent)

let test_stop_flag_interrupts () =
  (* config.stop is the SIGINT path: polled before each fresh
     document, it ends the run over a clean input-order prefix. *)
  let polls = ref 0 in
  let config =
    { (test_config ()) with
      Harness.stop =
        (fun () ->
           incr polls;
           !polls > 1) }
  in
  let summary =
    Harness.run config
      [ ("d1", consistent_doc); ("d2", consistent_doc);
        ("d3", consistent_doc) ]
  in
  Alcotest.(check bool) "interrupted" true summary.Harness.interrupted;
  Alcotest.(check (list string)) "prefix checked" [ "consistent" ]
    (verdicts summary);
  (match summary.Harness.results with
   | [ d1 ] -> Alcotest.(check string) "the first document" "d1" d1.Harness.doc
   | _ -> Alcotest.fail "expected exactly one result")

(* ---------- parallel batch checking ---------- *)

let parallel_documents =
  [ ("good-1", consistent_doc); ("conflict", inconsistent_doc);
    ("bad", garbage_doc); ("good-2", consistent_doc);
    ("good-3", consistent_doc) ]

(* Everything except the timing-dependent wall clock. *)
let comparable r =
  ( r.Harness.doc,
    verdicts { Harness.results = [ r ]; exit_code = 0; interrupted = false },
    r.Harness.engine, r.Harness.attempts, r.Harness.detail,
    r.Harness.fresh )

let test_parallel_matches_sequential () =
  let sequential = Harness.run (test_config ()) parallel_documents in
  let parallel =
    Harness.run
      { (test_config ()) with Harness.jobs = 4 }
      parallel_documents
  in
  Alcotest.(check int) "same exit code" sequential.Harness.exit_code
    parallel.Harness.exit_code;
  Alcotest.(check int) "same result count"
    (List.length sequential.Harness.results)
    (List.length parallel.Harness.results);
  List.iter2
    (fun s p ->
       Alcotest.(check bool)
         ("result for " ^ s.Harness.doc ^ " identical modulo wall") true
         (comparable s = comparable p))
    sequential.Harness.results parallel.Harness.results

let test_parallel_matches_sequential_under_faults () =
  (* The jobs=4 --inject drill: fault plans are process-global and
     mutex-protected, so a parallel run under an installed plan counts
     exactly the same checkpoint hits and reaches the same verdicts as
     the sequential run.  The Exhaust on the symbolic rung degrades
     whichever document draws it down the ladder without changing its
     verdict, so the comparison is scheduling-independent. *)
  let plan =
    [ { Fault.checkpoint = Fault.Checkpoint.engine_symbolic; after = 1;
        action = Fault.Exhaust } ]
  in
  let governed_config jobs =
    let config = { (test_config ()) with Harness.jobs } in
    { config with
      Harness.options =
        { config.Harness.options with Pipeline.fuel = Some 200_000 } }
  in
  let run jobs =
    with_faults plan (fun () ->
        let summary = Harness.run (governed_config jobs) parallel_documents in
        ( verdicts summary, summary.Harness.exit_code,
          Fault.hits Fault.Checkpoint.engine_symbolic ))
  in
  let seq_verdicts, seq_exit, seq_hits = run 1 in
  let par_verdicts, par_exit, par_hits = run 4 in
  Alcotest.(check (list string)) "same verdicts" seq_verdicts par_verdicts;
  Alcotest.(check int) "same exit code" seq_exit par_exit;
  Alcotest.(check bool) "checkpoint hit at least once" true (seq_hits > 0);
  Alcotest.(check int) "exact hit counts under parallelism" seq_hits
    par_hits

(* Blank out the timing-dependent "wall":<float> field. *)
let strip_wall line =
  let n = String.length line in
  let buf = Buffer.create n in
  let is_float_char = function
    | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
    | _ -> false
  in
  let rec go i =
    if i >= n then ()
    else if i + 7 <= n && String.sub line i 7 = "\"wall\":" then begin
      Buffer.add_string buf "\"wall\":_";
      let j = ref (i + 7) in
      while !j < n && is_float_char line.[!j] do incr j done;
      go !j
    end
    else begin
      Buffer.add_char buf line.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let test_parallel_journal_order () =
  let seq_path = temp_journal () and par_path = temp_journal () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ seq_path; par_path ])
    (fun () ->
       let _ =
         Harness.run (test_config ~journal:seq_path ()) parallel_documents
       in
       let _ =
         Harness.run
           { (test_config ~journal:par_path ()) with Harness.jobs = 4 }
           parallel_documents
       in
       let seq_lines = List.map strip_wall (read_lines seq_path) in
       let par_lines = List.map strip_wall (read_lines par_path) in
       Alcotest.(check (list string))
         "journals identical modulo wall, in input order" seq_lines
         par_lines)

let () =
  Alcotest.run "harness"
    [
      ( "confinement",
        [
          Alcotest.test_case "failures confined per document" `Quick
            test_batch_confines_failures;
          Alcotest.test_case "all consistent exits 0" `Quick
            test_all_consistent_exit_zero;
          Alcotest.test_case "recover rescues partial garbage" `Quick
            test_recover_rescues_partial_garbage;
        ] );
      ( "retries",
        [
          Alcotest.test_case "bounded exponential backoff" `Quick
            test_retry_schedule;
          Alcotest.test_case "unreadable file" `Quick
            test_unreadable_file_is_failed;
          Alcotest.test_case "every attempt keeps the caller's budget"
            `Quick test_harness_keeps_the_budget;
        ] );
      ( "journal",
        [
          Alcotest.test_case "written per document" `Quick
            test_journal_written_per_document;
          Alcotest.test_case "resume skips journaled docs" `Quick
            test_resume_skips_journaled;
          Alcotest.test_case "escaping roundtrip" `Quick
            test_journal_escaping_roundtrip;
          Alcotest.test_case "truncated trailing line" `Quick
            test_resume_skips_truncated_line;
          Alcotest.test_case "repair truncates the torn tail" `Quick
            test_journal_repair_truncates_torn_tail;
          Alcotest.test_case "parse-line roundtrip" `Quick
            test_journal_parse_line_roundtrip;
          Alcotest.test_case "fsync append reads back" `Quick
            test_journal_fsync_append;
          QCheck_alcotest.to_alcotest prop_journal_roundtrip;
          Alcotest.test_case "earlier lines replay" `Quick
            test_journal_reads_earlier_lines;
          Alcotest.test_case "torn nested brace" `Quick
            test_journal_torn_nested_brace;
        ] );
      ( "store hooks",
        [
          Alcotest.test_case "hit short-circuits the engines" `Quick
            test_store_hook_short_circuits;
          Alcotest.test_case "indefinite verdicts not persisted" `Quick
            test_store_hook_skips_indefinite;
          Alcotest.test_case "store failure degrades to miss" `Quick
            test_store_hook_failure_degrades;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "stop flag ends run over a prefix" `Quick
            test_stop_flag_interrupts;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs=4 matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "jobs=4 with injected faults" `Quick
            test_parallel_matches_sequential_under_faults;
          Alcotest.test_case "journal in input order" `Quick
            test_parallel_journal_order;
        ] );
    ]
