(* The single engine ladder: governed and ungoverned callers share one
   check path, so every entry point reports the same engine, witnesses
   are produced whenever a caller reads them, and fuel accounting does
   not depend on what the automaton caches hold. *)

open Speccc_logic
open Speccc_core
open Speccc_synthesis
module Budget = Speccc_runtime.Budget
module Table1 = Speccc_casestudies.Table1
module Harness = Speccc_harness.Harness
module Certify = Speccc_certify.Certify
module Fault = Speccc_runtime.Fault
module Partition = Speccc_partition.Partition

let parse = Ltl_parse.formula

let spec_file name = Filename.concat "../examples/specs" name

let verdict_class = function
  | Realizability.Consistent -> "consistent"
  | Realizability.Inconsistent -> "inconsistent"
  | Realizability.Inconclusive _ -> "unknown"

(* ---------- witnesses: certify with and without a budget ---------- *)

(* Materialized transition table: counterstrategies carry closures. *)
let cs_table (cs : Bounded.counterstrategy) =
  let answers = 1 lsl List.length cs.Bounded.cs_outputs in
  String.concat ";"
    (List.init cs.Bounded.cs_num_states (fun state ->
         Printf.sprintf "%d!%d:%s" state (cs.Bounded.cs_move state)
           (String.concat ","
              (List.init answers (fun output ->
                   string_of_int (cs.Bounded.cs_next state output))))))

let test_certify_identity () =
  let document = Document.of_file (spec_file "alarm_conflict.spec") in
  let certified =
    { (Pipeline.default_options ()) with Pipeline.certify = true }
  in
  let run label options =
    let outcome = Pipeline.run_document ~options document in
    let report = outcome.Pipeline.report in
    Alcotest.(check string) (label ^ ": verdict") "inconsistent"
      (verdict_class report.Realizability.verdict);
    Alcotest.(check string) (label ^ ": engine") "explicit"
      report.Realizability.engine_used;
    (match outcome.Pipeline.certificate with
     | Some (Certify.Certified _) -> ()
     | Some (Certify.Rejected why | Certify.No_witness why) ->
       Alcotest.fail (label ^ ": not certified: " ^ why)
     | None -> Alcotest.fail (label ^ ": no certificate"));
    match report.Realizability.counterstrategy with
    | Some cs -> cs_table cs
    | None -> Alcotest.fail (label ^ ": no counterstrategy")
  in
  let plain = run "ungoverned" certified in
  Alcotest.(check string) "deadline: same counterstrategy" plain
    (run "deadline" { certified with Pipeline.deadline = Some 60. });
  Alcotest.(check string) "fuel: same counterstrategy" plain
    (run "fuel" { certified with Pipeline.fuel = Some 1_000_000 });
  (* an uncertified check never reads the witness, so the symbolic
     refutation stands without the explicit dual game *)
  let outcome = Pipeline.run_document document in
  Alcotest.(check string) "uncertified engine" "symbolic"
    outcome.Pipeline.report.Realizability.engine_used;
  Alcotest.(check bool) "uncertified: no counterstrategy" true
    (outcome.Pipeline.report.Realizability.counterstrategy = None)

(* ---------- Robot rows under default options ---------- *)

let robot_row row_id =
  match
    List.find_opt
      (fun row -> row.Table1.group = "Robot" && row.Table1.row_id = row_id)
      Table1.rows
  with
  | Some { Table1.source = Table1.Formulas (formulas, inputs, outputs); _ } ->
    (formulas, { Speccc_partition.Partition.inputs; outputs })
  | Some _ | None -> Alcotest.fail ("no formal Robot row " ^ row_id)

let test_robot_rows () =
  List.iter
    (fun row_id ->
       let formulas, partition = robot_row row_id in
       let _, report = Pipeline.check_formulas ~partition formulas in
       Alcotest.(check string) ("Robot:" ^ row_id) "consistent"
         (verdict_class report.Realizability.verdict))
    [ "1"; "2" ]

(* ---------- cross-entry identity ---------- *)

(* Table I rows whose check decides in well under a second. *)
let fast_rows =
  [ ("CARA", "0"); ("CARA", "1"); ("CARA", "2.1.2"); ("CARA", "2.1.3");
    ("CARA", "2.2.2"); ("CARA", "2.2.3"); ("CARA", "2.2.4");
    ("CARA", "2.2.5"); ("CARA", "2.2.6"); ("CARA", "2.2.7");
    ("CARA", "3.1"); ("CARA", "3.2"); ("TELE", "2"); ("TELE", "3");
    ("TELE", "4"); ("TELE", "5") ]

let identity_documents () =
  List.map
    (fun name -> (name, Document.of_file (spec_file name)))
    [ "alarm_conflict.spec"; "pump_control.spec"; "start_stop.spec" ]
  @ List.filter_map
      (fun row ->
         match row.Table1.source with
         | Table1.Sentences texts
           when List.mem (row.Table1.group, row.Table1.row_id) fast_rows ->
           Some
             (row.Table1.group ^ ":" ^ row.Table1.row_id,
              Document.of_texts texts)
         | Table1.Sentences _ | Table1.Formulas _ -> None)
      Table1.rows

let harness_class = function
  | Harness.Consistent -> "consistent"
  | Harness.Inconsistent -> "inconsistent"
  | Harness.Unknown -> "unknown"
  | Harness.Failed why -> "failed: " ^ why

let test_cross_entry_identity () =
  List.iter
    (fun (key, document) ->
       let report = (Pipeline.run_document document).Pipeline.report in
       let expected =
         (verdict_class report.Realizability.verdict,
          report.Realizability.engine_used)
       in
       (* the serve mode's per-request options *)
       let config =
         let base = Harness.default_config () in
         { base with
           Harness.options =
             { base.Harness.options with
               Pipeline.deadline = Some 60.;
               cancel = Some (Speccc_runtime.Cancellation.create ());
               snapshot = Some (Speccc_runtime.Snapshot.slot ()) } }
       in
       let served = Harness.check_one config key document in
       let watched =
         (Watch.check (Watch.create document)).Watch.outcome.Pipeline.report
       in
       let pair = Alcotest.(pair string string) in
       Alcotest.check pair (key ^ ": serve = check") expected
         (harness_class served.Harness.verdict, served.Harness.engine);
       Alcotest.check pair (key ^ ": watch = check") expected
         (verdict_class watched.Realizability.verdict,
          watched.Realizability.engine_used))
    (identity_documents ())

(* ---------- fuel accounting with warm and cold automaton caches ---------- *)

let test_warm_cold_exhaustion () =
  let inputs = [ "req"; "stop" ] and outputs = [ "grant"; "busy" ] in
  let formulas =
    [ parse "G (req -> F grant)"; parse "G (stop -> X !busy)";
      parse "G (grant -> busy U !req)" ]
  in
  let in_tableau = ref false in
  let run engine fuel =
    let budget = Budget.create ~fuel () in
    let report =
      Realizability.check ~budget ~engine ~inputs ~outputs formulas
    in
    let rungs =
      List.map
        (fun rung -> rung.Realizability.rung_outcome)
        report.Realizability.degradation
    in
    if List.mem "tableau: step budget exhausted" rungs then
      in_tableau := true;
    Printf.sprintf "spent %d, %s by %s, rungs [%s]" (Budget.spent budget)
      (verdict_class report.Realizability.verdict)
      report.Realizability.engine_used (String.concat "; " rungs)
  in
  List.iter
    (fun fuel ->
       List.iter
         (fun engine ->
            Speccc_cache.Cache.shed ();
            let cold = run engine fuel in
            ignore (Realizability.check ~engine ~inputs ~outputs formulas);
            Alcotest.(check string)
              (Printf.sprintf "fuel %d: warm = cold" fuel)
              cold (run engine fuel))
         [ Realizability.Explicit; Realizability.Auto ])
    [ 10; 40; 150; 600; 2_500; 10_000; 40_000 ];
  Alcotest.(check bool) "some run exhausted inside the tableau" true
    !in_tableau

(* The symbolic rung loses at every lookahead it tries on this
   document, and the explicit dual game needs most of a 100 000-step
   budget to refute it.  As the last rung it gets everything the
   symbolic rung left, so the budgeted verdict is the unbudgeted one. *)
let test_last_rung_gets_the_rest () =
  let inputs = [ "lost"; "req" ] and outputs = [ "inflate" ] in
  let formulas =
    [ parse "G (!lost -> X X X !inflate)";
      parse "G (!lost && req -> F inflate)";
      parse "G (!lost && !req -> F inflate)" ]
  in
  let report =
    Realizability.check ~budget:(Budget.create ~fuel:100_000 ()) ~inputs
      ~outputs formulas
  in
  Alcotest.(check string) "verdict" "inconsistent"
    (verdict_class report.Realizability.verdict);
  Alcotest.(check string) "engine" "explicit"
    report.Realizability.engine_used;
  match Certify.apply ~assumptions:[] formulas report with
  | _, Certify.Certified _ -> ()
  | _, (Certify.Rejected why | Certify.No_witness why) ->
    Alcotest.fail ("counterstrategy not certified: " ^ why)

(* ---------- the lint step ---------- *)

let with_faults triggers f =
  Fault.install triggers;
  Fun.protect ~finally:Fault.clear f

let fail_at checkpoint =
  { Fault.checkpoint; after = 0; action = Fault.Fail "injected" }

let zero_walls rungs =
  List.map (fun rung -> { rung with Realizability.rung_wall = 0. }) rungs

(* The lint step belongs to the ladder, so a direct check and the
   pipeline agree when both engines fail on a plain conflict. *)
let test_lint_step_direct_equals_pipeline () =
  let formulas = [ parse "G o"; parse "G !o" ] in
  let engines_failing f =
    with_faults
      [ fail_at Fault.Checkpoint.engine_symbolic;
        fail_at Fault.Checkpoint.engine_explicit ]
      f
  in
  let partition, piped =
    engines_failing (fun () -> Pipeline.check_formulas formulas)
  in
  let direct =
    engines_failing (fun () ->
        Realizability.check ~inputs:partition.Partition.inputs
          ~outputs:partition.Partition.outputs formulas)
  in
  List.iter
    (fun (label, report) ->
       Alcotest.(check string) (label ^ ": verdict") "inconsistent"
         (verdict_class report.Realizability.verdict);
       Alcotest.(check string) (label ^ ": engine") "lint"
         report.Realizability.engine_used;
       Alcotest.(check (option (list int))) (label ^ ": core")
         (Some [ 0; 1 ]) report.Realizability.unsat_core)
    [ ("pipeline", piped); ("direct", direct) ];
  Alcotest.(check (list string)) "engines failed" [ "symbolic"; "explicit" ]
    (List.map
       (fun rung -> rung.Realizability.rung_engine)
       direct.Realizability.degradation);
  Alcotest.(check bool) "same degradation" true
    (zero_walls (Realizability.canonical_degradation direct)
     = zero_walls (Realizability.canonical_degradation piped))

(* The lint pass reads the guarantees without their antecedent, so it
   takes no step under assumptions.  Contradictory assumptions make
   this document vacuously realizable; with the explicit rung (the
   assumption ladder's only one) failed, nobody decides, where a lint
   step would refute the contradictory guarantees. *)
let test_no_lint_step_under_assumptions () =
  let document =
    Document.parse
      "Assume-1: The button is pressed.
       Assume-2: The button is not pressed.
       R1: The pump is started.
       R2: The pump is not started.
"
  in
  Alcotest.(check string) "clean check" "consistent"
    (verdict_class
       (Pipeline.run_document document).Pipeline.report.Realizability.verdict);
  let outcome =
    with_faults [ fail_at Fault.Checkpoint.engine_explicit ] (fun () ->
        Pipeline.run_document document)
  in
  let report = outcome.Pipeline.report in
  Alcotest.(check string) "verdict" "unknown"
    (verdict_class report.Realizability.verdict);
  Alcotest.(check string) "engine" "none" report.Realizability.engine_used;
  Alcotest.(check (list string)) "no lint rung" [ "explicit" ]
    (List.map
       (fun rung -> rung.Realizability.rung_engine)
       report.Realizability.degradation)

(* TELE:4 is too wide for the explicit rung and the symbolic rung
   loses at every lookahead: nobody decided, so the engine is "none",
   while the detail stays the symbolic rung's. *)
let test_nobody_decided () =
  let texts =
    match
      List.find_opt
        (fun row -> row.Table1.group = "TELE" && row.Table1.row_id = "4")
        Table1.rows
    with
    | Some { Table1.source = Table1.Sentences texts; _ } -> texts
    | Some _ | None -> Alcotest.fail "no TELE:4 row"
  in
  let outcome = Pipeline.run texts in
  let partition = outcome.Pipeline.partition.Partition.partition in
  let report =
    Realizability.check ~inputs:partition.Partition.inputs
      ~outputs:partition.Partition.outputs outcome.Pipeline.formulas
  in
  List.iter
    (fun (label, report) ->
       Alcotest.(check string) (label ^ ": verdict") "unknown"
         (verdict_class report.Realizability.verdict);
       Alcotest.(check string) (label ^ ": engine") "none"
         report.Realizability.engine_used;
       Alcotest.(check string) (label ^ ": detail")
         "eventualities were bounded before solving; a larger lookahead \
          may succeed"
         report.Realizability.detail)
    [ ("pipeline", outcome.Pipeline.report); ("direct", report) ]

let () =
  Alcotest.run "ladder"
    [
      ( "witness",
        [ Alcotest.test_case "certify with and without a budget" `Quick
            test_certify_identity ] );
      ( "engine-policy",
        [ Alcotest.test_case "Robot:1 and Robot:2 consistent" `Quick
            test_robot_rows;
          Alcotest.test_case "check, serve and watch agree" `Slow
            test_cross_entry_identity ] );
      ( "fuel",
        [ Alcotest.test_case "warm and cold caches exhaust alike" `Quick
            test_warm_cold_exhaustion;
          Alcotest.test_case "the last rung gets the rest of the fuel"
            `Quick test_last_rung_gets_the_rest ] );
      ( "lint-step",
        [ Alcotest.test_case "direct check equals the pipeline" `Quick
            test_lint_step_direct_equals_pipeline;
          Alcotest.test_case "nobody decided: engine none" `Quick
            test_nobody_decided;
          Alcotest.test_case "no lint step under assumptions" `Quick
            test_no_lint_step_under_assumptions ] );
    ]
