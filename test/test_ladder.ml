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

(* The lint step stops at its first conflict.  CARA:3.1's whole
   specification is a vacuity context the tableau cannot build within
   the lint reserve, so a full lint pass here spends the reserve after
   it has found the pump pair's conflict; the step must keep it. *)
let test_lint_step_keeps_its_conflict () =
  let cara_3_1 =
    List.find (fun c -> c.Speccc_casestudies.Cara.row = "3.1")
      Speccc_casestudies.Cara.components
  in
  let document =
    Document.of_texts
      ([ "The pump is started."; "The pump is not started." ]
       @ Speccc_casestudies.Cara.component_sentences cara_3_1)
  in
  let report =
    (with_faults
       [ fail_at Fault.Checkpoint.engine_symbolic;
         fail_at Fault.Checkpoint.engine_explicit ]
       (fun () -> Pipeline.run_document document))
      .Pipeline.report
  in
  Alcotest.(check string) "verdict" "inconsistent"
    (verdict_class report.Realizability.verdict);
  Alcotest.(check string) "engine" "lint" report.Realizability.engine_used;
  Alcotest.(check (option (list int))) "core" (Some [ 0; 1 ])
    report.Realizability.unsat_core

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

(* A wide document that nobody decides: [G (i -> F o)] and
   [G (j -> !o)] conflict only through the eventuality, so the
   symbolic rung loses at every lookahead, the one liveness-free
   output component {[G (j -> !o)]} is realizable, the six padding
   components are too, 16 propositions keep the whole game off the
   explicit rung, and the pair is satisfiable, so lint finds nothing.
   The engine is "none", while the detail stays the symbolic rung's. *)
let test_nobody_decided () =
  let padding =
    List.init 6 (fun k -> Printf.sprintf "G (a%d -> b%d)" k k)
  in
  let formulas =
    List.map parse ([ "G (i -> F o)"; "G (j -> !o)" ] @ padding)
  in
  let partition =
    { Partition.inputs = [ "i"; "j" ] @ List.init 6 (Printf.sprintf "a%d");
      outputs = "o" :: List.init 6 (Printf.sprintf "b%d") }
  in
  let _, piped = Pipeline.check_formulas ~partition formulas in
  let direct =
    Realizability.check ~inputs:partition.Partition.inputs
      ~outputs:partition.Partition.outputs formulas
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
    [ ("pipeline", piped); ("direct", direct) ]

(* ---------- refutation on output components ---------- *)

let certified label formulas report =
  match Certify.apply ~assumptions:[] formulas report with
  | _, Certify.Certified _ -> ()
  | _, (Certify.Rejected why | Certify.No_witness why) ->
    Alcotest.fail (label ^ ": counterstrategy not certified: " ^ why)

let refuted label ~expected (outcome : Pipeline.outcome) =
  let report = outcome.Pipeline.report in
  Alcotest.(check string) (label ^ ": verdict") "inconsistent"
    (verdict_class report.Realizability.verdict);
  Alcotest.(check string) (label ^ ": engine") "explicit"
    report.Realizability.engine_used;
  Alcotest.(check (option (list int))) (label ^ ": refuted on")
    (Some expected) report.Realizability.refuted_on;
  certified label outcome.Pipeline.formulas report

(* The edit workload's conflict document: the live document's R1-R6
   and its two liveness sentences, R3 turned against R1.  The symbolic
   rung is inconclusive; the component {R1, R3}, which shares the
   pump, refutes over three propositions. *)
let test_edit_conflict_refuted () =
  let outcome =
    Pipeline.run
      [ "If the button is pressed, the pump is started.";
        "If the occlusion is present, the alarm is triggered.";
        "If the button is pressed, the pump is not started.";
        "If the signal is low, the monitor is enabled.";
        "If the button is pressed, the monitor is enabled.";
        "If the occlusion is present, the valve is opened.";
        "When the pump is started, eventually the cuff is inflated.";
        "When the valve is opened, eventually the cuff is inflated." ]
  in
  refuted "edit conflict" ~expected:[ 0; 2 ] outcome;
  let partition = outcome.Pipeline.partition.Partition.partition in
  match
    Bounded.solve ~inputs:partition.Partition.inputs
      ~outputs:partition.Partition.outputs outcome.Pipeline.formulas
  with
  | Bounded.Unrealizable _ -> ()
  | Bounded.Realizable _ | Bounded.Unknown _ ->
    Alcotest.fail "the whole conjunction is not unrealizable"

let table_texts group row_id =
  match
    List.find_opt
      (fun row -> row.Table1.group = group && row.Table1.row_id = row_id)
      Table1.rows
  with
  | Some { Table1.source = Table1.Sentences texts; _ } -> texts
  | Some _ | None -> Alcotest.fail ("no sentence row " ^ group ^ ":" ^ row_id)

(* TELE:4's 22 propositions exceed the letter budget, but its R14 and
   R15 refute over three. *)
let test_tele4_refuted () =
  refuted "TELE:4" ~expected:[ 13; 14 ] (Pipeline.run (table_texts "TELE" "4"))

let definite = function
  | Bounded.Realizable _ -> Some "consistent"
  | Bounded.Unrealizable _ -> Some "inconsistent"
  | Bounded.Unknown _ -> None

let spec_gen =
  QCheck2.Gen.map
    (fun seed ->
       Speccc_diffcheck.Gen.ltl_spec (Speccc_diffcheck.Prng.make seed))
    QCheck2.Gen.int

let print_spec (spec : Speccc_diffcheck.Case.ltl_spec) =
  Printf.sprintf "inputs [%s], outputs [%s]: %s"
    (String.concat " " spec.inputs) (String.concat " " spec.outputs)
    (String.concat " && " (List.map Ltl_print.to_string spec.formulas))

(* The pass never changes the explicit rung's answer where the whole
   game has one, and every part it refutes on is unrealizable over its
   own alphabet. *)
let prop_components_agree =
  QCheck2.Test.make ~count:300 ~print:print_spec
    ~name:"component refutation agrees with the whole game" spec_gen
    (fun (spec : Speccc_diffcheck.Case.ltl_spec) ->
       let inputs = spec.inputs and outputs = spec.outputs in
       let report =
         Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
           spec.formulas
       in
       let agrees =
         match definite (Bounded.solve ~inputs ~outputs spec.formulas) with
         | Some whole -> verdict_class report.Realizability.verdict = whole
         | None -> true
       in
       let part_unrealizable =
         match report.Realizability.refuted_on with
         | None -> true
         | Some indices ->
           let formulas = List.map (List.nth spec.formulas) indices in
           let props = List.concat_map Ltl.props formulas in
           let restrict = List.filter (fun p -> List.mem p props) in
           definite
             (Bounded.solve ~inputs:(restrict inputs)
                ~outputs:(restrict outputs) formulas)
           = Some "inconsistent"
       in
       agrees && part_unrealizable)

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
          Alcotest.test_case "a conflict found is kept" `Quick
            test_lint_step_keeps_its_conflict;
          Alcotest.test_case "no lint step under assumptions" `Quick
            test_no_lint_step_under_assumptions ] );
      ( "components",
        [ Alcotest.test_case "edit conflict refuted on {R1, R3}" `Quick
            test_edit_conflict_refuted;
          Alcotest.test_case "TELE:4 refuted on {R14, R15}" `Quick
            test_tele4_refuted;
          QCheck_alcotest.to_alcotest prop_components_agree ] );
    ]
