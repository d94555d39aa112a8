(* Golden tests for the full translation pipeline (parser → semantic
   reasoning → LTL templates) against the paper's appendix.

   The expected formulas are the appendix formulas *before* time
   abstraction (the appendix prints them after the Sec. IV-E rewriting;
   time abstraction is tested separately in test_timeabs).  Where the
   appendix is internally inconsistent we use the consistent form and
   say so:
   - Req-07: appendix writes "terminate_auto_control"; Req-08/54 use
     "terminate_auto_control_mode(l)"; we keep the subject intact.
   - Req-42: appendix writes "run_mode"; we keep
     "run_auto_control_mode" as in every other requirement. *)

open Speccc_logic
open Speccc_translate
open Speccc_reasoning

let config = Translate.default_config ()

let ltl = Alcotest.testable (Ltl_print.pp ~syntax:Ltl_print.Ascii) Ltl.equal

(* The CARA appendix corpus: (id, sentence, expected LTL in our ASCII
   syntax).  Translation happens over the whole list at once so that
   Algorithm 1 sees all antonym candidates. *)
let corpus = [
  ( "Req-01",
    "The CARA will be operational whenever the LSTAT is powered on.",
    "G (power_lstat -> F operational_cara)" );
  ( "Req-07",
    "If an occlusion is detected, and auto control mode is running, auto \
     control mode will be terminated.",
    "G (detect_occlusion && run_auto_control_mode -> F \
     terminate_auto_control_mode)" );
  ( "Req-08",
    "If Air Ok signal remains low, auto control mode is terminated in 3 \
     seconds.",
    "G (!air_ok_signal -> X X X terminate_auto_control_mode)" );
  ( "Req-13.1",
    "If arterial line and pulse wave are corroborated, and cuff is \
     available, next arterial line is selected.",
    "G (corroborate_arterial_line && corroborate_pulse_wave && cuff -> \
     select_arterial_line)" );
  ( "Req-13.2",
    "If pulse wave is corroborated, and cuff is available, and arterial \
     line is not corroborated, next pulse wave is selected.",
    "G (corroborate_pulse_wave && cuff && !corroborate_arterial_line -> \
     select_pulse_wave)" );
  ( "Req-13.3",
    "If arterial line is not corroborated, and pulse wave is not \
     corroborated, and cuff is available, then cuff is selected.",
    "G (!corroborate_arterial_line && !corroborate_pulse_wave && cuff -> \
     select_cuff)" );
  ( "Req-16",
    "If a pump is plugged in, and an infusate is ready, and the occlusion \
     line is clear, auto control mode can be started.",
    "G (plug_pump && ready_infusate && clear_occlusion_line -> \
     start_auto_control_mode)" );
  ( "Req-17.1",
    "When auto control mode is running, eventually the cuff will be \
     inflated.",
    "G (run_auto_control_mode -> F inflate_cuff)" );
  ( "Req-17.2",
    "If start auto control button is pressed, and cuff is not available, \
     an alarm is issued and override selection is provided.",
    "G (press_start_auto_control_button && !cuff -> issue_alarm && \
     provide_override_selection)" );
  ( "Req-17.3",
    "If alarm reset button is pressed, the alarm is disabled.",
    "G (press_alarm_reset_button -> !alarm)" );
  ( "Req-17.4",
    "If override selection is provided, if override yes is pressed, and \
     arterial line is not corroborated, next arterial line is selected.",
    "G (provide_override_selection -> (press_override_yes && \
     !corroborate_arterial_line -> select_arterial_line))" );
  ( "Req-17.5",
    "If override selection is provided, if override yes is pressed, and \
     arterial line is corroborated, and pulse wave is not corroborated, \
     next pulse wave is selected.",
    "G (provide_override_selection -> (press_override_yes && \
     corroborate_arterial_line && !corroborate_pulse_wave -> \
     select_pulse_wave))" );
  ( "Req-17.6",
    "If override selection is provided, if override no is pressed, next \
     manual mode is started.",
    "G (provide_override_selection -> (press_override_no -> \
     start_manual_mode))" );
  ( "Req-17.7",
    "If cuff and arterial line and pulse wave are not available, next \
     manual mode is started.",
    "G (!cuff && !arterial_line && !pulse_wave -> start_manual_mode)" );
  ( "Req-20",
    "If manual mode is running and start auto control button is pressed, \
     next corroboration is triggered.",
    "G (run_manual_mode && press_start_auto_control_button -> \
     trigger_corroboration)" );
  ( "Req-32.1",
    "If pulse wave or arterial line is available, and cuff is selected, \
     corroboration is triggered.",
    "G ((pulse_wave || arterial_line) && select_cuff -> \
     trigger_corroboration)" );
  ( "Req-32.2",
    "If pulse wave is selected, and arterial line is available, \
     corroboration is triggered.",
    "G (select_pulse_wave && arterial_line -> trigger_corroboration)" );
  ( "Req-34",
    "When auto control mode is running, terminate auto control button \
     should be available.",
    "G (run_auto_control_mode -> terminate_auto_control_button)" );
  ( "Req-42",
    "When auto control mode is running, and the arterial line, or pulse \
     wave or cuff is lost, an alarm should sound in 60 seconds.",
    "G (run_auto_control_mode && (!arterial_line || !pulse_wave || !cuff) \
     -> "
    ^ String.concat " " (List.init 60 (fun _ -> "X"))
    ^ " sound_alarm)" );
  ( "Req-44",
    "If pulse wave and arterial line are unavailable, and cuff is \
     selected, and blood pressure is not valid, next manual mode is \
     started.",
    "G (!pulse_wave && !arterial_line && select_cuff && !blood_pressure -> \
     start_manual_mode)" );
  ( "Req-48.1",
    "Whenever termiante auto control button is selected, a confirmation \
     button is available.",
    "G (select_termiante_auto_control_button -> confirmation_button)" );
  ( "Req-48.2",
    "If a confirmation button is available, and confirmation yes is \
     pressed, manual mode is started.",
    "G (confirmation_button && press_confirmation_yes -> \
     start_manual_mode)" );
  ( "Req-48.3",
    "If a confirmation button is available, and confirmation no is \
     pressed, auto control mode is running.",
    "G (confirmation_button && press_confirmation_no -> \
     run_auto_control_mode)" );
  ( "Req-48.4",
    "If a confirmation button is available, and confirmation yes is \
     pressed, next confirmation yes is disabled.",
    "G (confirmation_button && press_confirmation_yes -> \
     !confirmation_yes)" );
  ( "Req-48.5",
    "If a confirmation button is available, and confirmation no is \
     pressed, next confirmation no is disabled.",
    "G (confirmation_button && press_confirmation_no -> !confirmation_no)" );
  ( "Req-48.6",
    "If a confirmation button is available, and terminating auto control \
     button is pressed, next terminating auto control button is disabled.",
    "G (confirmation_button && press_terminating_auto_control_button -> \
     !terminating_auto_control_button)" );
  ( "Req-49",
    "When a start auto control button is enabled, the start auto control \
     button is enabled until it is pressed.",
    "G (start_auto_control_button -> (!press_start_auto_control_button -> \
     (start_auto_control_button W press_start_auto_control_button)))" );
  ( "Req-54",
    "If auto control mode is running, and impedance reading is \
     unavailable, next auto control model is terminated.",
    "G (run_auto_control_mode && !impedance_reading -> \
     terminate_auto_control_model)" );
]

let translated =
  lazy (Translate.specification config (List.map (fun (_, t, _) -> t) corpus))

let test_requirement (id, _, expected) () =
  let result = Lazy.force translated in
  let requirement =
    List.nth result.Translate.requirements
      (let rec index i = function
         | [] -> Alcotest.fail "id not found"
         | (rid, _, _) :: rest -> if rid = id then i else index (i + 1) rest
       in
       index 0 corpus)
  in
  Alcotest.check ltl id (Ltl_parse.formula expected)
    requirement.Translate.formula

let test_req28_shape () =
  (* 180 consecutive X's is unwieldy as text; check structurally. *)
  let result = Lazy.force translated in
  let formula =
    Translate.formula_of_sentence config
      "If a valid blood pressure is unavailable in 180 seconds, manual \
       mode should be triggered."
  in
  ignore result;
  Alcotest.(check (list int)) "one X-chain of 180" [ 180 ]
    (Ltl.next_chains formula);
  Alcotest.(check (list string)) "propositions"
    [ "blood_pressure"; "trigger_manual_mode" ]
    (Ltl.props formula)

let test_semantic_reasoning_example () =
  (* The Sec. IV-D example: Req-32 and Req-44 share the subject
     pulse_wave with dependents available/unavailable; the pair must be
     discovered (blue) and reduce to one proposition. *)
  let texts = [
    "If pulse wave or arterial line is available, and cuff is selected, \
     corroboration is triggered.";
    "If pulse wave and arterial line are unavailable, and cuff is \
     selected, and blood pressure is not valid, next manual mode is \
     started.";
  ]
  in
  let result = Translate.specification config texts in
  let analysis =
    List.find
      (fun a -> a.Semantic.subject = "pulse_wave")
      result.Translate.analyses
  in
  let coloring word =
    (List.find (fun c -> c.Semantic.word = word) analysis.Semantic.words)
      .Semantic.color
  in
  Alcotest.(check bool) "available is blue" true
    (coloring "available" = Semantic.Blue);
  Alcotest.(check bool) "unavailable is blue" true
    (coloring "unavailable" = Semantic.Blue);
  (* both requirements use the same proposition *)
  let props =
    List.concat_map
      (fun r -> Ltl.props r.Translate.formula)
      result.Translate.requirements
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "single pulse_wave proposition" true
    (List.mem "pulse_wave" props
     && not (List.exists (fun p -> p = "available_pulse_wave"
                                   || p = "unavailable_pulse_wave") props))

let test_reduction_count () =
  let texts = [
    "If pulse wave or arterial line is available, and cuff is selected, \
     corroboration is triggered.";
    "If pulse wave and arterial line are unavailable, and cuff is \
     selected, and blood pressure is not valid, next manual mode is \
     started.";
  ]
  in
  let result = Translate.specification config texts in
  let without, with_reasoning =
    Semantic.reduction_count result.Translate.relations
  in
  Alcotest.(check bool) "reasoning reduces propositions" true
    (with_reasoning < without)

let test_next_as_x_option () =
  let config_x = { Translate.next_as_x = true } in
  let formula =
    Translate.formula_of_sentence config_x
      "If cuff is selected, next manual mode is started."
  in
  Alcotest.check ltl "next becomes X"
    (Ltl_parse.formula "G (select_cuff -> X start_manual_mode)")
    formula

let test_never_adverb () =
  Alcotest.check ltl "never before the verb"
    (Ltl_parse.formula "G (!sound_alarm)")
    (Translate.formula_of_sentence config "The alarm never sounds.");
  Alcotest.check ltl "never after the copula"
    (Ltl_parse.formula "G (!trigger_alarm)")
    (Translate.formula_of_sentence config "The alarm is never triggered.");
  (* "no" keeps belonging to button names *)
  Alcotest.check ltl "confirmation no unaffected"
    (Ltl_parse.formula "G (press_confirmation_no -> start_manual_mode)")
    (Translate.formula_of_sentence config
       "If confirmation no is pressed, manual mode is started.")

let test_always_modifier () =
  let formula =
    Translate.formula_of_sentence config "The system is always operational."
  in
  Alcotest.check ltl "always"
    (Ltl_parse.formula "G (G operational_system)")
    formula

let () =
  let corpus_cases =
    List.map
      (fun ((id, _, _) as case) ->
         Alcotest.test_case id `Quick (test_requirement case))
      corpus
  in
  Alcotest.run "translate"
    [
      ("appendix corpus", corpus_cases);
      ( "extras",
        [
          Alcotest.test_case "req-28 shape" `Quick test_req28_shape;
          Alcotest.test_case "semantic reasoning (IV-D)" `Quick
            test_semantic_reasoning_example;
          Alcotest.test_case "reduction count" `Quick test_reduction_count;
          Alcotest.test_case "next_as_x option" `Quick test_next_as_x_option;
          Alcotest.test_case "always modifier" `Quick test_always_modifier;
          Alcotest.test_case "never adverb" `Quick test_never_adverb;
        ] );
    ]
