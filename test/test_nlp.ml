(* Tests for the NLP substrate: tokenizer, morphology, the structured
   English parser (including the paper's Figure 2 tree for Req-17), and
   dependency extraction. *)

open Speccc_nlp


let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* --- tokenizer --- *)

let test_tokenizer_basics () =
  Alcotest.(check int) "word count" 7
    (List.length (Tokenizer.tokenize "When auto-control mode is entered, eventually"));
  (match Tokenizer.tokenize "A, b." with
   | [ Tokenizer.Word "a"; Tokenizer.Comma; Tokenizer.Word "b";
       Tokenizer.Period ] -> ()
   | _ -> Alcotest.fail "unexpected token stream");
  Alcotest.(check int) "sentences split" 3
    (List.length
       (Tokenizer.split_sentences "First one. Second one. Third one."))

let test_tokenizer_preserves_compounds () =
  match Tokenizer.tokenize "auto-control auto_control" with
  | [ Tokenizer.Word "auto-control"; Tokenizer.Word "auto_control" ] -> ()
  | _ -> Alcotest.fail "compound words must stay single tokens"

(* --- morphology --- *)

let check_lemma word expected_lemma =
  match Morphology.analyze_verb word with
  | Some (lemma, _) ->
    Alcotest.(check string) (word ^ " lemma") expected_lemma lemma
  | None -> Alcotest.fail (word ^ " should be recognized as a verb form")

let test_morphology_regular () =
  check_lemma "entered" "enter";
  check_lemma "terminated" "terminate";
  check_lemma "pressed" "press";
  check_lemma "inflated" "inflate";
  check_lemma "triggered" "trigger";
  check_lemma "issued" "issue";
  check_lemma "corroborated" "corroborate";
  check_lemma "detects" "detect";
  check_lemma "starts" "start";
  check_lemma "carries" "carry"

let test_morphology_irregular () =
  check_lemma "running" "run";
  check_lemma "lost" "lose";
  check_lemma "plugged" "plug";
  check_lemma "found" "find";
  check_lemma "sent" "send"

let test_morphology_non_verbs () =
  Alcotest.(check bool) "mode is not a verb" true
    (Morphology.analyze_verb "mode" = None);
  Alcotest.(check bool) "available is not a verb" true
    (Morphology.analyze_verb "available" = None)

(* --- parser: Figure 2 (Req-17) --- *)

let test_figure2_tree () =
  let s =
    Parser.sentence
      "When auto-control mode is entered, eventually the cuff will be \
       inflated."
  in
  (* one leading subclause with subordinator "when" *)
  (match s.Syntax.leading with
   | [ { Syntax.subordinator = "when"; body } ] ->
     (match body.Syntax.clauses with
      | [ clause ] ->
        Alcotest.(check (list (list string))) "subordinate subject"
          [ [ "auto-control"; "mode" ] ]
          clause.Syntax.subject.Syntax.nouns;
        Alcotest.(check string) "subordinate verb (tense removed)" "enter"
          clause.Syntax.predicate.Syntax.verb;
        Alcotest.(check bool) "passive" true
          clause.Syntax.predicate.Syntax.passive
      | _ -> Alcotest.fail "expected one subordinate clause")
   | _ -> Alcotest.fail "expected one leading subclause");
  (* main clause: modifier eventually, subject cuff, predicate inflate *)
  (match s.Syntax.main.Syntax.clauses with
   | [ clause ] ->
     Alcotest.(check (option string)) "modifier" (Some "eventually")
       clause.Syntax.modifier;
     Alcotest.(check (list (list string))) "main subject" [ [ "cuff" ] ]
       clause.Syntax.subject.Syntax.nouns;
     Alcotest.(check string) "main verb" "inflate"
       clause.Syntax.predicate.Syntax.verb;
     Alcotest.(check (option string)) "modality" (Some "will")
       clause.Syntax.predicate.Syntax.modality
   | _ -> Alcotest.fail "expected one main clause");
  Alcotest.(check int) "no trailing subclauses" 0
    (List.length s.Syntax.trailing)

let test_compound_subjects () =
  let s =
    Parser.sentence
      "If pulse wave and arterial line are unavailable, and cuff is \
       selected, and blood pressure is not valid, next manual mode is \
       started."
  in
  (match s.Syntax.leading with
   | [ { Syntax.subordinator = "if"; body } ] ->
     Alcotest.(check int) "three clauses in the condition" 3
       (List.length body.Syntax.clauses);
     (match body.Syntax.clauses with
      | first :: _ ->
        Alcotest.(check (list (list string))) "two substantives"
          [ [ "pulse"; "wave" ]; [ "arterial"; "line" ] ]
          first.Syntax.subject.Syntax.nouns;
        Alcotest.(check bool) "and-joined" true
          (first.Syntax.subject.Syntax.noun_conj = Syntax.And)
      | [] -> Alcotest.fail "empty clause group")
   | _ -> Alcotest.fail "expected one leading subclause");
  (match s.Syntax.main.Syntax.clauses with
   | [ clause ] ->
     Alcotest.(check (option string)) "next recorded as modifier"
       (Some "next") clause.Syntax.modifier;
     Alcotest.(check string) "verb start" "start"
       clause.Syntax.predicate.Syntax.verb
   | _ -> Alcotest.fail "expected one main clause")

let test_or_subjects () =
  let s =
    Parser.sentence
      "When auto control mode is running, and the arterial line, or pulse \
       wave or cuff is lost, an alarm should sound in 60 seconds."
  in
  (match s.Syntax.leading with
   | [ { Syntax.body; _ } ] ->
     (match body.Syntax.clauses with
      | [ _running; lost ] ->
        Alcotest.(check int) "three or-substantives" 3
          (List.length lost.Syntax.subject.Syntax.nouns);
        Alcotest.(check bool) "or-joined" true
          (lost.Syntax.subject.Syntax.noun_conj = Syntax.Or);
        Alcotest.(check (option string)) "complement lost" (Some "lost")
          lost.Syntax.predicate.Syntax.complement
      | _ -> Alcotest.fail "expected two clauses in condition")
   | _ -> Alcotest.fail "expected one leading subclause");
  (match s.Syntax.main.Syntax.clauses with
   | [ clause ] ->
     Alcotest.(check (option int)) "time bound" (Some 60)
       clause.Syntax.time_bound;
     Alcotest.(check string) "verb sound" "sound"
       clause.Syntax.predicate.Syntax.verb
   | _ -> Alcotest.fail "expected one main clause")

let test_trailing_until () =
  let s =
    Parser.sentence
      "When a start auto control button is enabled, the start auto control \
       button is enabled until it is pressed."
  in
  Alcotest.(check int) "one leading" 1 (List.length s.Syntax.leading);
  (match s.Syntax.trailing with
   | [ { Syntax.subordinator = "until"; body } ] ->
     (match body.Syntax.clauses with
      | [ clause ] ->
        Alcotest.(check (list (list string))) "pronoun subject"
          [ [ "it" ] ] clause.Syntax.subject.Syntax.nouns;
        Alcotest.(check string) "press" "press"
          clause.Syntax.predicate.Syntax.verb
      | _ -> Alcotest.fail "expected one clause")
   | _ -> Alcotest.fail "expected a trailing until subclause")

let test_trailing_condition_without_comma () =
  let s =
    Parser.sentence
      "The CARA will be operational whenever the LSTAT is powered on."
  in
  Alcotest.(check int) "no leading" 0 (List.length s.Syntax.leading);
  (match s.Syntax.trailing with
   | [ { Syntax.subordinator = "whenever"; body } ] ->
     (match body.Syntax.clauses with
      | [ clause ] ->
        Alcotest.(check string) "verb power (particle dropped)" "power"
          clause.Syntax.predicate.Syntax.verb
      | _ -> Alcotest.fail "expected one clause")
   | _ -> Alcotest.fail "expected trailing whenever subclause")

let test_shared_subject_across_conjunction () =
  let s =
    Parser.sentence
      "If the power supply is lost, the control goes to a backup battery \
       and triggers an alarm."
  in
  match s.Syntax.main.Syntax.clauses with
  | [ goes; triggers ] ->
    Alcotest.(check (list (list string))) "subject inherited"
      goes.Syntax.subject.Syntax.nouns triggers.Syntax.subject.Syntax.nouns;
    Alcotest.(check string) "second verb" "trigger"
      triggers.Syntax.predicate.Syntax.verb
  | _ -> Alcotest.fail "expected two main clauses"

let test_negation_and_modality () =
  let s =
    Parser.sentence "The cuff is not available."
  in
  (match s.Syntax.main.Syntax.clauses with
   | [ clause ] ->
     Alcotest.(check bool) "negated" true
       clause.Syntax.predicate.Syntax.negated;
     Alcotest.(check (option string)) "complement" (Some "available")
       clause.Syntax.predicate.Syntax.complement
   | _ -> Alcotest.fail "one clause expected");
  let s2 = Parser.sentence "The pump cannot be started." in
  (match s2.Syntax.main.Syntax.clauses with
   | [ clause ] ->
     Alcotest.(check bool) "cannot negates" true
       clause.Syntax.predicate.Syntax.negated;
     Alcotest.(check (option string)) "cannot carries can" (Some "can")
       clause.Syntax.predicate.Syntax.modality
   | _ -> Alcotest.fail "one clause expected")

let test_parse_errors () =
  (match Parser.sentence_opt "" with
   | None -> ()
   | Some _ -> Alcotest.fail "empty sentence must fail");
  (match Parser.sentence_opt "the the the" with
   | None -> ()
   | Some _ -> Alcotest.fail "no predicate must fail")

let test_full_corpus_parses () =
  (* Every appendix requirement must parse. *)
  let corpus = [
    "The CARA will be operational whenever the LSTAT is powered on.";
    "If an occlusion is detected, and auto control mode is running, auto \
     control mode will be terminated.";
    "If Air Ok signal remains low, auto control mode is terminated in 3 \
     seconds.";
    "If arterial line and pulse wave are corroborated, and cuff is \
     available, next arterial line is selected.";
    "If pulse wave is corroborated, and cuff is available, and arterial \
     line is not corroborated, next pulse wave is selected.";
    "If arterial line is not corroborated, and pulse wave is not \
     corroborated, and cuff is available, then cuff is selected.";
    "If a pump is plugged in, and an infusate is ready, and the occlusion \
     line is clear, auto control mode can be started.";
    "When auto control mode is running, eventually the cuff will be \
     inflated.";
    "If start auto control button is pressed, and cuff is not available, \
     an alarm is issued and override selection is provided.";
    "If alarm reset button is pressed, the alarm is disabled.";
    "If override selection is provided, if override yes is pressed, and \
     arterial line is not corroborated, next arterial line is selected.";
    "If override selection is provided, if override yes is pressed, and \
     arterial line is corroborated, and pulse wave is not corroborated, \
     next pulse wave is selected.";
    "If override selection is provided, if override no is pressed, next \
     manual mode is started.";
    "If cuff and arterial line and pulse wave are not available, next \
     manual mode is started.";
    "If manual mode is running and start auto control button is pressed, \
     next corroboration is triggered.";
    "If a valid blood pressure is unavailable in 180 seconds, manual mode \
     should be triggered.";
    "If pulse wave or arterial line is available, and cuff is selected, \
     corroboration is triggered.";
    "If pulse wave is selected, and arterial line is available, \
     corroboration is triggered.";
    "When auto control mode is running, terminate auto control button \
     should be available.";
    "When auto control mode is running, and the arterial line, or pulse \
     wave or cuff is lost, an alarm should sound in 60 seconds.";
    "If pulse wave and arterial line are unavailable, and cuff is \
     selected, and blood pressure is not valid, next manual mode is \
     started.";
    "Whenever termiante auto control button is selected, a confirmation \
     button is available.";
    "If a confirmation button is available, and confirmation yes is \
     pressed, manual mode is started.";
    "If a confirmation button is available, and confirmation no is \
     pressed, auto control mode is running.";
    "If a confirmation button is available, and confirmation yes is \
     pressed, next confirmation yes is disabled.";
    "If a confirmation button is available, and confirmation no is \
     pressed, next confirmation no is disabled.";
    "If a confirmation button is available, and terminating auto control \
     button is pressed, next terminating auto control button is disabled.";
    "When a start auto control button is enabled, the start auto control \
     button is enabled until it is pressed.";
    "If auto control mode is running, and impedance reading is \
     unavailable, next auto control model is terminated.";
  ]
  in
  List.iteri
    (fun i text ->
       match Parser.sentence_opt text with
       | Some _ -> ()
       | None ->
         Alcotest.fail (Printf.sprintf "corpus sentence %d failed: %s" i text))
    corpus

(* --- dependency extraction --- *)

let test_dependencies () =
  let sentences =
    List.map Parser.sentence
      [
        "If pulse wave or arterial line is available, and cuff is \
         selected, corroboration is triggered.";
        "If pulse wave and arterial line are unavailable, and cuff is \
         selected, and blood pressure is not valid, next manual mode is \
         started.";
      ]
  in
  let relations = Dependency.of_sentences sentences in
  let find subject =
    match List.find_opt (fun r -> r.Dependency.subject = subject) relations with
    | Some r -> r.Dependency.dependents
    | None -> Alcotest.fail ("no relation for " ^ subject)
  in
  Alcotest.(check (list string)) "pulse_wave deps"
    [ "available"; "unavailable" ]
    (find "pulse_wave");
  Alcotest.(check (list string)) "blood_pressure deps" [ "valid" ]
    (find "blood_pressure")

let test_syntax_pp () =
  let s =
    Parser.sentence
      "When auto-control mode is entered, eventually the cuff will be \
       inflated."
  in
  let rendering = Format.asprintf "%a" Syntax.pp_sentence s in
  List.iter
    (fun fragment ->
       if not (contains rendering fragment) then
         Alcotest.fail (Printf.sprintf "rendering misses %S" fragment))
    [ "subclause"; "when"; "eventually"; "cuff"; "inflate" ]

let () =
  Alcotest.run "nlp"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "basics" `Quick test_tokenizer_basics;
          Alcotest.test_case "compounds" `Quick
            test_tokenizer_preserves_compounds;
        ] );
      ( "morphology",
        [
          Alcotest.test_case "regular" `Quick test_morphology_regular;
          Alcotest.test_case "irregular" `Quick test_morphology_irregular;
          Alcotest.test_case "non-verbs" `Quick test_morphology_non_verbs;
        ] );
      ( "parser",
        [
          Alcotest.test_case "figure 2 tree" `Quick test_figure2_tree;
          Alcotest.test_case "compound subjects" `Quick
            test_compound_subjects;
          Alcotest.test_case "or subjects" `Quick test_or_subjects;
          Alcotest.test_case "trailing until" `Quick test_trailing_until;
          Alcotest.test_case "trailing condition" `Quick
            test_trailing_condition_without_comma;
          Alcotest.test_case "shared subject" `Quick
            test_shared_subject_across_conjunction;
          Alcotest.test_case "negation and modality" `Quick
            test_negation_and_modality;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "full corpus parses" `Quick
            test_full_corpus_parses;
        ] );
      ( "dependency",
        [ Alcotest.test_case "relations" `Quick test_dependencies ] );
      ( "pretty",
        [ Alcotest.test_case "sentence rendering" `Quick test_syntax_pp ] );
    ]
