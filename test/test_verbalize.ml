(* Tests for LTL → English verbalization, anchored by the round-trip
   property: re-translating a verbalized fragment formula yields the
   formula back. *)

open Speccc_logic
open Speccc_translate

let config = Translate.default_config ()
let parse = Ltl_parse.formula

let check_sentence formula expected =
  match Verbalize.sentence (parse formula) with
  | Some text -> Alcotest.(check string) formula expected text
  | None -> Alcotest.fail (formula ^ " should verbalize")

let test_propositions () =
  Alcotest.(check string) "verb prop" "the start button is pressed"
    (Verbalize.proposition ~positive:true "press_start_button");
  Alcotest.(check string) "negated verb prop"
    "the start button is not pressed"
    (Verbalize.proposition ~positive:false "press_start_button");
  Alcotest.(check string) "bare status prop" "the pump is available"
    (Verbalize.proposition ~positive:true "pump");
  Alcotest.(check string) "negated status prop" "the pump is lost"
    (Verbalize.proposition ~positive:false "pump");
  Alcotest.(check string) "adjective prop" "the cara is operational"
    (Verbalize.proposition ~positive:true "operational_cara");
  Alcotest.(check string) "irregular participle"
    "the auto control mode is running"
    (Verbalize.proposition ~positive:true "run_auto_control_mode")

let test_sentences () =
  check_sentence "G (pump -> trigger_alarm)"
    "If the pump is available, the alarm is triggered.";
  check_sentence "G (pump -> F inflate_cuff)"
    "When the pump is available, eventually the cuff is inflated.";
  check_sentence "G (!pump -> X X trigger_alarm)"
    "If the pump is lost, the alarm is triggered in 2 seconds.";
  check_sentence "G (trigger_alarm)" "The alarm is triggered.";
  check_sentence "G ((pump || cuff) && press_start_button -> select_cuff)"
    "If the pump is available or the cuff is available and the start \
     button is pressed, the cuff is selected."

let test_out_of_fragment () =
  List.iter
    (fun text ->
       match Verbalize.sentence (parse text) with
       | None -> ()
       | Some s -> Alcotest.fail (text ^ " should not verbalize, got " ^ s))
    [ "a U b"; "F a"; "G (a -> (b -> c))"; "G (a <-> b)"; "G (F a -> b)" ]

let test_roundtrip_examples () =
  List.iter
    (fun text ->
       let formula = parse text in
       Alcotest.(check bool) (text ^ " roundtrips") true
         (Verbalize.roundtrips config formula))
    [
      "G (pump -> trigger_alarm)";
      "G (!pump -> !trigger_alarm)";
      "G (pump && cuff -> select_cuff)";
      "G (pump || cuff -> F start_manual_mode)";
      "G (press_start_button -> X X X start_pump)";
      "G (start_pump)";
      "G (run_auto_control_mode -> F inflate_cuff)";
    ]

(* Random fragment formulas over realistic proposition names. *)
let ap_gen =
  QCheck2.Gen.oneofl
    [ "pump"; "cuff"; "blood_pressure"; "press_start_button";
      "trigger_alarm"; "select_cuff"; "start_manual_mode";
      "inflate_cuff"; "operational_cara"; "run_auto_control_mode" ]

let literal_gen =
  let open QCheck2.Gen in
  map2
    (fun ap positive ->
       if positive then Ltl.prop ap else Ltl.neg (Ltl.prop ap))
    ap_gen bool

let clause_gen =
  let open QCheck2.Gen in
  let conj l = List.fold_left Ltl.conj Ltl.tt l in
  oneof
    [
      literal_gen;
      map conj (list_size (int_range 2 3) literal_gen);
      map2 Ltl.disj literal_gen literal_gen;
    ]

let fragment_formula_gen =
  let open QCheck2.Gen in
  let guarded =
    map2 (fun g r -> Ltl.always (Ltl.implies g r)) clause_gen
      (oneof
         [
           clause_gen;
           map Ltl.eventually clause_gen;
           map2 Ltl.next_n (int_range 1 3) literal_gen;
         ])
  in
  oneof [ guarded; map Ltl.always clause_gen ]

let prop_roundtrip =
  QCheck2.Test.make ~count:200
    ~print:Ltl_print.to_string
    ~name:"verbalized fragment formulas translate back to themselves"
    fragment_formula_gen
    (fun formula ->
       (* duplicate literals can collapse under the smart constructors;
          only insist on round-tripping when verbalization succeeds *)
       match Verbalize.sentence formula with
       | None -> true
       | Some _ -> Verbalize.roundtrips config formula)

let () =
  Alcotest.run "verbalize"
    [
      ( "rendering",
        [
          Alcotest.test_case "propositions" `Quick test_propositions;
          Alcotest.test_case "sentences" `Quick test_sentences;
          Alcotest.test_case "out of fragment" `Quick test_out_of_fragment;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "examples" `Quick test_roundtrip_examples;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
    ]
