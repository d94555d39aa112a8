(* Tests for the pipeline, localization and refinement (Fig. 1 loop,
   Sec. V-B). *)

open Speccc_logic
open Speccc_core
open Speccc_synthesis
open Speccc_partition

let parse = Ltl_parse.formula

let explicit_options =
  { (Pipeline.default_options ()) with
    Pipeline.engine = Realizability.Explicit }

let symbolic_options =
  { (Pipeline.default_options ()) with
    Pipeline.engine = Realizability.Symbolic }

let is_consistent report =
  report.Realizability.verdict = Realizability.Consistent

(* --- pipeline --- *)

let test_pipeline_consistent_spec () =
  let outcome =
    Pipeline.run ~options:explicit_options
      [
        "If the pump is available, the alarm is disabled.";
        "If the pump is lost, the alarm is enabled.";
      ]
  in
  Alcotest.(check bool) "consistent" true
    (is_consistent outcome.Pipeline.report);
  Alcotest.(check int) "two formulas" 2
    (List.length outcome.Pipeline.formulas);
  Alcotest.(check (list string)) "pump is the input" [ "pump" ]
    outcome.Pipeline.partition.Partition.partition.Partition.inputs

(* The symbolic rung builds its controller only for a caller that
   reads it: a default check carries none, a certified one carries a
   controller that replays against the spec. *)
let test_pipeline_witness_on_demand () =
  let document = Document.of_file "../examples/specs/pump_control.spec" in
  let plain = Pipeline.run_document document in
  Alcotest.(check string) "symbolic rung answered" "symbolic"
    plain.Pipeline.report.Realizability.engine_used;
  Alcotest.(check bool) "consistent" true (is_consistent plain.Pipeline.report);
  Alcotest.(check bool) "no controller without a witness reader" true
    (plain.Pipeline.report.Realizability.controller = None);
  let certified =
    Pipeline.run_document
      ~options:{ (Pipeline.default_options ()) with Pipeline.certify = true }
      document
  in
  Alcotest.(check bool) "certified check carries a controller" true
    (certified.Pipeline.report.Realizability.controller <> None);
  match certified.Pipeline.certificate with
  | Some (Speccc_certify.Certify.Certified _) -> ()
  | Some outcome ->
    Alcotest.fail
      (Format.asprintf "not certified: %a" Speccc_certify.Certify.pp_outcome
         outcome)
  | None -> Alcotest.fail "certificate missing"

let test_pipeline_applies_time_abstraction () =
  let outcome =
    Pipeline.run ~options:symbolic_options
      [
        "If the pump is lost, the alarm is triggered in 4 seconds.";
        "If the cuff is lost, the alarm is triggered in 8 seconds.";
      ]
  in
  (match outcome.Pipeline.time_solution with
   | None -> Alcotest.fail "expected a time abstraction"
   | Some solution ->
     Alcotest.(check bool) "chains compressed" true
       (solution.Speccc_timeabs.Timeabs.x_total < 12));
  Alcotest.(check bool) "still consistent" true
    (is_consistent outcome.Pipeline.report)

let test_pipeline_detects_inconsistency () =
  let outcome =
    Pipeline.run ~options:explicit_options
      [
        "If the pump is lost, the alarm is triggered.";
        "If the pump is lost, the alarm is not triggered.";
      ]
  in
  Alcotest.(check bool) "inconsistent" false
    (is_consistent outcome.Pipeline.report)

(* --- localization --- *)

(* A specification where requirement 0 and requirement 3 conflict
   (non-neighbouring, as in Sec. V-B): both fire on the same input but
   demand opposite outputs. *)
let conflicting_formulas = [
  parse "G (i1 -> o1)";          (* 0: conflicts with 3 *)
  parse "G (i2 -> o2)";          (* 1: independent *)
  parse "G (i3 -> X o3)";        (* 2: independent *)
  parse "G (i1 -> !o1)";         (* 3: the culprit *)
  parse "G (i2 -> X o2)";        (* 4: independent *)
]

let explicit_check formulas =
  let _, report =
    Pipeline.check_formulas ~options:explicit_options formulas
  in
  is_consistent report

let test_localize_finds_culprit () =
  match Localize.run ~check:explicit_check conflicting_formulas with
  | None -> Alcotest.fail "spec is inconsistent; localization must fire"
  | Some result ->
    Alcotest.(check int) "culprit is requirement 3" 3
      result.Localize.culprit;
    Alcotest.(check (list int)) "prefix 0..2" [ 0; 1; 2 ]
      result.Localize.consistent_prefix;
    Alcotest.(check (list int)) "only requirement 0 is relevant" [ 0 ]
      result.Localize.relevant;
    Alcotest.(check (list int)) "minimal partner is requirement 0" [ 0 ]
      result.Localize.partners

let test_localize_consistent_spec () =
  Alcotest.(check bool) "no localization on consistent spec" true
    (Localize.run ~check:explicit_check [ parse "G (i -> o)" ] = None)

let test_localize_self_inconsistent () =
  (* F i is unrealizable on its own (i is an input). *)
  let formulas = [ parse "G (i -> o)"; parse "F i" ] in
  match Localize.run ~check:explicit_check formulas with
  | None -> Alcotest.fail "must localize"
  | Some result ->
    Alcotest.(check int) "culprit 1" 1 result.Localize.culprit;
    Alcotest.(check (list int)) "no partners needed" []
      result.Localize.partners

let counting_check calls formulas =
  incr calls;
  explicit_check formulas

let test_localize_memo_reuses_verdicts () =
  let calls = ref 0 in
  let check = counting_check calls in
  let memo = Localize.memo () in
  let first = Localize.run ~memo ~check conflicting_formulas in
  let cold_calls = !calls in
  Alcotest.(check bool) "localized" true (first <> None);
  Alcotest.(check bool) "cold run invokes the engine" true (cold_calls > 0);
  Alcotest.(check bool) "memo holds the decided subsets" true
    (Localize.memo_length memo > 0);
  let second = Localize.run ~memo ~check conflicting_formulas in
  Alcotest.(check bool) "same localization" true (first = second);
  Alcotest.(check int) "memoized run re-checks nothing" cold_calls !calls

let test_localize_no_cross_run_pollution () =
  (* Without an explicit memo, verdicts never leak between runs — the
     second run pays full price.  (The removed shared LRU salted its
     keys with a per-run nonce, so its entries were dead weight that
     could never hit; cross-run reuse is now the opt-in [memo].) *)
  let calls = ref 0 in
  let check = counting_check calls in
  ignore (Localize.run ~check conflicting_formulas);
  let cold_calls = !calls in
  ignore (Localize.run ~check conflicting_formulas);
  Alcotest.(check int) "second memo-less run re-checks everything"
    (2 * cold_calls) !calls;
  Alcotest.(check bool) "no shared localize LRU is registered" true
    (not
       (List.exists
          (fun s -> s.Speccc_cache.Cache.name = "localize.verdict")
          (Speccc_cache.Cache.stats ())))

let test_localize_memo_prune () =
  let memo = Localize.memo () in
  ignore (Localize.run ~memo ~check:explicit_check conflicting_formulas);
  let full = Localize.memo_length memo in
  let keep =
    List.filteri (fun i _ -> i <> 3) conflicting_formulas
    |> List.map Ltl.id
  in
  let dropped =
    Localize.prune_memo memo ~retain:(fun id -> List.mem id keep)
  in
  Alcotest.(check bool) "entries mentioning the pruned id drop" true
    (dropped > 0);
  Alcotest.(check int) "survivors + dropped = all" full
    (Localize.memo_length memo + dropped);
  (* a fresh prune with the same retained set is a no-op *)
  Alcotest.(check int) "prune is idempotent" 0
    (Localize.prune_memo memo ~retain:(fun id -> List.mem id keep))

(* Requirements 0 and 1 are the same formula, so subsets that differ
   only in which copy they hold share one table entry.  The check is
   extensional, so the localization is the same with a fresh table, a
   caller's memo, and that memo warm. *)
let test_localize_duplicate_requirements () =
  let formulas =
    [ parse "G (i1 -> o1)";
      parse "G (i1 -> o1)";
      parse "G (i2 -> o2)";
      parse "G (i1 -> !o1)" ]
  in
  let without = Localize.run ~check:explicit_check formulas in
  (match without with
   | None -> Alcotest.fail "must localize"
   | Some result ->
     Alcotest.(check int) "culprit is requirement 3" 3
       result.Localize.culprit);
  let memo = Localize.memo () in
  Alcotest.(check bool) "same with a memo" true
    (Localize.run ~memo ~check:explicit_check formulas = without);
  Alcotest.(check bool) "same with the memo warm" true
    (Localize.run ~memo ~check:explicit_check formulas = without)

(* --- refinement --- *)

let test_refine_partition_fix () =
  (* The TELEPROMISE trap shape: lock is misclassified as input. *)
  let formulas = [
    parse "G (lock -> !grant)";
    parse "G (request -> grant)";
  ]
  in
  let analysis = Partition.of_requirements formulas in
  let partition = analysis.Partition.partition in
  Alcotest.(check (list string)) "heuristic calls lock an input"
    [ "lock"; "request" ] partition.Partition.inputs;
  let check_partition p =
    let _, report =
      Pipeline.check_formulas ~options:explicit_options ~partition:p formulas
    in
    is_consistent report
  in
  Alcotest.(check bool) "inconsistent as classified" false
    (check_partition partition);
  (match
     Refine.adjust_partition ~check:check_partition ~partition
       ~focus:[ "lock"; "grant"; "request" ]
   with
   | None -> Alcotest.fail "a partition fix exists"
   | Some adjustment ->
     Alcotest.(check (list string)) "lock moved to outputs" [ "lock" ]
       adjustment.Refine.moved_to_output;
     Alcotest.(check bool) "fixed partition is consistent" true
       (check_partition adjustment.Refine.partition))

let test_refine_suggest_end_to_end () =
  let formulas = [
    parse "G (lock -> !grant)";
    parse "G (request -> grant)";
  ]
  in
  let analysis = Partition.of_requirements formulas in
  let check_partition p =
    let _, report =
      Pipeline.check_formulas ~options:explicit_options ~partition:p formulas
    in
    is_consistent report
  in
  let suggestion =
    Refine.suggest ~check_subset:explicit_check ~check_partition
      ~partition:analysis.Partition.partition formulas
  in
  Alcotest.(check bool) "adjustment found" true
    (suggestion.Refine.adjustment <> None);
  Alcotest.(check bool) "localization reported" true
    (suggestion.Refine.localization <> None)

let test_refine_unfixable () =
  (* G o && G !o: contradictory whoever owns o; no partition helps.
     (Note that for G(i -> o) && G(i -> !o) a partition "fix" does
     exist — demote i to an output — which is why a starker example is
     needed here.) *)
  let formulas = [ parse "G o"; parse "G (!o)" ] in
  let analysis = Partition.of_requirements formulas in
  let check_partition p =
    let _, report =
      Pipeline.check_formulas ~options:explicit_options ~partition:p formulas
    in
    is_consistent report
  in
  let suggestion =
    Refine.suggest ~check_subset:explicit_check ~check_partition
      ~partition:analysis.Partition.partition formulas
  in
  Alcotest.(check bool) "no adjustment" true
    (suggestion.Refine.adjustment = None);
  Alcotest.(check bool) "advice mentions modification" true
    (String.length suggestion.Refine.advice > 0)

(* --- stage 3 from a checked outcome --- *)

let refine_document text =
  let outcome =
    Pipeline.run_document ~options:explicit_options (Document.parse text)
  in
  (outcome, Refine.run explicit_options outcome)

let located (suggestion : Refine.suggestion) =
  match suggestion.Refine.localization with
  | None -> Alcotest.fail "expected a localization"
  | Some l -> (l.Localize.culprit, l.Localize.partners)

let test_refine_run_keeps_the_partition () =
  (* Checked alone under a partition of its own, R2 would have the
     pump as its forced input and refute itself; under the document's
     partition the pump is an output, so R2 needs R1 as its partner. *)
  let _, suggestion =
    refine_document
      "R1: If the button is pressed, the pump is started.
       R2: The pump is not started.
"
  in
  Alcotest.(check (pair int (list int))) "culprit 1 with partner 0"
    (1, [ 0 ]) (located suggestion)

let test_refine_run_consistent_under_assumptions () =
  (* Contradictory assumptions make the document vacuously realizable:
     stage 3 takes the pipeline's verdict and has nothing to do. *)
  let outcome, suggestion =
    refine_document
      "Assume-1: The button is pressed.
       Assume-2: The button is not pressed.
       R1: The pump is started.
       R2: The pump is not started.
"
  in
  Alcotest.(check bool) "consistent" true
    (is_consistent outcome.Pipeline.report);
  Alcotest.(check bool) "no localization" true
    (suggestion.Refine.localization = None)

let test_refine_run_never_blames_an_assumption () =
  let outcome, suggestion =
    refine_document
      "R1: If the pump is lost, the alarm is triggered.
       Assume-1: The pump is lost.
       R2: If the pump is lost, the alarm is not triggered.
"
  in
  Alcotest.(check bool) "inconsistent" true
    (outcome.Pipeline.report.Realizability.verdict
     = Realizability.Inconsistent);
  let culprit, partners = located suggestion in
  Alcotest.(check (pair int (list int))) "document positions" (2, [ 0 ])
    (culprit, partners);
  List.iter
    (fun i ->
       Alcotest.(check bool) "not an assumption" false
         (Document.is_assumption (List.nth outcome.Pipeline.document i)))
    (culprit :: partners)

(* --- environment assumptions --- *)

let test_assumptions_rescue_realizability () =
  (* Without the assumption the environment raises lock and request
     together and forces grant && !grant; under the assumption they are
     mutually exclusive and the spec becomes realizable. *)
  let document =
    Document.parse
      "Assume-1: The lock is inactive or the request is lost.\n\
       R1: If the lock is active, the grant is disabled.\n\
       R2: If the request is available, the grant is enabled.\n"
  in
  let without =
    Pipeline.run ~options:explicit_options
      (Document.texts (snd (Document.split document)))
  in
  Alcotest.(check bool) "unrealizable without assumption" false
    (is_consistent without.Pipeline.report);
  let with_assumption =
    Pipeline.run_document ~options:explicit_options document
  in
  Alcotest.(check bool) "realizable under the assumption" true
    (is_consistent with_assumption.Pipeline.report)

let test_assumption_detection () =
  let document =
    Document.parse
      "ASSUME_A: The pump is available.\nR1: The alarm is disabled.\n"
  in
  let assumptions, guarantees = Document.split document in
  Alcotest.(check int) "one assumption" 1 (List.length assumptions);
  Alcotest.(check int) "one guarantee" 1 (List.length guarantees)

(* --- the bus arbiter case study --- *)

let test_arbiter () =
  let inst = Speccc_casestudies.Arbiter.instance ~masters:2 in
  let document =
    List.mapi
      (fun line (id, text) -> { Document.id; text; line = line + 1 })
      inst.Speccc_casestudies.Arbiter.document
  in
  let outcome = Pipeline.run_document ~options:explicit_options document in
  Alcotest.(check bool) "realizable under sticky-request assumptions" true
    (is_consistent outcome.Pipeline.report);
  Alcotest.(check (list string)) "derived inputs"
    (Speccc_casestudies.Arbiter.expected_inputs inst)
    outcome.Pipeline.partition.Partition.partition.Partition.inputs;
  Alcotest.(check (list string)) "derived outputs"
    (Speccc_casestudies.Arbiter.expected_outputs inst)
    outcome.Pipeline.partition.Partition.partition.Partition.outputs;
  (* the controller satisfies the assume-guarantee implication exactly *)
  (match outcome.Pipeline.report.Realizability.controller with
   | Some machine ->
     let tagged = List.combine document outcome.Pipeline.formulas in
     let formula_of p =
       List.filter_map
         (fun (item, f) -> if p item then Some f else None)
         tagged
     in
     let spec =
       Ltl.implies
         (Ltl.conj_list (formula_of Document.is_assumption))
         (Ltl.conj_list
            (formula_of (fun item -> not (Document.is_assumption item))))
     in
     Alcotest.(check bool) "controller verifies A -> G" true
       (Speccc_synthesis.Verify.check machine spec
        = Speccc_synthesis.Verify.Holds)
   | None -> Alcotest.fail "controller expected");
  (* without the assumptions the one-shot double request is fatal *)
  let guarantees_only =
    Document.texts (snd (Document.split document))
  in
  let bare = Pipeline.run ~options:explicit_options guarantees_only in
  Alcotest.(check bool) "unrealizable without the assumptions" false
    (is_consistent bare.Pipeline.report)

(* --- determinism --- *)

let test_pipeline_deterministic () =
  (* Two runs over the same input must agree on everything observable:
     formulas, partition, verdict (guards against hash-order leaks). *)
  let texts = Speccc_casestudies.Cara.working_mode_texts in
  let run () = Pipeline.run ~options:symbolic_options texts in
  let a = run () and b = run () in
  Alcotest.(check bool) "formulas equal" true
    (List.for_all2 Ltl.equal a.Pipeline.formulas b.Pipeline.formulas);
  Alcotest.(check (list string)) "inputs equal"
    a.Pipeline.partition.Partition.partition.Partition.inputs
    b.Pipeline.partition.Partition.partition.Partition.inputs;
  Alcotest.(check (list string)) "outputs equal"
    a.Pipeline.partition.Partition.partition.Partition.outputs
    b.Pipeline.partition.Partition.partition.Partition.outputs;
  Alcotest.(check bool) "verdicts equal" true
    (a.Pipeline.report.Realizability.verdict
     = b.Pipeline.report.Realizability.verdict)

(* --- requirement documents --- *)

let test_document_parse () =
  let text =
    "# CARA extract\n\
     Req-08: If Air Ok signal remains low, auto control mode stops.\n\
     \n\
     If the pump is lost, the alarm is triggered.\n\
     REQ_17.1: When auto control mode is running, the cuff is inflated.\n"
  in
  let document = Document.parse text in
  Alcotest.(check int) "three items" 3 (List.length document);
  Alcotest.(check string) "explicit id" "Req-08" (Document.id_at document 0);
  Alcotest.(check string) "positional id" "R2" (Document.id_at document 1);
  Alcotest.(check string) "underscore id" "REQ_17.1"
    (Document.id_at document 2);
  Alcotest.(check string) "text stripped of id"
    "If Air Ok signal remains low, auto control mode stops."
    (List.nth (Document.texts document) 0);
  (* a sentence-like line with a long colon-free prefix keeps its colon *)
  let odd = Document.parse "When a is on, the following holds: b is on.\n" in
  Alcotest.(check int) "one item" 1 (List.length odd);
  Alcotest.(check string) "no spurious id split" "R1" (Document.id_at odd 0)

let test_document_out_of_range () =
  let document = Document.of_texts [ "a is on." ] in
  Alcotest.(check string) "fallback id" "R5" (Document.id_at document 4)

(* --- case studies, small slices (full rows live in the bench) --- *)

let test_cara_working_modes_translate_and_check () =
  let outcome =
    Pipeline.run ~options:symbolic_options
      Speccc_casestudies.Cara.working_mode_texts
  in
  Alcotest.(check int) "29 requirements" 29
    (List.length outcome.Pipeline.formulas);
  Alcotest.(check bool) "consistent" true
    (is_consistent outcome.Pipeline.report);
  (* time abstraction found Θ = {180, 60, 3} and compressed it; with
     θ' ≥ 1 enforced (no timed obligation may collapse to an immediate
     one) the best divisor is the GCD, 3 *)
  (match outcome.Pipeline.time_solution with
   | Some solution ->
     Alcotest.(check int) "divisor 3" 3
       solution.Speccc_timeabs.Timeabs.divisor;
     Alcotest.(check bool) "no collapsed chain" true
       (List.for_all
          (fun r -> r.Speccc_timeabs.Timeabs.theta' >= 1)
          solution.Speccc_timeabs.Timeabs.rewrites);
     (* the pipeline's exact divisor search lands on the paper's
        bit-blasted optimum, rewrites included *)
     Alcotest.(check bool) "solution = solve_smt" true
       (solution
        = Speccc_timeabs.Timeabs.(
            solve_smt (problem ~budget:5 [ 180; 60; 3 ])))
   | None -> Alcotest.fail "expected time abstraction")

let test_cara_mode_description () =
  let outcome =
    Pipeline.run ~options:symbolic_options
      Speccc_casestudies.Cara.mode_description_texts
  in
  Alcotest.(check int) "12 requirements" 12
    (List.length outcome.Pipeline.formulas);
  Alcotest.(check bool) "Sec. III description is consistent" true
    (is_consistent outcome.Pipeline.report);
  (* the source-priority chain yields the three selection outputs *)
  let outputs =
    outcome.Pipeline.partition.Partition.partition.Partition.outputs
  in
  List.iter
    (fun prop ->
       Alcotest.(check bool) (prop ^ " is an output") true
         (List.mem prop outputs))
    [ "select_arterial_line"; "select_pulse_wave"; "select_cuff" ]

let test_robot_scenarios_consistent () =
  List.iter
    (fun (_, name, scenario) ->
       let partition =
         {
           Partition.inputs = scenario.Speccc_casestudies.Robot.inputs;
           outputs = scenario.Speccc_casestudies.Robot.outputs;
         }
       in
       let _, report =
         Pipeline.check_formulas ~options:symbolic_options ~partition
           scenario.Speccc_casestudies.Robot.formulas
       in
       Alcotest.(check bool) (name ^ " consistent") true
         (is_consistent report))
    Speccc_casestudies.Robot.table_rows

let prop_specgen_profiles =
  let open QCheck2.Gen in
  let gen =
    int_range 2 10 >>= fun lines ->
    int_range 1 (3 * lines) >>= fun inputs ->
    int_range 1 (2 * lines) >>= fun outputs ->
    return { Speccc_casestudies.Specgen.prefix = "g"; lines;
             inputs = min inputs (3 * lines); outputs }
  in
  QCheck2.Test.make ~count:40
    ~name:"generated specs parse, hit their profile, and are consistent"
    gen
    (fun profile ->
       let sentences = Speccc_casestudies.Specgen.sentences profile in
       List.length sentences = profile.Speccc_casestudies.Specgen.lines
       &&
       let outcome = Pipeline.run ~options:symbolic_options sentences in
       let partition = outcome.Pipeline.partition.Partition.partition in
       List.length partition.Partition.inputs
       = profile.Speccc_casestudies.Specgen.inputs
       && List.length partition.Partition.outputs
          = profile.Speccc_casestudies.Specgen.outputs
       && is_consistent outcome.Pipeline.report)

let test_specgen_profile_counts () =
  let profile =
    { Speccc_casestudies.Specgen.prefix = "t"; lines = 11; inputs = 9;
      outputs = 10 }
  in
  let sentences = Speccc_casestudies.Specgen.sentences profile in
  Alcotest.(check int) "line count" 11 (List.length sentences);
  let outcome = Pipeline.run ~options:symbolic_options sentences in
  let partition = outcome.Pipeline.partition.Partition.partition in
  Alcotest.(check int) "input count" 9
    (List.length partition.Partition.inputs);
  Alcotest.(check int) "output count" 10
    (List.length partition.Partition.outputs);
  Alcotest.(check bool) "generated specs are consistent" true
    (is_consistent outcome.Pipeline.report)

let () =
  Alcotest.run "core"
    [
      ( "pipeline",
        [
          Alcotest.test_case "consistent spec" `Quick
            test_pipeline_consistent_spec;
          Alcotest.test_case "time abstraction applied" `Quick
            test_pipeline_applies_time_abstraction;
          Alcotest.test_case "detects inconsistency" `Quick
            test_pipeline_detects_inconsistency;
          Alcotest.test_case "witness on demand" `Quick
            test_pipeline_witness_on_demand;
        ] );
      ( "localize",
        [
          Alcotest.test_case "finds non-neighbouring culprit" `Quick
            test_localize_finds_culprit;
          Alcotest.test_case "consistent spec" `Quick
            test_localize_consistent_spec;
          Alcotest.test_case "self-inconsistent requirement" `Quick
            test_localize_self_inconsistent;
          Alcotest.test_case "memo reuses verdicts across runs" `Quick
            test_localize_memo_reuses_verdicts;
          Alcotest.test_case "no cross-run pollution without memo" `Quick
            test_localize_no_cross_run_pollution;
          Alcotest.test_case "memo prune" `Quick test_localize_memo_prune;
          Alcotest.test_case "duplicate requirements" `Quick
            test_localize_duplicate_requirements;
        ] );
      ( "refine",
        [
          Alcotest.test_case "partition fix" `Quick test_refine_partition_fix;
          Alcotest.test_case "suggest end-to-end" `Quick
            test_refine_suggest_end_to_end;
          Alcotest.test_case "unfixable" `Quick test_refine_unfixable;
          Alcotest.test_case "run keeps the document's partition" `Quick
            test_refine_run_keeps_the_partition;
          Alcotest.test_case "run on a consistent document" `Quick
            test_refine_run_consistent_under_assumptions;
          Alcotest.test_case "run never blames an assumption" `Quick
            test_refine_run_never_blames_an_assumption;
        ] );
      ( "assumptions",
        [
          Alcotest.test_case "rescue realizability" `Quick
            test_assumptions_rescue_realizability;
          Alcotest.test_case "detection" `Quick test_assumption_detection;
          Alcotest.test_case "bus arbiter" `Slow test_arbiter;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pipeline runs agree" `Quick
            test_pipeline_deterministic;
        ] );
      ( "documents",
        [
          Alcotest.test_case "parse" `Quick test_document_parse;
          Alcotest.test_case "out of range" `Quick
            test_document_out_of_range;
        ] );
      ( "case studies",
        [
          Alcotest.test_case "CARA working modes" `Slow
            test_cara_working_modes_translate_and_check;
          Alcotest.test_case "CARA mode description (Sec. III)" `Quick
            test_cara_mode_description;
          Alcotest.test_case "robot scenarios" `Slow
            test_robot_scenarios_consistent;
          Alcotest.test_case "specgen counts" `Slow
            test_specgen_profile_counts;
          QCheck_alcotest.to_alcotest prop_specgen_profiles;
        ] );
    ]
