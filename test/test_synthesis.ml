(* Tests for the synthesis engines.

   The load-bearing checks are end-to-end: whenever an engine reports
   Realizable, the extracted controller is replayed against the exact
   trace semantics on random environment behaviours; and the two
   engines must agree on the requirement fragment the paper's
   translator emits. *)

open Speccc_logic
open Speccc_synthesis

let parse = Ltl_parse.formula

let explicit ~inputs ~outputs text =
  Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
    [ parse text ]

let symbolic ~inputs ~outputs text =
  Realizability.check ~engine:Realizability.Symbolic ~witness:true ~inputs
    ~outputs [ parse text ]

let is_consistent report =
  match report.Realizability.verdict with
  | Realizability.Consistent -> true
  | Realizability.Inconsistent | Realizability.Inconclusive _ -> false

let is_inconsistent report =
  match report.Realizability.verdict with
  | Realizability.Inconsistent -> true
  | Realizability.Consistent | Realizability.Inconclusive _ -> false

let check_controller report spec =
  match report.Realizability.controller with
  | None -> Alcotest.fail "consistent verdict must carry a controller"
  | Some machine ->
    (* Monte-Carlo replay and the exact product check must both pass. *)
    Alcotest.(check bool) "controller satisfies the spec (sampled)" true
      (Mealy.satisfies machine spec ~trials:60 ~seed:42);
    (match Verify.check machine spec with
     | Verify.Holds -> ()
     | Verify.Counterexample word ->
       Alcotest.fail
         (Format.asprintf "controller violates the spec on %a" Trace.pp word))

(* --- explicit engine --- *)

let test_explicit_simple_response () =
  let report = explicit ~inputs:[ "i" ] ~outputs:[ "o" ] "G (i -> o)" in
  Alcotest.(check bool) "realizable" true (is_consistent report);
  check_controller report (parse "G (i -> o)")

let test_explicit_clairvoyance () =
  (* Footnote 1 of the paper: requires seeing three steps ahead. *)
  let report =
    explicit ~inputs:[ "inp" ] ~outputs:[ "out" ] "G (out <-> X X X inp)"
  in
  Alcotest.(check bool) "unrealizable" true (is_inconsistent report)

let test_explicit_eventually () =
  let report = explicit ~inputs:[ "i" ] ~outputs:[ "o" ] "G (i -> F o)" in
  Alcotest.(check bool) "realizable" true (is_consistent report);
  check_controller report (parse "G (i -> F o)")

let test_explicit_until_needs_input () =
  (* o U i obliges the environment to raise i eventually — the system
     cannot force that. *)
  let report = explicit ~inputs:[ "i" ] ~outputs:[ "o" ] "o U i" in
  Alcotest.(check bool) "unrealizable" true (is_inconsistent report)

let test_explicit_weak_until () =
  let report = explicit ~inputs:[ "i" ] ~outputs:[ "o" ] "o W i" in
  Alcotest.(check bool) "realizable" true (is_consistent report);
  check_controller report (parse "o W i")

let test_explicit_cannot_control_input () =
  let report = explicit ~inputs:[ "i" ] ~outputs:[ "o" ] "G i" in
  Alcotest.(check bool) "G input unrealizable" true (is_inconsistent report);
  let report2 = explicit ~inputs:[ "i" ] ~outputs:[ "o" ] "G o" in
  Alcotest.(check bool) "G output realizable" true (is_consistent report2)

let test_explicit_delayed_response () =
  let spec = "G (i -> X X o)" in
  let report = explicit ~inputs:[ "i" ] ~outputs:[ "o" ] spec in
  Alcotest.(check bool) "realizable" true (is_consistent report);
  check_controller report (parse spec)

let test_explicit_contradiction () =
  let report =
    Realizability.check ~engine:Realizability.Explicit ~inputs:[ "i" ]
      ~outputs:[ "o" ]
      [ parse "G (i -> o)"; parse "G (i -> !o)"; parse "F i" ]
  in
  (* F i alone is unrealizable for the system; combined with the
     contradictory responses the whole set is inconsistent. *)
  Alcotest.(check bool) "inconsistent" true (is_inconsistent report)

let test_explicit_conflicting_responses () =
  let report =
    Realizability.check ~engine:Realizability.Explicit ~inputs:[ "i" ]
      ~outputs:[ "o" ]
      [ parse "G (i -> o)"; parse "G (i -> !o)" ]
  in
  (* The conjunction is still realizable: respond correctly while i is
     low; if i never rises nothing is violated... but when i rises both
     o and !o are required, so the system loses.  Verify engine finds
     the environment's winning move. *)
  Alcotest.(check bool) "inconsistent" true (is_inconsistent report)

(* --- symbolic engine --- *)

let test_symbolic_simple () =
  let report = symbolic ~inputs:[ "i" ] ~outputs:[ "o" ] "G (i -> o)" in
  Alcotest.(check bool) "realizable" true (is_consistent report);
  check_controller report (parse "G (i -> o)")

let test_symbolic_safety_unrealizable () =
  let report = symbolic ~inputs:[ "i" ] ~outputs:[ "o" ] "G i" in
  Alcotest.(check bool) "inconsistent" true (is_inconsistent report)

let test_symbolic_bounded_liveness () =
  let report = symbolic ~inputs:[ "i" ] ~outputs:[ "o" ] "G (i -> F o)" in
  Alcotest.(check bool) "realizable via lookahead" true (is_consistent report);
  check_controller report (parse "G (i -> F o)")

let test_symbolic_xchain () =
  let spec = "G (i -> X X X o)" in
  let report = symbolic ~inputs:[ "i" ] ~outputs:[ "o" ] spec in
  Alcotest.(check bool) "realizable" true (is_consistent report);
  check_controller report (parse spec)

let test_symbolic_weak_until () =
  let report = symbolic ~inputs:[ "i" ] ~outputs:[ "o" ] "o W i" in
  Alcotest.(check bool) "realizable" true (is_consistent report);
  check_controller report (parse "o W i")

let test_symbolic_lookahead_escalation () =
  (* [F i] is unrealizable at every look-ahead, so the engine escalates
     6 -> 12 -> 24 before giving up; the reported bound witnesses that
     the escalation loop ran. *)
  let report =
    Realizability.check ~engine:Realizability.Symbolic ~lookahead:6
      ~inputs:[ "i" ] ~outputs:[ "o" ] [ parse "F i" ]
  in
  match report.Realizability.verdict with
  | Realizability.Inconclusive why ->
    Alcotest.(check bool) "escalated to 24" true
      (let rec contains i =
         i + 2 <= String.length why
         && (String.sub why i 2 = "24" || contains (i + 1))
       in
       contains 0)
  | Realizability.Consistent | Realizability.Inconsistent ->
    Alcotest.fail "F input cannot be realizable"

let test_symbolic_many_props () =
  (* Beyond the explicit engine's comfort: 8 inputs, 8 outputs. *)
  let inputs = List.init 8 (Printf.sprintf "i%d") in
  let outputs = List.init 8 (Printf.sprintf "o%d") in
  let requirements =
    List.map2 (fun i o -> Ltl.always (Ltl.implies (Ltl.prop i) (Ltl.prop o)))
      inputs outputs
  in
  let report =
    Realizability.check ~engine:Realizability.Symbolic ~inputs ~outputs
      requirements
  in
  Alcotest.(check bool) "16-prop spec realizable" true (is_consistent report)

let test_symbolic_robot_3x3_witness () =
  (* Three robots in three rooms, forced onto the symbolic engine with a
     witness.  The controllable predecessor must quantify every output
     and next-state variable: when one was skipped, this scenario
     converged on a region the strategy cannot stay in, and extraction
     failed a few steps in. *)
  let scenario = Speccc_casestudies.Robot.scenario ~robots:3 ~rooms:3 in
  let report =
    Realizability.check ~engine:Realizability.Symbolic ~witness:true
      ~inputs:scenario.Speccc_casestudies.Robot.inputs
      ~outputs:scenario.Speccc_casestudies.Robot.outputs
      scenario.Speccc_casestudies.Robot.formulas
  in
  Alcotest.(check bool) "realizable" true (is_consistent report);
  match report.Realizability.controller with
  | None -> Alcotest.fail "consistent verdict must carry a controller"
  | Some machine ->
    Alcotest.(check bool) "controller satisfies the spec (sampled)" true
      (Mealy.satisfies machine
         (Ltl.conj_list scenario.Speccc_casestudies.Robot.formulas)
         ~trials:20 ~seed:42)

(* Fixpoint pins: verdict, [Obligation.stats] and (for CARA:0) the
   nodes a check creates, on the documents whose fixpoint runs most
   rounds or holds most obligations.  How the controllable predecessor
   places and eliminates its buckets decides which intermediate nodes
   get built, never the winning region — a canonical BDD under an
   unchanged order — so rounds and winning nodes stay fixed while the
   node count records the work. *)
let pipeline_problem texts =
  let outcome = Speccc_core.Pipeline.run texts in
  let partition =
    outcome.Speccc_core.Pipeline.partition.Speccc_partition.Partition.partition
  in
  ( outcome.Speccc_core.Pipeline.formulas,
    partition.Speccc_partition.Partition.inputs,
    partition.Speccc_partition.Partition.outputs )

let robot_problem ~robots ~rooms =
  let scenario = Speccc_casestudies.Robot.scenario ~robots ~rooms in
  ( scenario.Speccc_casestudies.Robot.formulas,
    scenario.Speccc_casestudies.Robot.inputs,
    scenario.Speccc_casestudies.Robot.outputs )

let fixpoint_pins =
  let open Speccc_casestudies in
  [
    ( "CARA:0",
      (fun () -> pipeline_problem Cara.working_mode_texts),
      "obligations=125 winning_nodes=62 rounds=61",
      Some 50_000 );
    ( "CARA:3.2",
      (fun () ->
         pipeline_problem
           (Cara.component_sentences
              (List.find (fun c -> c.Cara.row = "3.2") Cara.components))),
      "obligations=91 winning_nodes=1 rounds=1",
      None );
    ( "robot:2x5",
      (fun () -> robot_problem ~robots:2 ~rooms:5),
      "obligations=51 winning_nodes=23 rounds=2",
      None );
    ( "robot:2x9",
      (fun () -> robot_problem ~robots:2 ~rooms:9),
      "obligations=71 winning_nodes=39 rounds=2",
      None );
  ]

let test_fixpoint_pins () =
  List.iter
    (fun (name, problem, stats, max_nodes) ->
       let formulas, inputs, outputs = problem () in
       let nodes () = (Speccc_bdd.Bdd.counters ()).Speccc_bdd.Bdd.nodes in
       let before = nodes () in
       let report = Realizability.check ~inputs ~outputs formulas in
       let created = nodes () - before in
       Alcotest.(check bool) (name ^ " consistent") true (is_consistent report);
       Alcotest.(check string) (name ^ " engine") "symbolic"
         report.Realizability.engine_used;
       Alcotest.(check string) (name ^ " fixpoint") (stats ^ " lookahead=6")
         report.Realizability.detail;
       match max_nodes with
       | Some bound ->
         if created >= bound then
           Alcotest.failf "%s created %d BDD nodes (bound %d)" name created
             bound
       | None -> ())
    fixpoint_pins

(* --- engine agreement on the translator fragment --- *)

let fragment_gen =
  let open QCheck2.Gen in
  let input_literal =
    map2 (fun n b -> if b then Ltl.prop n else Ltl.neg (Ltl.prop n))
      (oneofl [ "i1"; "i2" ]) bool
  in
  let output_literal =
    map2 (fun n b -> if b then Ltl.prop n else Ltl.neg (Ltl.prop n))
      (oneofl [ "o1"; "o2" ]) bool
  in
  let guard = list_size (int_range 1 2) input_literal >|= Ltl.conj_list in
  let response =
    let base = output_literal in
    oneof
      [
        base;
        map Ltl.next base;
        map (fun f -> Ltl.next (Ltl.next f)) base;
        map Ltl.eventually base;
        map2 Ltl.weak_until base input_literal;
      ]
  in
  let requirement =
    map2 (fun g r -> Ltl.always (Ltl.implies g r)) guard response
  in
  list_size (int_range 1 3) requirement

let verdict_of_report report =
  match report.Realizability.verdict with
  | Realizability.Consistent -> `Yes
  | Realizability.Inconsistent -> `No
  | Realizability.Inconclusive _ -> `Maybe

let prop_engines_agree_on_fragment =
  QCheck2.Test.make ~count:60
    ~name:"explicit and symbolic agree on the translator fragment"
    fragment_gen
    (fun requirements ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let explicit_report =
         Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
           requirements
       in
       let symbolic_report =
         Realizability.check ~engine:Realizability.Symbolic ~inputs ~outputs
           requirements
       in
       match
         (verdict_of_report explicit_report, verdict_of_report symbolic_report)
       with
       | `Yes, `Yes | `No, `No -> true
       | `Maybe, _ | _, `Maybe ->
         (* bound exhaustion is allowed, disagreement is not *)
         true
       | `Yes, `No | `No, `Yes -> false)

let prop_realizable_controllers_satisfy_spec =
  QCheck2.Test.make ~count:40
    ~name:"extracted controllers satisfy their specification"
    fragment_gen
    (fun requirements ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let spec = Ltl.conj_list requirements in
       let report =
         Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
           requirements
       in
       match (report.Realizability.verdict, report.Realizability.controller) with
       | Realizability.Consistent, Some machine ->
         Mealy.satisfies machine spec ~trials:40 ~seed:7
       | Realizability.Consistent, None -> false
       | (Realizability.Inconsistent | Realizability.Inconclusive _), _ ->
         true)

(* --- counterstrategies --- *)

let constant_machine ~inputs ~outputs omask = {
  Mealy.inputs;
  outputs;
  num_states = 1;
  initial = 0;
  step = (fun _ _ -> (omask, 0));
}

let test_counterstrategy_clairvoyance () =
  let spec = parse "G (out <-> X X X inp)" in
  let report =
    Realizability.check ~engine:Realizability.Explicit ~inputs:[ "inp" ]
      ~outputs:[ "out" ] [ spec ]
  in
  match report.Realizability.counterstrategy with
  | None -> Alcotest.fail "explicit inconsistency must carry a witness"
  | Some cs ->
    (* whatever the candidate does, the play violates the spec *)
    List.iter
      (fun omask ->
         let machine =
           constant_machine ~inputs:[ "inp" ] ~outputs:[ "out" ] omask
         in
         let word = Bounded.refute cs machine in
         Alcotest.(check bool)
           (Printf.sprintf "refutation vs constant-%d machine" omask)
           false (Trace.holds word spec))
      [ 0; 1 ];
    (* also against a copying machine *)
    let copying = {
      Mealy.inputs = [ "inp" ];
      outputs = [ "out" ];
      num_states = 1;
      initial = 0;
      step = (fun _ imask -> (imask, 0));
    }
    in
    let word = Bounded.refute cs copying in
    Alcotest.(check bool) "refutation vs copying machine" false
      (Trace.holds word spec)

let prop_counterstrategies_refute =
  QCheck2.Test.make ~count:40
    ~name:"counterstrategies refute arbitrary candidate machines"
    fragment_gen
    (fun requirements ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let spec = Ltl.conj_list requirements in
       let report =
         Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
           requirements
       in
       match report.Realizability.counterstrategy with
       | None -> true
       | Some cs ->
         List.for_all
           (fun omask ->
              let machine = constant_machine ~inputs ~outputs omask in
              not (Trace.holds (Bounded.refute cs machine) spec))
           [ 0; 1; 2; 3 ])

(* --- exact verification --- *)

let copy_machine = {
  Mealy.inputs = [ "i" ];
  outputs = [ "o" ];
  num_states = 1;
  initial = 0;
  step = (fun _ imask -> (imask, 0));
}

let test_verify_holds () =
  Alcotest.(check bool) "copy machine satisfies G(i <-> o)" true
    (Verify.check copy_machine (parse "G (i <-> o)") = Verify.Holds);
  Alcotest.(check bool) "and the response form" true
    (Verify.check copy_machine (parse "G (i -> o)") = Verify.Holds);
  Alcotest.(check bool) "and a liveness consequence" true
    (Verify.check copy_machine (parse "G (i -> F o)") = Verify.Holds)

let test_verify_counterexample () =
  match Verify.check copy_machine (parse "G (o <-> !i)") with
  | Verify.Holds -> Alcotest.fail "copy machine cannot invert"
  | Verify.Counterexample word ->
    (* the witness must really violate the formula *)
    Alcotest.(check bool) "counterexample violates the formula" false
      (Trace.holds word (parse "G (o <-> !i)"));
    (* and must be producible: outputs equal inputs on every letter *)
    Alcotest.(check bool) "counterexample is machine-consistent" true
      (List.for_all
         (fun pos ->
            let letter = Trace.letter_at word pos in
            List.assoc_opt "i" letter = List.assoc_opt "o" letter)
         (List.init (Trace.length word) Fun.id))

let test_verify_liveness_counterexample () =
  (* A machine that never raises o violates G(i -> F o). *)
  let silent = {
    Mealy.inputs = [ "i" ];
    outputs = [ "o" ];
    num_states = 1;
    initial = 0;
    step = (fun _ _ -> (0, 0));
  }
  in
  (match Verify.check silent (parse "G (i -> F o)") with
   | Verify.Holds -> Alcotest.fail "silent machine cannot respond"
   | Verify.Counterexample word ->
     Alcotest.(check bool) "witness violates" false
       (Trace.holds word (parse "G (i -> F o)")));
  Alcotest.(check bool) "but satisfies the safety part" true
    (Verify.check silent (parse "G (!o)") = Verify.Holds)

let test_verify_check_all () =
  let requirements = [ parse "G (i -> o)"; parse "G (o -> !i) " ] in
  let verdicts = Verify.check_all copy_machine requirements in
  (match List.assoc 0 verdicts with
   | Verify.Holds -> ()
   | Verify.Counterexample _ -> Alcotest.fail "req 0 holds");
  (match List.assoc 1 verdicts with
   | Verify.Holds -> Alcotest.fail "req 1 is violated"
   | Verify.Counterexample _ -> ())

let prop_verify_agrees_with_synthesis =
  QCheck2.Test.make ~count:30
    ~name:"synthesized controllers verify exactly against every requirement"
    fragment_gen
    (fun requirements ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let report =
         Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
           requirements
       in
       match (report.Realizability.verdict, report.Realizability.controller) with
       | Realizability.Consistent, Some machine ->
         List.for_all
           (fun (_, verdict) -> verdict = Verify.Holds)
           (Verify.check_all machine requirements)
       | _ -> true)

(* --- symbolic controllers verify exactly --- *)

let prop_symbolic_controllers_verify =
  QCheck2.Test.make ~count:30
    ~name:"symbolic-engine controllers pass exact verification"
    fragment_gen
    (fun requirements ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let report =
         Realizability.check ~engine:Realizability.Symbolic ~witness:true
           ~inputs ~outputs requirements
       in
       match (report.Realizability.verdict, report.Realizability.controller) with
       | Realizability.Consistent, Some machine ->
         (* The symbolic engine bounds liveness, so the controller
            satisfies the *bounded* strengthening — which implies the
            original requirement. *)
         List.for_all
           (fun f -> Verify.check machine f = Verify.Holds)
           requirements
       | Realizability.Consistent, None ->
         (* two inputs are well inside to_mealy's 20-input gate *)
         false
       | _ -> true)

(* --- witness on demand --- *)

(* [~witness] changes what a report carries, never what it claims.
   The one exception is documented: an [Auto] ladder asked for a
   witness continues past a symbolic refutation to the explicit rung
   for a counterstrategy, so there only the verdict must agree. *)
let prop_witness_flag_keeps_verdict =
  QCheck2.Test.make ~count:40
    ~name:"witness flag keeps verdict, engine, detail and degradation"
    fragment_gen
    (fun requirements ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let claims report =
         ( report.Realizability.verdict,
           report.Realizability.engine_used,
           report.Realizability.detail,
           List.map
             (fun rung -> { rung with Realizability.rung_wall = 0. })
             (Realizability.canonical_degradation report) )
       in
       List.for_all
         (fun engine ->
            let run witness =
              Realizability.check ~engine ~witness ~inputs ~outputs
                requirements
            in
            let plain = run false and witnessed = run true in
            let symbolic_refutation =
              plain.Realizability.verdict = Realizability.Inconsistent
              && plain.Realizability.engine_used = "symbolic"
            in
            let agree =
              if engine = Realizability.Auto && symbolic_refutation then
                plain.Realizability.verdict = witnessed.Realizability.verdict
              else claims plain = claims witnessed
            in
            let no_machine =
              plain.Realizability.engine_used <> "symbolic"
              || plain.Realizability.controller = None
            in
            agree && no_machine)
         [ Realizability.Auto; Realizability.Symbolic ])

(* --- test-case generation --- *)

let synthesize_machine requirements ~inputs ~outputs =
  let report =
    Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
      requirements
  in
  match report.Realizability.controller with
  | Some machine -> machine
  | None -> Alcotest.fail "expected a controller"

let test_testgen_full_coverage () =
  let machine =
    synthesize_machine ~inputs:[ "i" ] ~outputs:[ "o" ]
      [ parse "G (i -> X o)"; parse "G (!i -> X (!o))" ]
  in
  let suite = Testgen.transition_cover machine in
  let covered, total = Testgen.coverage machine suite in
  Alcotest.(check int) "transition cover is complete" total covered;
  Alcotest.(check bool) "suite non-empty" true (List.length suite > 0);
  let tour = Testgen.transition_tour machine in
  let covered_tour, total_tour = Testgen.coverage machine [ tour ] in
  (* the tour is complete only on strongly connected machines; it must
     still cover a prefix-closed region and never exceed the total *)
  Alcotest.(check bool) "tour covers a nonempty region" true
    (covered_tour > 0 && covered_tour <= total_tour);
  (* state cover reaches every state *)
  Alcotest.(check int) "one test per reachable state"
    machine.Mealy.num_states
    (List.length (Testgen.state_cover machine))

let test_testgen_reference_passes_mutant_fails () =
  let machine =
    synthesize_machine ~inputs:[ "i" ] ~outputs:[ "o" ]
      [ parse "G (i -> X o)"; parse "G (!i -> X (!o))" ]
  in
  let suite = Testgen.transition_cover machine in
  (* the reference implementation passes its own suite *)
  List.iter
    (fun test ->
       match Testgen.run_against machine test with
       | None -> ()
       | Some (step, _) ->
         Alcotest.fail (Printf.sprintf "reference diverged at step %d" step))
    suite;
  (* a mutant with one flipped output bit fails some test *)
  let mutant = {
    machine with
    Mealy.step =
      (fun state imask ->
         let omask, next = machine.Mealy.step state imask in
         if state = machine.Mealy.initial && imask = 1 then
           (omask lxor 1, next)
         else (omask, next));
  }
  in
  Alcotest.(check bool) "mutant detected" true
    (List.exists (fun test -> Testgen.run_against mutant test <> None) suite)

(* --- minimization --- *)

let test_minimize_shrinks_and_preserves () =
  let spec = [ parse "G (i -> X o)"; parse "G (!i -> X (!o))" ] in
  let machine =
    synthesize_machine ~inputs:[ "i" ] ~outputs:[ "o" ] spec
  in
  let minimized = Minimize.minimize machine in
  Alcotest.(check bool) "state count does not grow" true
    (minimized.Mealy.num_states <= machine.Mealy.num_states);
  Alcotest.(check bool) "behaviourally equivalent" true
    (Minimize.equivalent machine minimized);
  (* and the minimal machine still satisfies the specification *)
  Alcotest.(check bool) "still correct" true
    (Verify.check minimized (Ltl.conj_list spec) = Verify.Holds);
  (* minimizing twice is idempotent on the state count *)
  Alcotest.(check int) "idempotent"
    minimized.Mealy.num_states
    (Minimize.minimize minimized).Mealy.num_states

let test_minimize_merges_duplicates () =
  (* Two copies of the same one-state behaviour glued together. *)
  let machine = {
    Mealy.inputs = [ "i" ];
    outputs = [ "o" ];
    num_states = 4;
    initial = 0;
    step = (fun state imask -> (imask, (state + 1) mod 4));
  }
  in
  let minimized = Minimize.minimize machine in
  Alcotest.(check int) "collapses to one state" 1
    minimized.Mealy.num_states;
  Alcotest.(check bool) "equivalent" true
    (Minimize.equivalent machine minimized)

let test_minimize_keeps_distinctions () =
  (* A genuine two-state machine: output toggles with the state. *)
  let machine = {
    Mealy.inputs = [ "i" ];
    outputs = [ "o" ];
    num_states = 2;
    initial = 0;
    step = (fun state _ -> ((if state = 0 then 1 else 0), 1 - state));
  }
  in
  let minimized = Minimize.minimize machine in
  Alcotest.(check int) "stays two states" 2 minimized.Mealy.num_states

let prop_minimization_preserves_behaviour =
  QCheck2.Test.make ~count:30
    ~name:"minimized controllers are equivalent and still verify"
    fragment_gen
    (fun requirements ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let report =
         Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
           requirements
       in
       match report.Realizability.controller with
       | Some machine ->
         let minimized = Minimize.minimize machine in
         minimized.Mealy.num_states <= machine.Mealy.num_states
         && Minimize.equivalent machine minimized
       | None -> true)

(* --- code generation --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_codegen_sanitize () =
  Alcotest.(check string) "dash" "auto_control" (Codegen.sanitize "auto-control");
  Alcotest.(check string) "leading digit" "p_3x" (Codegen.sanitize "3x");
  Alcotest.(check string) "empty" "p" (Codegen.sanitize "");
  Alcotest.(check string) "clean" "press_button" (Codegen.sanitize "press_button")

let test_codegen_structured_text () =
  let machine =
    synthesize_machine ~inputs:[ "i" ] ~outputs:[ "o" ]
      [ parse "G (i -> X o)" ]
  in
  let st = Codegen.to_structured_text ~name:"demo" machine in
  List.iter
    (fun fragment ->
       Alcotest.(check bool) ("ST contains " ^ fragment) true
         (contains st fragment))
    [ "FUNCTION_BLOCK demo"; "VAR_INPUT"; "i : BOOL"; "VAR_OUTPUT";
      "o : BOOL"; "state : INT"; "CASE state OF"; "END_FUNCTION_BLOCK" ]

let test_codegen_verilog () =
  let machine =
    synthesize_machine ~inputs:[ "go" ] ~outputs:[ "done_" ]
      [ parse "G (go -> X done_)" ]
  in
  let v = Codegen.to_verilog ~name:"ctrl" machine in
  List.iter
    (fun fragment ->
       Alcotest.(check bool) ("Verilog contains " ^ fragment) true
         (contains v fragment))
    [ "module ctrl"; "input  wire clk"; "input  wire go";
      "output reg  done_"; "always @(posedge clk)"; "endmodule" ];
  (* every reachable transition appears in the next-state case *)
  Alcotest.(check bool) "case rows emitted" true
    (contains v "case ({state, {go}})")

(* --- structured text behaves like the machine (independent oracle) --- *)

let prop_st_program_matches_machine =
  QCheck2.Test.make ~count:25
    ~name:"generated Structured Text scans like the Mealy machine"
    QCheck2.Gen.(pair fragment_gen (list_size (int_range 1 12)
                                      (int_range 0 3)))
    (fun (requirements, input_masks) ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let report =
         Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
           requirements
       in
       match report.Realizability.controller with
       | None -> true
       | Some machine ->
         let st = Codegen.to_structured_text machine in
         let program = St_interpreter.parse st in
         let instance = St_interpreter.start program in
         let rec drive state = function
           | [] -> true
           | imask :: rest ->
             let assignment = Mealy.assignment_of_mask inputs imask in
             let omask, next = machine.Mealy.step state imask in
             (match St_interpreter.scan instance assignment with
              | None -> false
              | Some st_outputs ->
                let expected = Mealy.assignment_of_mask outputs omask in
                List.for_all
                  (fun (p, b) -> List.assoc p st_outputs = b)
                  expected
                && drive next rest)
         in
         drive machine.Mealy.initial input_masks)

(* --- mealy utilities --- *)

let test_mealy_masks () =
  let props = [ "a"; "b"; "c" ] in
  let assignment = [ ("a", true); ("b", false); ("c", true) ] in
  let mask = Mealy.mask_of_assignment props assignment in
  Alcotest.(check int) "mask" 0b101 mask;
  Alcotest.(check (list (pair string bool))) "roundtrip" assignment
    (Mealy.assignment_of_mask props mask)

let test_mealy_lasso () =
  (* A one-state machine copying input to output. *)
  let machine = {
    Mealy.inputs = [ "i" ];
    outputs = [ "o" ];
    num_states = 1;
    initial = 0;
    step = (fun _ imask -> (imask, 0));
  }
  in
  let word =
    Mealy.lasso machine ~prefix:[ [ ("i", true) ] ] ~loop:[ [ ("i", false) ] ]
  in
  Alcotest.(check bool) "copy machine satisfies G(i <-> o)" true
    (Trace.holds word (parse "G (i <-> o)"))

(* --- antichain vs enumerative explicit engine --- *)

let same_mealy a b =
  let num_inputs = 1 lsl List.length a.Mealy.inputs in
  a.Mealy.inputs = b.Mealy.inputs
  && a.Mealy.outputs = b.Mealy.outputs
  && a.Mealy.num_states = b.Mealy.num_states
  && a.Mealy.initial = b.Mealy.initial
  && List.for_all
       (fun s ->
          List.for_all
            (fun i -> a.Mealy.step s i = b.Mealy.step s i)
            (List.init num_inputs Fun.id))
       (List.init a.Mealy.num_states Fun.id)

let same_counterstrategy a b =
  let num_outputs = 1 lsl List.length a.Bounded.cs_outputs in
  a.Bounded.cs_num_states = b.Bounded.cs_num_states
  && a.Bounded.cs_initial = b.Bounded.cs_initial
  && List.for_all
       (fun s ->
          a.Bounded.cs_move s = b.Bounded.cs_move s
          && List.for_all
               (fun o -> a.Bounded.cs_next s o = b.Bounded.cs_next s o)
               (List.init num_outputs Fun.id))
       (List.init a.Bounded.cs_num_states Fun.id)

(* The antichain solver is not an approximation: on every specification
   its one-block run must reproduce the enumerative reference oracle's
   verdict bit-for-bit, including the extracted witness machine (both
   extractions use the same first-winning-move preference). *)
let prop_antichain_matches_enumerative =
  QCheck2.Test.make ~count:40
    ~name:"antichain and enumerative explicit engines produce identical \
           verdicts and witnesses"
    fragment_gen
    (fun requirements ->
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let spec = Ltl.conj_list requirements in
       match
         ( Bounded.solve ~inputs ~outputs [ spec ],
           Enumerative.solve ~inputs ~outputs spec )
       with
       | Bounded.Realizable a, Bounded.Realizable e -> same_mealy a e
       | Bounded.Unrealizable a, Bounded.Unrealizable e ->
         same_counterstrategy a e
       | Bounded.Unknown a, Bounded.Unknown e -> a = e
       | _ -> false)

let () =
  Alcotest.run "synthesis"
    [
      ( "explicit",
        [
          Alcotest.test_case "simple response" `Quick
            test_explicit_simple_response;
          Alcotest.test_case "clairvoyance (footnote 1)" `Quick
            test_explicit_clairvoyance;
          Alcotest.test_case "eventually" `Quick test_explicit_eventually;
          Alcotest.test_case "until needs input" `Quick
            test_explicit_until_needs_input;
          Alcotest.test_case "weak until" `Quick test_explicit_weak_until;
          Alcotest.test_case "inputs uncontrollable" `Quick
            test_explicit_cannot_control_input;
          Alcotest.test_case "delayed response" `Quick
            test_explicit_delayed_response;
          Alcotest.test_case "contradiction" `Quick
            test_explicit_contradiction;
          Alcotest.test_case "conflicting responses" `Quick
            test_explicit_conflicting_responses;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "simple" `Quick test_symbolic_simple;
          Alcotest.test_case "safety unrealizable" `Quick
            test_symbolic_safety_unrealizable;
          Alcotest.test_case "bounded liveness" `Quick
            test_symbolic_bounded_liveness;
          Alcotest.test_case "X chain" `Quick test_symbolic_xchain;
          Alcotest.test_case "weak until" `Quick test_symbolic_weak_until;
          Alcotest.test_case "lookahead escalation" `Quick
            test_symbolic_lookahead_escalation;
          Alcotest.test_case "16 propositions" `Quick
            test_symbolic_many_props;
          Alcotest.test_case "robot 3x3 with witness" `Quick
            test_symbolic_robot_3x3_witness;
          Alcotest.test_case "fixpoint pins" `Quick test_fixpoint_pins;
        ] );
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest prop_engines_agree_on_fragment;
          QCheck_alcotest.to_alcotest
            prop_realizable_controllers_satisfy_spec;
        ] );
      ( "counterstrategy",
        [
          Alcotest.test_case "clairvoyance witness" `Quick
            test_counterstrategy_clairvoyance;
          QCheck_alcotest.to_alcotest prop_counterstrategies_refute;
          QCheck_alcotest.to_alcotest prop_antichain_matches_enumerative;
        ] );
      ( "verify",
        [
          Alcotest.test_case "holds" `Quick test_verify_holds;
          Alcotest.test_case "counterexample" `Quick
            test_verify_counterexample;
          Alcotest.test_case "liveness counterexample" `Quick
            test_verify_liveness_counterexample;
          Alcotest.test_case "check_all" `Quick test_verify_check_all;
          QCheck_alcotest.to_alcotest prop_verify_agrees_with_synthesis;
        ] );
      ( "symbolic-verify",
        [ QCheck_alcotest.to_alcotest prop_symbolic_controllers_verify ] );
      ( "witness",
        [ QCheck_alcotest.to_alcotest prop_witness_flag_keeps_verdict ] );
      ( "testgen",
        [
          Alcotest.test_case "coverage" `Quick test_testgen_full_coverage;
          Alcotest.test_case "mutant detection" `Quick
            test_testgen_reference_passes_mutant_fails;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "shrinks and preserves" `Quick
            test_minimize_shrinks_and_preserves;
          Alcotest.test_case "merges duplicates" `Quick
            test_minimize_merges_duplicates;
          Alcotest.test_case "keeps distinctions" `Quick
            test_minimize_keeps_distinctions;
          QCheck_alcotest.to_alcotest prop_minimization_preserves_behaviour;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "sanitize" `Quick test_codegen_sanitize;
          Alcotest.test_case "structured text" `Quick
            test_codegen_structured_text;
          Alcotest.test_case "verilog" `Quick test_codegen_verilog;
          QCheck_alcotest.to_alcotest prop_st_program_matches_machine;
        ] );
      ( "mealy",
        [
          Alcotest.test_case "masks" `Quick test_mealy_masks;
          Alcotest.test_case "lasso" `Quick test_mealy_lasso;
        ] );
    ]
