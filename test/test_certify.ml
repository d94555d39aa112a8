(* Tests for verdict certification: a certified Realizable controller
   really satisfies the spec on random input traces (qcheck), and a
   corrupted witness — injected with Fault.Corrupt at the emission
   checkpoints — is rejected, downgrading the verdict to Inconclusive
   with a typed error in the degradation log. *)

open Speccc_logic
open Speccc_runtime
open Speccc_synthesis
open Speccc_certify
open Speccc_core

let parse = Ltl_parse.formula

let with_faults ?seed triggers f =
  Fault.install ?seed triggers;
  Fun.protect ~finally:Fault.clear f

let corrupt_at checkpoint =
  { Fault.checkpoint; after = 0; action = Fault.Corrupt }

let fail_at checkpoint =
  { Fault.checkpoint; after = 0; action = Fault.Fail "injected" }

let inputs = [ "i" ]
let outputs = [ "o" ]
let realizable_spec = [ parse "G (i -> o)" ]
let unrealizable_spec = [ parse "G (i -> o)"; parse "G (i -> !o)" ]

let is_inconclusive report =
  match report.Realizability.verdict with
  | Realizability.Inconclusive _ -> true
  | Realizability.Consistent | Realizability.Inconsistent -> false

let certify_rungs report =
  List.filter
    (fun r -> r.Realizability.rung_engine = "certify")
    report.Realizability.degradation

(* ---------- the happy paths ---------- *)

let test_certifies_controller () =
  let report =
    Realizability.check ~witness:true ~inputs ~outputs realizable_spec
  in
  let report', outcome =
    Certify.apply ~assumptions:[] realizable_spec report
  in
  (match outcome with
   | Certify.Certified _ -> ()
   | Certify.Rejected why -> Alcotest.fail ("rejected: " ^ why)
   | Certify.No_witness why -> Alcotest.fail ("no witness: " ^ why));
  Alcotest.(check bool) "verdict unchanged" true
    (report'.Realizability.verdict = Realizability.Consistent);
  Alcotest.(check int) "no certify rung" 0
    (List.length (certify_rungs report'))

let test_certifies_counterstrategy () =
  let report =
    Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
      unrealizable_spec
  in
  Alcotest.(check bool) "inconsistent" true
    (report.Realizability.verdict = Realizability.Inconsistent);
  let _, outcome = Certify.apply ~assumptions:[] unrealizable_spec report in
  match outcome with
  | Certify.Certified _ -> ()
  | Certify.Rejected why -> Alcotest.fail ("rejected: " ^ why)
  | Certify.No_witness why -> Alcotest.fail ("no witness: " ^ why)

let test_certifies_unsat_core () =
  (* Engines knocked out, the lint floor proves the conflict and ships
     a core; certification re-derives it with a fresh tableau. *)
  let options =
    { (Pipeline.default_options ()) with
      Pipeline.fuel = Some 1_000_000; certify = true }
  in
  with_faults
    [ fail_at Fault.Checkpoint.engine_symbolic;
      fail_at Fault.Checkpoint.engine_explicit ]
    (fun () ->
       let outcome =
         Pipeline.run
           ~options
           [ "The pump is started."; "The pump is not started." ]
       in
       Alcotest.(check string) "lint concluded" "lint"
         outcome.Pipeline.report.Realizability.engine_used;
       Alcotest.(check bool) "inconsistent" true
         (outcome.Pipeline.report.Realizability.verdict
          = Realizability.Inconsistent);
       match outcome.Pipeline.certificate with
       | Some (Certify.Certified _) -> ()
       | Some (Certify.Rejected why) -> Alcotest.fail ("rejected: " ^ why)
       | Some (Certify.No_witness why) ->
         Alcotest.fail ("no witness: " ^ why)
       | None -> Alcotest.fail "certificate missing")

(* ---------- corrupted witnesses are rejected ---------- *)

let test_corrupted_controller_downgrades () =
  with_faults [ corrupt_at Fault.Checkpoint.witness_controller ]
    (fun () ->
       let report =
         Realizability.check ~witness:true ~inputs ~outputs realizable_spec
       in
       let report', outcome =
         Certify.apply ~assumptions:[] realizable_spec report
       in
       (match outcome with
        | Certify.Rejected _ -> ()
        | Certify.Certified how ->
          Alcotest.fail ("corrupted controller certified: " ^ how)
        | Certify.No_witness why -> Alcotest.fail ("no witness: " ^ why));
       Alcotest.(check bool) "downgraded to Inconclusive" true
         (is_inconclusive report');
       match certify_rungs report' with
       | [ { Realizability.rung_error =
               Some (Runtime.Engine_failure ("certify", _)); _ } ] -> ()
       | _ -> Alcotest.fail "expected one certify rung with a typed error")

let test_corrupted_counterstrategy_downgrades () =
  with_faults [ corrupt_at Fault.Checkpoint.witness_counterstrategy ]
    (fun () ->
       let report =
         Realizability.check ~engine:Realizability.Explicit ~inputs ~outputs
           unrealizable_spec
       in
       let report', outcome =
         Certify.apply ~assumptions:[] unrealizable_spec report
       in
       (match outcome with
        | Certify.Rejected _ -> ()
        | Certify.Certified how ->
          Alcotest.fail ("corrupted counterstrategy certified: " ^ how)
        | Certify.No_witness why -> Alcotest.fail ("no witness: " ^ why));
       Alcotest.(check bool) "downgraded to Inconclusive" true
         (is_inconclusive report'))

let test_corrupted_core_downgrades () =
  let options =
    { (Pipeline.default_options ()) with
      Pipeline.fuel = Some 1_000_000; certify = true }
  in
  with_faults
    [ fail_at Fault.Checkpoint.engine_symbolic;
      fail_at Fault.Checkpoint.engine_explicit;
      corrupt_at Fault.Checkpoint.witness_core ]
    (fun () ->
       let outcome =
         Pipeline.run
           ~options
           [ "The pump is started."; "The pump is not started." ]
       in
       (match outcome.Pipeline.certificate with
        | Some (Certify.Rejected _) -> ()
        | Some (Certify.Certified how) ->
          Alcotest.fail ("corrupted core certified: " ^ how)
        | Some (Certify.No_witness why) ->
          Alcotest.fail ("no witness: " ^ why)
        | None -> Alcotest.fail "certificate missing");
       Alcotest.(check bool) "downgraded to Inconclusive" true
         (is_inconclusive outcome.Pipeline.report))

(* ---------- no-witness and mismatch edges ---------- *)

let test_inconclusive_has_no_witness () =
  let report =
    {
      Realizability.verdict = Realizability.Inconclusive "test";
      engine_used = "none";
      controller = None;
      counterstrategy = None;
      unsat_core = None;
      refuted_on = None;
      wall_time = 0.;
      detail = "";
      degradation = [];
    }
  in
  let report', outcome = Certify.apply ~assumptions:[] realizable_spec report in
  (match outcome with
   | Certify.No_witness _ -> ()
   | Certify.Certified _ | Certify.Rejected _ ->
     Alcotest.fail "inconclusive verdicts carry nothing to certify");
  Alcotest.(check int) "report untouched" 0
    (List.length report'.Realizability.degradation)

let test_out_of_range_core_rejected () =
  let report =
    {
      Realizability.verdict = Realizability.Inconsistent;
      engine_used = "lint";
      controller = None;
      counterstrategy = None;
      unsat_core = Some [ 0; 7 ];
      refuted_on = None;
      wall_time = 0.;
      detail = "";
      degradation = [];
    }
  in
  let report', outcome =
    Certify.apply ~assumptions:[] realizable_spec report
  in
  (match outcome with
   | Certify.Rejected _ -> ()
   | Certify.Certified _ | Certify.No_witness _ ->
     Alcotest.fail "a core naming absent requirements must be rejected");
  Alcotest.(check bool) "downgraded" true (is_inconclusive report')

(* ---------- the qcheck property ---------- *)

let prop_names = [ "i"; "o"; "p" ]

let formula_gen =
  let open QCheck2.Gen in
  int_range 0 6 >>= fix (fun self size ->
      if size <= 1 then
        oneof
          [ return Ltl.True; return Ltl.False; map Ltl.prop (oneofl prop_names) ]
      else
        let sub = self (size / 2) in
        oneof
          [
            map Ltl.prop (oneofl prop_names);
            map (fun f -> Ltl.Not f) sub;
            map2 (fun f g -> Ltl.And (f, g)) sub sub;
            map2 (fun f g -> Ltl.Or (f, g)) sub sub;
            map2 (fun f g -> Ltl.Implies (f, g)) sub sub;
            map (fun f -> Ltl.Next f) sub;
            map (fun f -> Ltl.Eventually f) sub;
            map (fun f -> Ltl.Always f) sub;
            map2 (fun f g -> Ltl.Until (f, g)) sub sub;
          ])

let letter_gen =
  QCheck2.Gen.(
    map
      (fun bits -> [ ("i", bits land 1 = 1) ])
      (int_range 0 1))

let lasso_gen =
  QCheck2.Gen.(
    pair (list_size (int_range 0 3) letter_gen)
      (list_size (int_range 1 3) letter_gen))

(* A certified Realizable controller satisfies the spec on random input
   lassos — including ones drawn from a different generator than the
   certifier's own LCG, so the property is not circular. *)
let prop_certified_controller_satisfies_spec =
  QCheck2.Test.make ~count:60
    ~name:"certified Realizable controller satisfies the spec on random traces"
    QCheck2.Gen.(pair formula_gen (list_size (int_range 1 8) lasso_gen))
    (fun (formula, lassos) ->
       let report =
         Realizability.check ~engine:Realizability.Explicit
           ~inputs:[ "i" ] ~outputs:[ "o"; "p" ] [ formula ]
       in
       match report.Realizability.verdict, report.Realizability.controller with
       | Realizability.Consistent, Some machine ->
         (match Certify.certificate ~assumptions:[] [ formula ] report with
          | Certify.Certified _ ->
            List.for_all
              (fun (prefix, loop) ->
                 Trace.holds (Mealy.lasso machine ~prefix ~loop) formula)
              lassos
          | Certify.Rejected _ | Certify.No_witness _ ->
            (* an exact engine's controller must certify *)
            false)
       | _ -> true)

let () =
  Alcotest.run "certify"
    [
      ( "happy-path",
        [
          Alcotest.test_case "controller replay" `Quick
            test_certifies_controller;
          Alcotest.test_case "counterstrategy panel" `Quick
            test_certifies_counterstrategy;
          Alcotest.test_case "unsat core re-check" `Quick
            test_certifies_unsat_core;
        ] );
      ( "corruption-drills",
        [
          Alcotest.test_case "corrupted controller" `Quick
            test_corrupted_controller_downgrades;
          Alcotest.test_case "corrupted counterstrategy" `Quick
            test_corrupted_counterstrategy_downgrades;
          Alcotest.test_case "corrupted core" `Quick
            test_corrupted_core_downgrades;
        ] );
      ( "edges",
        [
          Alcotest.test_case "inconclusive has no witness" `Quick
            test_inconclusive_has_no_witness;
          Alcotest.test_case "out-of-range core" `Quick
            test_out_of_range_core_rejected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            prop_certified_controller_satisfies_spec;
        ] );
    ]
