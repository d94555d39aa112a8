(* Tests for the resource-governance layer: budgets, cancellation,
   fault injection, and the engine-fallback ladder.

   The load-bearing checks are (1) the qcheck property that a budgeted
   realizability check always terminates within its fuel and returns a
   value instead of raising, and (2) the fault-injection cases that
   force every rung of the ladder to fire. *)

open Speccc_logic
open Speccc_runtime
open Speccc_synthesis
open Speccc_core

let parse = Ltl_parse.formula

let with_faults ?seed triggers f =
  Fault.install ?seed triggers;
  Fun.protect ~finally:Fault.clear f

(* ---------- budget ---------- *)

let test_fuel_exhaustion () =
  let budget = Budget.create ~fuel:10 () in
  for _ = 1 to 10 do Budget.checkpoint budget ~stage:"s" done;
  Alcotest.(check int) "spent" 10 (Budget.spent budget);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted budget);
  (match Budget.checkpoint budget ~stage:"s" with
   | () -> Alcotest.fail "11th step must raise"
   | exception Runtime.Interrupt (Runtime.Fuel_exhausted "s") -> ());
  Alcotest.(check int) "a refused step is not spent" 10 (Budget.spent budget)

let test_poll_interval_bound () =
  (* A deadline in the past must be noticed within max_poll_interval
     checkpoints even when a huge polling period is requested. *)
  let budget =
    Budget.create ~deadline_in:(-1.0) ~poll_every:1_000_000 ()
  in
  let steps = ref 0 in
  (try
     while !steps <= Budget.max_poll_interval do
       Budget.checkpoint budget ~stage:"s";
       incr steps
     done
   with Runtime.Interrupt (Runtime.Timeout "s") -> ());
  Alcotest.(check bool)
    (Printf.sprintf "timeout within %d steps (took %d)"
       Budget.max_poll_interval !steps)
    true
    (!steps <= Budget.max_poll_interval)

let test_child_absorb () =
  let parent = Budget.create ~fuel:100 () in
  let child = Budget.child parent ~fuel:60 in
  Alcotest.(check (option int)) "child fuel" (Some 60)
    (Budget.remaining child);
  for _ = 1 to 5 do Budget.checkpoint child ~stage:"c" done;
  Budget.absorb parent child;
  Alcotest.(check int) "parent spent" 5 (Budget.spent parent);
  Alcotest.(check (option int)) "parent remaining" (Some 95)
    (Budget.remaining parent);
  (* a child never gets more than the parent has left *)
  let greedy = Budget.child parent ~fuel:1_000 in
  Alcotest.(check (option int)) "child capped" (Some 95)
    (Budget.remaining greedy)

(* A reserve has fuel of its own after the parent's is gone, but keeps
   the parent's cancellation token. *)
let test_reserve () =
  let token = Cancellation.create () in
  let parent = Budget.create ~fuel:1 ~cancel:token ~poll_every:1 () in
  Budget.checkpoint parent ~stage:"p";
  Alcotest.(check bool) "parent exhausted" true (Budget.exhausted parent);
  let reserve = Budget.reserve parent ~fuel:10 in
  Alcotest.(check (option int)) "reserve fuel" (Some 10)
    (Budget.remaining reserve);
  Budget.checkpoint reserve ~stage:"r";
  Cancellation.cancel token;
  match Budget.checkpoint reserve ~stage:"r" with
  | () -> Alcotest.fail "a reserve must poll the parent's token"
  | exception Runtime.Interrupt (Runtime.Cancelled "r") -> ()

let test_cancellation () =
  let token = Cancellation.create () in
  let budget = Budget.create ~cancel:token ~poll_every:1 () in
  Budget.checkpoint budget ~stage:"s";
  Alcotest.(check bool) "not cancelled yet" false
    (Cancellation.is_cancelled token);
  Cancellation.cancel token;
  (match Budget.checkpoint budget ~stage:"s" with
   | () -> Alcotest.fail "checkpoint after cancel must raise"
   | exception Runtime.Interrupt (Runtime.Cancelled "s") -> ());
  match Budget.check budget ~stage:"s" with
  | Error (Runtime.Cancelled _) -> ()
  | Ok () | Error _ -> Alcotest.fail "check must report Cancelled"

(* ---------- typed errors on user-input paths ---------- *)

let test_timeabs_typed_errors () =
  (match Speccc_timeabs.Timeabs.problem_checked ~budget:(-1) [ 4; 6 ] with
   | Error error ->
     Alcotest.(check string) "stage" "timeabs" (Runtime.stage_of error)
   | Ok _ -> Alcotest.fail "negative budget must be rejected");
  (match Speccc_timeabs.Timeabs.problem_checked [ 4; 0 ] with
   | Error (Runtime.Invalid_input _) -> ()
   | Ok _ | Error _ -> Alcotest.fail "non-positive θ must be rejected");
  match Speccc_timeabs.Timeabs.problem_checked [ 4; 6 ] with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "valid Θ must build"

let test_verbalize_typed_errors () =
  let config = Speccc_translate.Translate.default_config () in
  match
    Speccc_translate.Verbalize.roundtrip_checked config
      (parse "a U b")   (* outside the template fragment *)
  with
  | Error (Runtime.Invalid_input { stage = "verbalize"; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "out-of-fragment must be typed"

(* ---------- fault injection ---------- *)

let test_fault_counts_and_fires () =
  with_faults
    [ { Fault.checkpoint = Fault.Checkpoint.sat_solve; after = 1;
        action = Fault.Fail "boom" } ]
    (fun () ->
       let solver = Speccc_sat.Sat.create () in
       Speccc_sat.Sat.add_clause solver [ 1 ];
       (* first hit passes... *)
       (match Speccc_sat.Sat.solve solver with
        | Speccc_sat.Sat.Sat _ -> ()
        | Speccc_sat.Sat.Unsat -> Alcotest.fail "1 must be satisfiable");
       (* ...second hit fires the trigger *)
       (match
          Runtime.guard ~stage:"sat" (fun () ->
              Speccc_sat.Sat.solve solver)
        with
        | Error (Runtime.Engine_failure ("sat.solve", "boom")) -> ()
        | Ok _ | Error _ -> Alcotest.fail "second solve must fail");
       Alcotest.(check int) "hits counted" 2 (Fault.hits Fault.Checkpoint.sat_solve));
  Alcotest.(check bool) "cleared" false (Fault.active ())

let test_budgeted_tableau_is_interruptible () =
  let budget = Budget.create ~fuel:3 () in
  match
    Runtime.guard ~stage:"tableau" (fun () ->
        Speccc_automata.Nbw.of_ltl ~budget (parse "G (a -> F b)"))
  with
  | Error (Runtime.Fuel_exhausted "tableau") -> ()
  | Ok _ -> Alcotest.fail "3 steps cannot build this tableau"
  | Error e -> Alcotest.fail (Runtime.to_string e)

let test_cancellation_reason () =
  let token = Cancellation.create () in
  Alcotest.(check (option string)) "no reason yet" None
    (Cancellation.reason token);
  Cancellation.cancel ~reason:"watchdog" token;
  Alcotest.(check bool) "cancelled" true (Cancellation.is_cancelled token);
  Alcotest.(check (option string)) "reason recorded" (Some "watchdog")
    (Cancellation.reason token);
  (* a second cancel without a reason must not erase the first *)
  Cancellation.cancel token;
  Alcotest.(check (option string)) "reason kept" (Some "watchdog")
    (Cancellation.reason token)

let test_fault_counts_across_domains () =
  (* Fault plans are process-global and mutex-protected: hits
     announced from several domains at once must be counted exactly,
     and a trigger must fire exactly once across the whole pool. *)
  let domains = 4 and hits_per_domain = 250 in
  with_faults
    [ { Fault.checkpoint = Fault.Checkpoint.sat_solve;
        after = (domains * hits_per_domain) - 1;
        action = Fault.Fail "last hit" } ]
    (fun () ->
       let fired = Atomic.make 0 in
       let worker () =
         for _ = 1 to hits_per_domain do
           match Runtime.guard ~stage:"t" (fun () ->
               Fault.hit Fault.Checkpoint.sat_solve) with
           | Ok () -> ()
           | Error _ -> Atomic.incr fired
         done
       in
       let spawned = List.init domains (fun _ -> Domain.spawn worker) in
       List.iter Domain.join spawned;
       Alcotest.(check int) "every hit counted"
         (domains * hits_per_domain)
         (Fault.hits Fault.Checkpoint.sat_solve);
       Alcotest.(check int) "trigger fired exactly once" 1
         (Atomic.get fired))

(* ---------- watchdog ---------- *)

let test_watchdog_fast_job_ok () =
  let dog = Watchdog.create ~poll_interval:0.005 () in
  Fun.protect ~finally:(fun () -> Watchdog.stop dog)
    (fun () ->
       let token = Cancellation.create () in
       let escalated = Atomic.make false in
       let job =
         Watchdog.watch dog ~deadline:5.0 ~grace:1.0 ~cancel:token
           ~on_escalate:(fun () -> Atomic.set escalated true)
       in
       (match Watchdog.complete dog job with
        | `Ok -> ()
        | `Tripped | `Escalated -> Alcotest.fail "job beat its deadline");
       Alcotest.(check bool) "token untouched" false
         (Cancellation.is_cancelled token);
       Alcotest.(check bool) "no escalation" false (Atomic.get escalated))

let test_watchdog_trips_then_escalates () =
  let dog = Watchdog.create ~poll_interval:0.005 () in
  Fun.protect ~finally:(fun () -> Watchdog.stop dog)
    (fun () ->
       let token = Cancellation.create () in
       let escalations = Atomic.make 0 in
       let job =
         Watchdog.watch dog ~deadline:0.03 ~grace:0.03 ~cancel:token
           ~on_escalate:(fun () -> Atomic.incr escalations)
       in
       (* past the deadline but within grace: tripped, not escalated *)
       Thread.delay 0.045;
       Alcotest.(check bool) "token tripped" true
         (Cancellation.is_cancelled token);
       Alcotest.(check (option string)) "by the watchdog"
         (Some "watchdog") (Cancellation.reason token);
       Alcotest.(check int) "not yet escalated" 0 (Atomic.get escalations);
       (* past deadline + grace: escalated, exactly once *)
       Thread.delay 0.08;
       Alcotest.(check int) "escalated once" 1 (Atomic.get escalations);
       (match Watchdog.complete dog job with
        | `Escalated -> ()
        | `Ok | `Tripped -> Alcotest.fail "status must be `Escalated");
       Alcotest.(check int) "trip counter" 1 (Watchdog.trips dog);
       Alcotest.(check int) "escalation counter" 1 (Watchdog.escalations dog))

let test_watchdog_completion_stops_escalation () =
  let dog = Watchdog.create ~poll_interval:0.005 () in
  Fun.protect ~finally:(fun () -> Watchdog.stop dog)
    (fun () ->
       let token = Cancellation.create () in
       let escalated = Atomic.make false in
       let job =
         Watchdog.watch dog ~deadline:0.02 ~grace:0.05 ~cancel:token
           ~on_escalate:(fun () -> Atomic.set escalated true)
       in
       (* the engine notices the trip and stops within the grace *)
       Thread.delay 0.035;
       (match Watchdog.complete dog job with
        | `Tripped -> ()
        | `Ok | `Escalated -> Alcotest.fail "status must be `Tripped");
       (* completing the job disarms stage two for good *)
       Thread.delay 0.08;
       Alcotest.(check bool) "no late escalation" false
         (Atomic.get escalated))

(* ---------- the fallback ladder ---------- *)

let inputs = [ "i" ]
let outputs = [ "o" ]
let realizable_spec = [ parse "G (i -> o)" ]

let ladder ?budget ?(faults = []) formulas =
  with_faults faults (fun () ->
      Realizability.check ?budget ~inputs ~outputs formulas)

let rung_engines report =
  List.map (fun r -> r.Realizability.rung_engine)
    report.Realizability.degradation

let fail_at checkpoint =
  { Fault.checkpoint; after = 0; action = Fault.Fail "injected" }

let test_ladder_no_fault () =
  let report =
    ladder ~budget:(Budget.create ~fuel:500_000 ()) realizable_spec
  in
  Alcotest.(check bool) "consistent" true
    (report.Realizability.verdict = Realizability.Consistent);
  Alcotest.(check (list string)) "no degradation" [] (rung_engines report)

let test_ladder_first_rung_fails () =
  let report =
    ladder ~faults:[ fail_at Fault.Checkpoint.engine_symbolic ] realizable_spec
  in
  Alcotest.(check bool) "consistent" true
    (report.Realizability.verdict = Realizability.Consistent);
  Alcotest.(check string) "fell to explicit" "explicit"
    report.Realizability.engine_used;
  Alcotest.(check (list string)) "one rung logged" [ "symbolic" ]
    (rung_engines report)

let inconclusive_why report =
  match report.Realizability.verdict with
  | Realizability.Inconclusive why -> why
  | _ -> Alcotest.fail "no engine left: must be inconclusive"

let test_ladder_two_rungs_fail () =
  let report =
    ladder
      ~faults:[ fail_at Fault.Checkpoint.engine_symbolic; fail_at Fault.Checkpoint.engine_explicit ]
      realizable_spec
  in
  (* engine failures are not resource errors: no budget to blame; the
     ladder's lint step finds no conflict in a realizable spec *)
  Alcotest.(check string) "explanation"
    "all engines degraded or inconclusive; lint found no conflict"
    (inconclusive_why report);
  Alcotest.(check (list string)) "two rungs and the lint step logged"
    [ "symbolic"; "explicit"; "lint" ] (rung_engines report);
  Alcotest.(check string) "lint outcome" "completed: no conflicts found"
    (List.nth report.Realizability.degradation 2).Realizability.rung_outcome

let test_ladder_all_rungs_fail () =
  (* With assumptions the ladder is the explicit rung alone; starving
     it is a resource error, so the explanation names the budget.  No
     lint step follows: the pass would read the requirements without
     their antecedent. *)
  let report =
    with_faults
      [ { Fault.checkpoint = Fault.Checkpoint.engine_explicit; after = 0;
          action = Fault.Exhaust } ]
      (fun () ->
         Realizability.check ~assumptions:[ parse "G F i" ] ~inputs
           ~outputs realizable_spec)
  in
  Alcotest.(check string) "explanation"
    "all engines degraded or inconclusive under the budget"
    (inconclusive_why report);
  Alcotest.(check string) "nobody decided" "none"
    report.Realizability.engine_used;
  Alcotest.(check (list string)) "one rung logged, no lint step"
    [ "explicit" ] (rung_engines report)

let test_ladder_fuel_exhaust_rung () =
  (* An Exhaust fault is indistinguishable from real fuel starvation:
     the rung degrades with a resource error and the ladder goes on. *)
  let report =
    ladder
      ~faults:
        [ { Fault.checkpoint = Fault.Checkpoint.engine_symbolic; after = 0;
            action = Fault.Exhaust } ]
      realizable_spec
  in
  Alcotest.(check bool) "consistent" true
    (report.Realizability.verdict = Realizability.Consistent);
  (match report.Realizability.degradation with
   | [ { Realizability.rung_error = Some error; _ } ] ->
     Alcotest.(check bool) "resource error" true
       (Runtime.is_resource error)
   | _ -> Alcotest.fail "expected exactly one degraded rung")

let test_ladder_global_timeout_aborts () =
  (* A wall-clock timeout is global: the ladder must stop instead of
     descending to engines that would be killed at their first poll. *)
  let report =
    ladder
      ~faults:
        [ { Fault.checkpoint = Fault.Checkpoint.engine_symbolic; after = 0;
            action = Fault.Timeout_now } ]
      realizable_spec
  in
  Alcotest.(check string) "no engine concluded" "none"
    report.Realizability.engine_used;
  match report.Realizability.degradation with
  | [ { Realizability.rung_engine = "ladder";
        rung_error = Some (Runtime.Timeout _); _ } ] -> ()
  | _ -> Alcotest.fail "injected timeout must abort the ladder"

let test_pipeline_lint_floor () =
  (* Every synthesis engine degraded, but the two requirements are a
     plain propositional conflict — the ladder's lint floor must
     still deliver the sound Inconsistent verdict. *)
  let options =
    { (Pipeline.default_options ()) with Pipeline.fuel = Some 1_000_000 }
  in
  with_faults
    [ fail_at Fault.Checkpoint.engine_symbolic; fail_at Fault.Checkpoint.engine_explicit ]
    (fun () ->
       let _, report =
         Pipeline.check_formulas ~options [ parse "G o"; parse "G !o" ]
       in
       Alcotest.(check bool) "inconsistent" true
         (report.Realizability.verdict = Realizability.Inconsistent);
       Alcotest.(check string) "lint concluded" "lint"
         report.Realizability.engine_used;
       Alcotest.(check (list string)) "engines logged"
         [ "symbolic"; "explicit" ] (rung_engines report))

(* ---------- pipeline under tight budgets ---------- *)

let test_cara_under_tight_budget () =
  (* The CARA working-mode document is the paper's running example; a
     starved run must terminate promptly with a populated degradation
     log instead of hanging. *)
  let document =
    List.mapi
      (fun line (id, text) -> { Document.id; text; line = line + 1 })
      Speccc_casestudies.Cara.working_modes
  in
  let options =
    { (Pipeline.default_options ()) with Pipeline.fuel = Some 2_000 }
  in
  let outcome = Pipeline.run_document ~options document in
  match outcome.Pipeline.report.Realizability.verdict with
  | Realizability.Consistent | Realizability.Inconsistent -> ()
  | Realizability.Inconclusive _ ->
    Alcotest.(check bool) "degradation recorded" true
      (outcome.Pipeline.report.Realizability.degradation <> [])

(* Starved of fuel, CARA's engines all degrade and the lint floor
   would need far more than its reserve of fuel to finish.  The
   reserve keeps the check's deadline, so the floor stops at it.  The
   deadline must fall after the ladder has started and before the
   20 000-step reserve runs out.  On a 2-core x86-64 machine the stages
   before the floor take about 10 ms and the reserve 0.7-1.2 s, so
   0.1 s holds on machines ten times slower or faster. *)
let test_cara_lint_floor_keeps_deadline () =
  let document =
    List.mapi
      (fun line (id, text) -> { Document.id; text; line = line + 1 })
      Speccc_casestudies.Cara.working_modes
  in
  let options =
    { (Pipeline.default_options ()) with
      Pipeline.fuel = Some 1_000; deadline = Some 0.1 }
  in
  let started = Unix.gettimeofday () in
  let outcome = Pipeline.run_document ~options document in
  let wall = Unix.gettimeofday () -. started in
  (match List.rev outcome.Pipeline.report.Realizability.degradation with
   | { Realizability.rung_engine = "lint";
       rung_error = Some (Runtime.Timeout _); _ } :: _ -> ()
   | _ -> Alcotest.fail "the lint rung must end on the deadline");
  Alcotest.(check bool) "well before the fuel-only 20 s" true (wall < 10.)

(* ---------- the termination property ---------- *)

let prop_names = [ "i"; "o"; "p" ]

let formula_gen =
  let open QCheck2.Gen in
  int_range 0 8 >>= fix (fun self size ->
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

(* A check under a fuel-only budget must (a) never raise, (b) never
   abort the ladder — fuel exhaustion is not a global event — and
   (c) never spend more than the fuel it was given. *)
let prop_budgeted_check_terminates =
  QCheck2.Test.make ~count:60
    ~name:"budgeted check stays within fuel"
    QCheck2.Gen.(pair formula_gen (int_range 50 5_000))
    (fun (formula, fuel) ->
       let budget = Budget.create ~fuel () in
       let report =
         Realizability.check ~budget ~inputs:[ "i" ] ~outputs:[ "o"; "p" ]
           [ formula ]
       in
       Budget.spent budget <= fuel
       && List.for_all
            (fun rung -> rung.Realizability.rung_engine <> "ladder")
            report.Realizability.degradation)

let () =
  Alcotest.run "runtime"
    [
      ( "budget",
        [
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "poll interval bound" `Quick
            test_poll_interval_bound;
          Alcotest.test_case "child/absorb" `Quick test_child_absorb;
          Alcotest.test_case "reserve" `Quick test_reserve;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "cancellation reason" `Quick
            test_cancellation_reason;
        ] );
      ( "typed-errors",
        [
          Alcotest.test_case "timeabs" `Quick test_timeabs_typed_errors;
          Alcotest.test_case "verbalize" `Quick test_verbalize_typed_errors;
        ] );
      ( "faults",
        [
          Alcotest.test_case "counts and fires" `Quick
            test_fault_counts_and_fires;
          Alcotest.test_case "budgeted tableau" `Quick
            test_budgeted_tableau_is_interruptible;
          Alcotest.test_case "exact counts across domains" `Quick
            test_fault_counts_across_domains;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "fast job is `Ok" `Quick
            test_watchdog_fast_job_ok;
          Alcotest.test_case "trips then escalates" `Quick
            test_watchdog_trips_then_escalates;
          Alcotest.test_case "completion disarms escalation" `Quick
            test_watchdog_completion_stops_escalation;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "no fault" `Quick test_ladder_no_fault;
          Alcotest.test_case "first rung fails" `Quick
            test_ladder_first_rung_fails;
          Alcotest.test_case "two rungs fail" `Quick
            test_ladder_two_rungs_fail;
          Alcotest.test_case "all rungs fail" `Quick
            test_ladder_all_rungs_fail;
          Alcotest.test_case "fuel-exhaust rung" `Quick
            test_ladder_fuel_exhaust_rung;
          Alcotest.test_case "global timeout aborts" `Quick
            test_ladder_global_timeout_aborts;
          Alcotest.test_case "pipeline lint floor" `Quick
            test_pipeline_lint_floor;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "CARA under tight budget" `Quick
            test_cara_under_tight_budget;
          Alcotest.test_case "CARA lint floor keeps the deadline" `Quick
            test_cara_lint_floor_keeps_deadline;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_budgeted_check_terminates ] );
    ]
