(* Tests for time counting and abstraction (Sec. IV-E): the paper's
   worked example, GCD soundness on realizability, agreement between
   the SMT and analytic solvers, and the formula rewriting. *)

open Speccc_logic
open Speccc_timeabs.Timeabs
open Speccc_synthesis

let parse = Ltl_parse.formula

let ltl = Alcotest.testable (Ltl_print.pp ~syntax:Ltl_print.Ascii) Ltl.equal

let test_thetas_extraction () =
  let formulas = [
    parse "G (!air_ok -> X X X stop)";
    parse ("G (" ^ String.concat " " (List.init 180 (fun _ -> "X"))
           ^ " !bp -> trigger)");
    parse ("G (run -> " ^ String.concat " " (List.init 60 (fun _ -> "X"))
           ^ " alarm)");
  ]
  in
  Alcotest.(check (list int)) "Θ = {180, 60, 3}" [ 180; 60; 3 ]
    (thetas_of_formulas formulas)

let test_gcd_example () =
  (* Sec. IV-E: gcd {3, 180, 60} = 3, giving lengths 1, 60, 20. *)
  let solution = gcd_solution [ 3; 180; 60 ] in
  Alcotest.(check int) "divisor" 3 solution.divisor;
  let lookup theta =
    (List.find (fun r -> r.theta = theta) solution.rewrites).theta'
  in
  Alcotest.(check int) "3 -> 1" 1 (lookup 3);
  Alcotest.(check int) "180 -> 60" 60 (lookup 180);
  Alcotest.(check int) "60 -> 20" 20 (lookup 60);
  Alcotest.(check int) "no error" 0 solution.error_total

let check_paper_optimum solution =
  (* The paper's reported optimum: d = 60, θ' = (0, 3, 1),
     Δ = (3, 0, 0).  It contains a θ' = 0 rewrite — X³φ becomes φ —
     so reproducing it requires the [allow_zero_theta] escape hatch;
     the default solver refuses to collapse a timed obligation. *)
  Alcotest.(check int) "divisor 60" 60 solution.divisor;
  Alcotest.(check int) "ΣX = 4" 4 solution.x_total;
  Alcotest.(check int) "Σ|Δ| = 3" 3 solution.error_total;
  let find theta = List.find (fun r -> r.theta = theta) solution.rewrites in
  Alcotest.(check int) "θ=3 -> 0" 0 (find 3).theta';
  Alcotest.(check int) "θ=3 Δ=3" 3 (find 3).delta;
  Alcotest.(check int) "θ=180 -> 3" 3 (find 180).theta';
  Alcotest.(check int) "θ=60 -> 1" 1 (find 60).theta'

let test_paper_example_analytic () =
  check_paper_optimum
    (solve_analytic ~allow_zero_theta:true (problem ~budget:5 [ 3; 180; 60 ]))

let test_paper_example_smt () =
  check_paper_optimum
    (solve_smt ~allow_zero_theta:true (problem ~budget:5 [ 3; 180; 60 ]))

let check_default_optimum solution =
  (* Same instance without the escape hatch: every θ' ≥ 1 forces
     d ≤ min Θ, so the best divisor is the GCD, 3 — exact, with
     Σθ' = 1 + 60 + 20. *)
  Alcotest.(check int) "divisor 3" 3 solution.divisor;
  Alcotest.(check int) "ΣX = 81" 81 solution.x_total;
  Alcotest.(check int) "Σ|Δ| = 0" 0 solution.error_total;
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (Printf.sprintf "θ=%d keeps a chain" r.theta)
         true (r.theta' >= 1))
    solution.rewrites

let test_default_refuses_collapse_analytic () =
  check_default_optimum (solve_analytic (problem ~budget:5 [ 3; 180; 60 ]))

let test_default_refuses_collapse_smt () =
  check_default_optimum (solve_smt (problem ~budget:5 [ 3; 180; 60 ]))

(* Regression for the θ' = 0 collapse: whenever budget ≥ some θ, the
   old solver could zero that chain out entirely (here θ = 1 with
   budget 1: d = 7 rewrites X¹ to X⁰ with Δ = 1, "optimal" at
   Σθ' = 1).  The fixed solver must keep every chain. *)
let test_budget_at_least_theta_no_collapse () =
  let prob = problem ~budget:1 [ 1; 7 ] in
  List.iter
    (fun (name, solve) ->
       let s = solve prob in
       List.iter
         (fun r ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: θ=%d not collapsed" name r.theta)
              true (r.theta' >= 1))
         s.rewrites;
       Alcotest.(check int) (name ^ ": divisor 1") 1 s.divisor;
       Alcotest.(check int) (name ^ ": ΣX") 8 s.x_total)
    [ ("analytic", solve_analytic ?allow_zero_theta:None);
      ("smt", solve_smt ?allow_zero_theta:None) ];
  (* the escape hatch brings the legacy collapse back, on purpose *)
  let legacy = solve_analytic ~allow_zero_theta:true prob in
  Alcotest.(check int) "legacy divisor 7" 7 legacy.divisor;
  Alcotest.(check int) "legacy ΣX = 1" 1 legacy.x_total

(* Regression for the duplicate-θ domain merge: [build] used to
   sort_uniq the (θ, domain) pairs, keeping an arbitrary domain for a
   duplicated θ.  Declaring θ = 6 both Exact and Nonnegative must
   honour Exact: the solver may not put any error on it. *)
let test_duplicate_theta_merges_to_most_restrictive () =
  let prob =
    problem ~budget:2 ~domains:[ Exact; Nonnegative; Nonnegative ] [ 6; 6; 4 ]
  in
  Alcotest.(check (list int)) "θ deduplicated" [ 6; 4 ] prob.thetas;
  List.iter
    (fun (name, solution) ->
       let r6 = List.find (fun r -> r.theta = 6) solution.rewrites in
       Alcotest.(check int) (name ^ ": Δ(6) = 0 (Exact honoured)") 0 r6.delta;
       (* d = 4 would win (ΣX = 2) if the Exact constraint were
          dropped; honouring it forces d = 3 *)
       Alcotest.(check int) (name ^ ": divisor 3") 3 solution.divisor;
       Alcotest.(check int) (name ^ ": ΣX = 3") 3 solution.x_total)
    [ ("analytic", solve_analytic prob); ("smt", solve_smt prob) ]

let test_conflicting_sign_domains_merge_to_exact () =
  (* Nonnegative ∧ Nonpositive on the same θ leaves only Δ = 0. *)
  let prob =
    problem ~budget:4 ~domains:[ Nonnegative; Nonpositive ] [ 5; 5 ]
  in
  let solution = solve_analytic prob in
  let r5 = List.find (fun r -> r.theta = 5) solution.rewrites in
  Alcotest.(check int) "Δ(5) = 0" 0 r5.delta;
  Alcotest.(check int) "divisor 5" 5 solution.divisor

let test_budget_zero_falls_back_to_gcd () =
  let solution = solve_analytic (problem ~budget:0 [ 3; 180; 60 ]) in
  Alcotest.(check int) "gcd divisor" 3 solution.divisor;
  Alcotest.(check int) "no error" 0 solution.error_total

let test_exact_domain () =
  let solution =
    solve_analytic
      (problem ~budget:100 ~domains:[ Exact; Exact ] [ 4; 6 ])
  in
  (* Exact deltas force a true common divisor: gcd 4 6 = 2. *)
  Alcotest.(check int) "divisor 2" 2 solution.divisor;
  Alcotest.(check int) "ΣX = 5" 5 solution.x_total

let test_nonpositive_domain () =
  let solution =
    solve_analytic (problem ~budget:2 ~domains:[ Nonpositive ] [ 5 ])
  in
  (* Arriving late only: 5 = 1×6 - 1 collapses to one X with Δ = -1
     (d=6); or 5 = 1×5 exactly.  ΣX = 1 either way, tie on error
     prefers Δ = 0. *)
  Alcotest.(check int) "ΣX = 1" 1 solution.x_total;
  Alcotest.(check int) "error 0" 0 solution.error_total

let prop_solvers_agree =
  let open QCheck2.Gen in
  let gen =
    let theta = int_range 1 40 in
    pair (list_size (int_range 1 4) theta) (int_range 0 10)
  in
  QCheck2.Test.make ~count:60 ~name:"SMT and analytic optima coincide" gen
    (fun (thetas, budget) ->
       let prob = problem ~budget thetas in
       let a = solve_analytic prob in
       let s = solve_smt prob in
       a.x_total = s.x_total && a.error_total = s.error_total)

(* The pipeline solves with [solve_analytic] in place of the paper's
   encoding.  Its problems have every domain [Nonnegative], where the
   lexicographic optimum fixes the divisor and every rewrite, so the
   two solvers must return equal whole solutions, not just equal
   objectives. *)
let prop_solvers_agree_on_whole_solutions =
  let open QCheck2.Gen in
  let gen =
    pair (list_size (int_range 1 5) (int_range 1 200)) (int_range 0 24)
  in
  QCheck2.Test.make ~count:40
    ~name:"Nonnegative problems: SMT and analytic solutions are equal" gen
    (fun (thetas, budget) ->
       let prob = problem ~budget thetas in
       solve_analytic prob = solve_smt prob)

(* Every Θ the shipped documents produce, at the pipeline's default
   budget: CARA's working modes, the CARA rows and TELEPROMISE. *)
let test_corpus_thetas_agree () =
  List.iter
    (fun thetas ->
       let prob = problem ~budget:5 thetas in
       let label =
         "{" ^ String.concat "," (List.map string_of_int thetas) ^ "}"
       in
       Alcotest.(check bool)
         (label ^ ": analytic = smt") true
         (solve_analytic prob = solve_smt prob))
    [ [ 4; 2 ]; [ 4 ]; [ 2 ]; [ 180; 60; 3 ] ]

let prop_solution_satisfies_constraints =
  let open QCheck2.Gen in
  let gen =
    pair (list_size (int_range 1 5) (int_range 1 60)) (int_range 0 12)
  in
  QCheck2.Test.make ~count:100 ~name:"solutions satisfy the constraint system"
    gen
    (fun (thetas, budget) ->
       let prob = problem ~budget thetas in
       let s = solve_analytic prob in
       s.divisor >= 1
       && List.for_all
            (fun r ->
               r.theta = (r.theta' * s.divisor) + r.delta
               && r.delta > -s.divisor && r.delta < s.divisor
               && r.theta' >= 1)
            s.rewrites
       && List.fold_left (fun acc r -> acc + abs r.delta) 0 s.rewrites
          <= prob.budget)

let test_apply () =
  let formula = parse "G (!a -> X X X stop) && G (b -> X X X X X X go)" in
  let solution =
    solve_analytic (problem ~budget:0 [ 3; 6 ])
  in
  Alcotest.check ltl "chains divided by 3"
    (parse "G (!a -> X stop) && G (b -> X X go)")
    (apply solution formula)

let test_apply_leaves_unknown_chains () =
  let solution = gcd_solution [ 4 ] in
  let formula = parse "X X X p" in
  Alcotest.check ltl "chain of 3 untouched" (parse "X X X p")
    (apply solution formula)

(* GCD soundness (the paper's claim): realizability is preserved by
   the reduction.  Checked on small specifications with the exact
   engine. *)
let test_gcd_preserves_realizability () =
  let check_pair original reduced =
    let verdict spec =
      match
        Bounded.solve ~inputs:[ "i" ] ~outputs:[ "o" ] [ parse spec ]
      with
      | Bounded.Realizable _ -> `Yes
      | Bounded.Unrealizable _ -> `No
      | Bounded.Unknown _ -> `Maybe
    in
    let v1 = verdict original and v2 = verdict reduced in
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %s" original reduced)
      true
      (v1 = v2)
  in
  check_pair "G (i -> X X o)" "G (i -> X o)";
  check_pair "G (o <-> X X i)" "G (o <-> X i)";
  check_pair "G (i -> X X X X o) && G (!i -> X X !o)"
    "G (i -> X X o) && G (!i -> X !o)"

let () =
  Alcotest.run "timeabs"
    [
      ( "extraction",
        [ Alcotest.test_case "thetas" `Quick test_thetas_extraction ] );
      ( "gcd",
        [
          Alcotest.test_case "paper example" `Quick test_gcd_example;
          Alcotest.test_case "budget 0 ~ gcd" `Quick
            test_budget_zero_falls_back_to_gcd;
          Alcotest.test_case "realizability preserved" `Slow
            test_gcd_preserves_realizability;
        ] );
      ( "optimization",
        [
          Alcotest.test_case "paper optimum (analytic)" `Quick
            test_paper_example_analytic;
          Alcotest.test_case "paper optimum (smt)" `Quick
            test_paper_example_smt;
          Alcotest.test_case "default refuses collapse (analytic)" `Quick
            test_default_refuses_collapse_analytic;
          Alcotest.test_case "default refuses collapse (smt)" `Quick
            test_default_refuses_collapse_smt;
          Alcotest.test_case "budget >= theta regression" `Quick
            test_budget_at_least_theta_no_collapse;
          Alcotest.test_case "duplicate theta domain merge" `Quick
            test_duplicate_theta_merges_to_most_restrictive;
          Alcotest.test_case "conflicting sign domains" `Quick
            test_conflicting_sign_domains_merge_to_exact;
          Alcotest.test_case "exact domain" `Quick test_exact_domain;
          Alcotest.test_case "nonpositive domain" `Quick
            test_nonpositive_domain;
          QCheck_alcotest.to_alcotest prop_solvers_agree;
          QCheck_alcotest.to_alcotest prop_solvers_agree_on_whole_solutions;
          Alcotest.test_case "corpus Θ: whole solutions agree" `Quick
            test_corpus_thetas_agree;
          QCheck_alcotest.to_alcotest prop_solution_satisfies_constraints;
        ] );
      ( "apply",
        [
          Alcotest.test_case "rewrite" `Quick test_apply;
          Alcotest.test_case "unknown chains" `Quick
            test_apply_leaves_unknown_chains;
        ] );
    ]
