(* Tests for the LTL lint pass (satisfiability, validity, equivalence,
   pair conflicts, vacuity) and the underlying automaton emptiness /
   witness machinery. *)

open Speccc_logic
open Speccc_automata
open Speccc_lint.Lint

let parse = Ltl_parse.formula

(* --- emptiness / witnesses --- *)

let test_find_word_basic () =
  (match Nbw.find_word (Nbw.of_ltl (parse "a && X (!a)")) with
   | None -> Alcotest.fail "satisfiable"
   | Some word ->
     Alcotest.(check bool) "witness is a model" true
       (Trace.holds word (parse "a && X (!a)")));
  Alcotest.(check bool) "contradiction empty" true
    (Nbw.is_empty (Nbw.of_ltl (parse "a && !a")));
  Alcotest.(check bool) "G a && F !a empty" true
    (Nbw.is_empty (Nbw.of_ltl (parse "G a && F (!a)")))

let formula_gen =
  let open QCheck2.Gen in
  let prop_names = [ "a"; "b"; "c" ] in
  int_range 0 8 >>= fix (fun self size ->
      if size <= 1 then
        oneof [ return Ltl.True; return Ltl.False;
                map Ltl.prop (oneofl prop_names) ]
      else
        let sub = self (size / 2) in
        oneof
          [
            map Ltl.prop (oneofl prop_names);
            map (fun f -> Ltl.Not f) sub;
            map2 (fun f g -> Ltl.And (f, g)) sub sub;
            map2 (fun f g -> Ltl.Or (f, g)) sub sub;
            map (fun f -> Ltl.Next f) sub;
            map (fun f -> Ltl.Eventually f) sub;
            map (fun f -> Ltl.Always f) sub;
            map2 (fun f g -> Ltl.Until (f, g)) sub sub;
          ])

let prop_witnesses_are_models =
  QCheck2.Test.make ~count:300
    ~name:"find_word returns models; None only for unsatisfiable"
    formula_gen
    (fun f ->
       match Nbw.find_word (Nbw.of_ltl f) with
       | Some word -> Trace.holds word f
       | None ->
         (* cross-check: the negation must then be valid *)
         (match Nbw.find_word (Nbw.of_ltl (Ltl.neg f)) with
          | Some _ -> true
          | None -> false (* f and ¬f both empty is impossible *)))

(* --- lint primitives --- *)

let test_satisfiable_valid_equivalent () =
  Alcotest.(check bool) "sat" true (satisfiable (parse "F a") <> None);
  Alcotest.(check bool) "unsat" true
    (satisfiable (parse "G a && F (!a)") = None);
  Alcotest.(check bool) "valid" true (valid (parse "a || !a"));
  Alcotest.(check bool) "not valid" false (valid (parse "F a"));
  Alcotest.(check bool) "U/W difference" false
    (equivalent (parse "a U b") (parse "a W b"));
  Alcotest.(check bool) "W expansion" true
    (equivalent (parse "a W b") (parse "(a U b) || G a"));
  Alcotest.(check bool) "F distributes over ||" true
    (equivalent (parse "F (a || b)") (parse "F a || F b"))

(* --- whole-spec checks --- *)

let test_check_unsatisfiable () =
  let findings = check [ parse "G (a && !a && b)" ] in
  Alcotest.(check bool) "unsat flagged" true
    (List.exists (function Unsatisfiable 0 -> true | _ -> false) findings)

let test_check_tautology () =
  let findings = check [ parse "G (a -> a)" ] in
  Alcotest.(check bool) "tautology flagged" true
    (List.exists (function Valid 0 -> true | _ -> false) findings)

let test_check_pair_conflict () =
  let findings =
    check [ parse "G a"; parse "G (b -> b)"; parse "F (!a)" ]
  in
  (match
     List.find_opt
       (function Pair_conflict _ -> true | _ -> false)
       findings
   with
   | Some (Pair_conflict (0, 2, witness)) ->
     Alcotest.(check bool) "witness satisfies the first member" true
       (Trace.holds witness (parse "G a"))
   | Some _ | None -> Alcotest.fail "conflict between 0 and 2 expected")

let test_check_vacuous_guard () =
  (* the guard "a && !a" can never fire *)
  let findings =
    check [ parse "G (b -> c)"; parse "G ((a && !a) -> d)" ]
  in
  Alcotest.(check bool) "vacuous guard flagged" true
    (List.exists (function Vacuous_guard 1 -> true | _ -> false) findings);
  (* requirement 0's guard does fire *)
  Alcotest.(check bool) "live guard not flagged" false
    (List.exists (function Vacuous_guard 0 -> true | _ -> false) findings)

let test_check_clean_spec () =
  let config = Speccc_translate.Translate.default_config () in
  let result =
    Speccc_translate.Translate.specification config
      [
        "If the pump is available, the alarm is disabled.";
        "If the pump is lost, the alarm is enabled.";
        "When the pump is available, eventually corroboration is \
         triggered.";
      ]
  in
  let formulas =
    List.map
      (fun r -> r.Speccc_translate.Translate.formula)
      result.Speccc_translate.Translate.requirements
  in
  Alcotest.(check (list int)) "no findings" []
    (List.map (fun _ -> 0) (check formulas))

(* The conflict-only pass is the first conflict of the full pass,
   witness included. *)
let prop_first_conflict_of_check =
  QCheck2.Test.make ~count:200
    ~name:"first_conflict = first conflict finding of check"
    QCheck2.Gen.(list_size (int_range 0 5) formula_gen)
    (fun formulas ->
       let first =
         List.find_opt
           (function
             | Unsatisfiable _ | Pair_conflict _ -> true
             | Valid _ | Vacuous_guard _ -> false)
           (check formulas)
       in
       first_conflict formulas = first)

(* CARA:3.1's nine requirements make a vacuity context whose tableau
   does not fit the context reserve: the guards are read on their own,
   so the pass ends, with no findings. *)
let test_vacuity_context_reserve () =
  let cara_3_1 =
    List.find (fun c -> c.Speccc_casestudies.Cara.row = "3.1")
      Speccc_casestudies.Cara.components
  in
  let outcome =
    Speccc_core.Pipeline.run
      (Speccc_casestudies.Cara.component_sentences cara_3_1)
  in
  let formulas = outcome.Speccc_core.Pipeline.formulas in
  Alcotest.(check bool) "the whole specification exceeds the reserve" true
    (match
       satisfiable
         ~budget:(Speccc_runtime.Budget.create ~fuel:context_reserve_fuel ())
         (Ltl.conj_list formulas)
     with
     | _ -> false
     | exception Speccc_runtime.Runtime.Interrupt _ -> true);
  Alcotest.(check int) "no findings" 0 (List.length (check formulas))

let test_pp_finding () =
  let rendered =
    Format.asprintf "%a"
      (pp_finding ~requirement_text:(fun i ->
           if i = 0 then Some "Req-08" else None))
      (Unsatisfiable 0)
  in
  Alcotest.(check bool) "mentions the requirement id" true
    (let rec contains i =
       i + 6 <= String.length rendered
       && (String.sub rendered i 6 = "Req-08" || contains (i + 1))
     in
     contains 0)

let () =
  Alcotest.run "lint"
    [
      ( "emptiness",
        [
          Alcotest.test_case "find_word" `Quick test_find_word_basic;
          QCheck_alcotest.to_alcotest prop_witnesses_are_models;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "sat/valid/equivalent" `Quick
            test_satisfiable_valid_equivalent;
        ] );
      ( "check",
        [
          Alcotest.test_case "unsatisfiable" `Quick test_check_unsatisfiable;
          Alcotest.test_case "tautology" `Quick test_check_tautology;
          Alcotest.test_case "pair conflict" `Quick test_check_pair_conflict;
          Alcotest.test_case "vacuous guard" `Quick test_check_vacuous_guard;
          Alcotest.test_case "clean specification" `Quick
            test_check_clean_spec;
          Alcotest.test_case "rendering" `Quick test_pp_finding;
          QCheck_alcotest.to_alcotest prop_first_conflict_of_check;
          Alcotest.test_case "vacuity context on a reserve" `Quick
            test_vacuity_context_reserve;
        ] );
    ]
