(* Tests for the LTL → Büchi construction: hand-checked automata plus
   the key property test — automaton membership on random lasso words
   agrees with the exact trace semantics. *)

open Speccc_logic
open Speccc_automata

let parse = Ltl_parse.formula

let prop_names = [ "a"; "b"; "c" ]

(* Formula size is capped: the tableau is exponential in the worst
   case, and the membership check multiplies automaton size by lasso
   length. *)
let formula_gen =
  let open QCheck2.Gen in
  int_range 0 10 >>= fix (fun self size ->
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
            map2 (fun f g -> Ltl.Weak_until (f, g)) sub sub;
            map2 (fun f g -> Ltl.Release (f, g)) sub sub;
          ])

let letter_gen =
  let open QCheck2.Gen in
  flatten_l (List.map (fun name -> map (fun b -> (name, b)) bool) prop_names)

let trace_gen =
  let open QCheck2.Gen in
  map2
    (fun prefix loop -> Trace.make ~prefix ~loop)
    (list_size (int_range 0 3) letter_gen)
    (list_size (int_range 1 3) letter_gen)

let letter trues = List.map (fun p -> (p, List.mem p trues)) prop_names

let accepts f word = Nbw.accepts_lasso (Nbw.of_ltl f) word

let test_atomic () =
  let wa = Trace.constant (letter [ "a" ]) in
  let wb = Trace.constant (letter [ "b" ]) in
  Alcotest.(check bool) "a accepts a^w" true (accepts (parse "a") wa);
  Alcotest.(check bool) "a rejects b^w" false (accepts (parse "a") wb);
  Alcotest.(check bool) "true accepts" true (accepts Ltl.tt wa);
  Alcotest.(check bool) "false rejects" false (accepts Ltl.ff wa)

let test_temporal () =
  let w =
    Trace.make ~prefix:[ letter [ "a" ]; letter [ "a" ] ]
      ~loop:[ letter [ "b" ] ]
  in
  Alcotest.(check bool) "a U b" true (accepts (parse "a U b") w);
  Alcotest.(check bool) "G a fails" false (accepts (parse "G a") w);
  Alcotest.(check bool) "F G b" true (accepts (parse "F G b") w);
  Alcotest.(check bool) "G F b" true (accepts (parse "G F b") w);
  Alcotest.(check bool) "X X G b" true (accepts (parse "X X G b") w);
  Alcotest.(check bool) "X G b fails" false (accepts (parse "X G b") w)

let test_liveness_automaton () =
  (* G F a on a word alternating a / not-a is accepted; on eventually
     never-a it is rejected. *)
  let alternating =
    Trace.make ~prefix:[] ~loop:[ letter [ "a" ]; letter [] ]
  in
  let dies =
    Trace.make ~prefix:[ letter [ "a" ] ] ~loop:[ letter [] ]
  in
  Alcotest.(check bool) "GFa on (a;-)^w" true
    (accepts (parse "G F a") alternating);
  Alcotest.(check bool) "GFa on a(-)^w" false (accepts (parse "G F a") dies)

let test_sizes_reasonable () =
  let auto = Nbw.of_ltl (parse "G (a -> F b)") in
  Alcotest.(check bool) "nontrivial automaton" true (auto.Nbw.num_states > 1);
  Alcotest.(check bool) "has accepting states" true
    (Array.exists Fun.id auto.Nbw.accepting)

let prop_membership_matches_semantics =
  QCheck2.Test.make ~count:400
    ~name:"NBW membership = trace semantics"
    QCheck2.Gen.(pair formula_gen trace_gen)
    (fun (f, w) -> accepts f w = Trace.holds w f)

let prop_negation_partitions =
  QCheck2.Test.make ~count:200
    ~name:"exactly one of A(f), A(!f) accepts each lasso"
    QCheck2.Gen.(pair formula_gen trace_gen)
    (fun (f, w) -> accepts f w <> accepts (Ltl.Not f) w)

(* --- template-compiled automata --- *)

(* Shapes the pattern catalogue recognizes, with small propositional
   parameters: every generated formula must take the template path. *)
let template_formula_gen =
  let open QCheck2.Gen in
  let atom = map Ltl.prop (oneofl prop_names) in
  let state_formula =
    oneof
      [
        atom;
        map (fun f -> Ltl.Not f) atom;
        map2 (fun f g -> Ltl.And (f, g)) atom atom;
        map2 (fun f g -> Ltl.Or (f, g)) atom atom;
      ]
  in
  oneof
    [
      map (fun p -> Ltl.Always (Ltl.Not p)) state_formula;
      map (fun p -> Ltl.Always p) state_formula;
      map (fun p -> Ltl.Eventually p) state_formula;
      map2
        (fun g r -> Ltl.Always (Ltl.Implies (g, Ltl.Eventually r)))
        state_formula state_formula;
      map2 (fun p s -> Ltl.Weak_until (Ltl.Not p, s)) state_formula
        state_formula;
    ]

let prop_template_matches_tableau =
  QCheck2.Test.make ~count:150
    ~name:"template-compiled automata accept the same lassos as the tableau"
    QCheck2.Gen.(pair template_formula_gen (list_size (int_range 1 4) trace_gen))
    (fun (f, words) ->
       if Template.abstract f = None then
         QCheck2.Test.fail_report "generator produced a non-template shape";
       let templated = Nbw.of_ltl f in
       (* an armed (here: empty) fault plan bypasses both caches and
          runs the tableau *)
       let tableau =
         Speccc_runtime.Fault.install [];
         Fun.protect ~finally:Speccc_runtime.Fault.clear (fun () ->
             Nbw.of_ltl f)
       in
       List.for_all
         (fun w ->
            Nbw.accepts_lasso templated w = Nbw.accepts_lasso tableau w)
         words)

let test_template_sharing () =
  let hits () =
    match
      List.find_opt
        (fun s -> s.Speccc_cache.Cache.name = "nbw.template")
        (Speccc_cache.Cache.stats ())
    with
    | Some s -> s.Speccc_cache.Cache.hits
    | None -> 0
  in
  let first = Nbw.of_ltl (parse "G (tpl_p -> F tpl_q)") in
  let before = hits () in
  let second = Nbw.of_ltl (parse "G (tpl_r -> F tpl_s)") in
  Alcotest.(check bool) "second instance served from the compiled shape" true
    (hits () > before);
  Alcotest.(check int) "instances share the shape's state count"
    first.Nbw.num_states second.Nbw.num_states;
  Alcotest.(check (slist string compare)) "atoms substituted"
    [ "tpl_r"; "tpl_s" ] second.Nbw.atoms

let () =
  Alcotest.run "automata"
    [
      ( "nbw",
        [
          Alcotest.test_case "atomic" `Quick test_atomic;
          Alcotest.test_case "temporal" `Quick test_temporal;
          Alcotest.test_case "liveness" `Quick test_liveness_automaton;
          Alcotest.test_case "sizes" `Quick test_sizes_reasonable;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_membership_matches_semantics;
          QCheck_alcotest.to_alcotest prop_negation_partitions;
        ] );
      ( "template",
        [
          QCheck_alcotest.to_alcotest prop_template_matches_tableau;
          Alcotest.test_case "sharing" `Quick test_template_sharing;
        ] );
    ]
