(* Tests for the CDCL SAT solver: hand-written instances, classic
   families (pigeonhole), and a property test comparing against brute
   force on random small CNFs. *)

open Speccc_sat

let check_sat outcome = match outcome with Sat.Sat _ -> true | Sat.Unsat -> false

let model_satisfies clauses model =
  List.for_all
    (fun clause ->
       List.exists
         (fun lit ->
            let v = model.(abs lit) in
            if lit > 0 then v else not v)
         clause)
    clauses

let solve_and_check clauses =
  match Sat.solve_clauses clauses with
  | Sat.Unsat -> false
  | Sat.Sat model ->
    Alcotest.(check bool) "model satisfies clauses" true
      (model_satisfies clauses model);
    true

let test_trivial () =
  Alcotest.(check bool) "empty problem is sat" true (solve_and_check []);
  Alcotest.(check bool) "single unit" true (solve_and_check [ [ 1 ] ]);
  Alcotest.(check bool) "conflicting units" false
    (check_sat (Sat.solve_clauses [ [ 1 ]; [ -1 ] ]));
  Alcotest.(check bool) "empty clause" false
    (check_sat (Sat.solve_clauses [ [] ]))

let test_propagation_chain () =
  (* 1 -> 2 -> 3 -> ... -> 20, with 1 forced. *)
  let chain =
    List.init 19 (fun i -> [ -(i + 1); i + 2 ]) @ [ [ 1 ] ]
  in
  (match Sat.solve_clauses chain with
   | Sat.Unsat -> Alcotest.fail "chain should be sat"
   | Sat.Sat model ->
     for v = 1 to 20 do
       Alcotest.(check bool) (Printf.sprintf "var %d forced true" v) true
         model.(v)
     done);
  Alcotest.(check bool) "chain + final negation unsat" false
    (check_sat (Sat.solve_clauses ([ [ -20 ] ] @ chain)))

let test_simple_3sat () =
  let clauses = [ [ 1; 2; 3 ]; [ -1; -2 ]; [ -1; -3 ]; [ -2; -3 ]; [ -1 ] ] in
  Alcotest.(check bool) "exactly-one with neg" true (solve_and_check clauses)

(* Pigeonhole: n+1 pigeons into n holes, unsatisfiable.  Variable
   p(i,j) = pigeon i in hole j. *)
let pigeonhole n =
  let var i j = (i * n) + j + 1 in
  let pigeon_clauses =
    List.init (n + 1) (fun i -> List.init n (fun j -> var i j))
  in
  let hole_clauses =
    List.concat_map
      (fun j ->
         List.concat_map
           (fun i ->
              List.filter_map
                (fun i' ->
                   if i' > i then Some [ -(var i j); -(var i' j) ] else None)
                (List.init (n + 1) Fun.id))
           (List.init (n + 1) Fun.id))
      (List.init n Fun.id)
  in
  pigeon_clauses @ hole_clauses

let test_pigeonhole () =
  List.iter
    (fun n ->
       Alcotest.(check bool)
         (Printf.sprintf "PHP(%d) unsat" n)
         false
         (check_sat (Sat.solve_clauses (pigeonhole n))))
    [ 2; 3; 4; 5 ]

let test_assumptions () =
  let solver = Sat.create () in
  Sat.add_clause solver [ -1; 2 ];
  Sat.add_clause solver [ -2; 3 ];
  (match Sat.solve ~assumptions:[ 1 ] solver with
   | Sat.Unsat -> Alcotest.fail "sat under assumption 1"
   | Sat.Sat model ->
     Alcotest.(check bool) "2 propagated" true model.(2);
     Alcotest.(check bool) "3 propagated" true model.(3));
  Sat.add_clause solver [ -3 ];
  (match Sat.solve ~assumptions:[ 1 ] solver with
   | Sat.Unsat -> ()
   | Sat.Sat _ -> Alcotest.fail "unsat under assumption 1 after adding -3");
  (* Still satisfiable without the assumption. *)
  (match Sat.solve solver with
   | Sat.Unsat -> Alcotest.fail "sat without assumptions"
   | Sat.Sat model ->
     Alcotest.(check bool) "1 must be false" false model.(1))

let test_incremental () =
  let solver = Sat.create () in
  Sat.add_clause solver [ 1; 2 ];
  Alcotest.(check bool) "first solve sat" true (check_sat (Sat.solve solver));
  Sat.add_clause solver [ -1 ];
  (match Sat.solve solver with
   | Sat.Unsat -> Alcotest.fail "still sat"
   | Sat.Sat model -> Alcotest.(check bool) "2 true" true model.(2));
  Sat.add_clause solver [ -2 ];
  Alcotest.(check bool) "now unsat" false (check_sat (Sat.solve solver))

(* Brute-force reference. *)
let brute_force nvars clauses =
  let rec try_assignment assignment v =
    if v > nvars then
      List.for_all
        (fun clause ->
           List.exists
             (fun lit ->
                let value = assignment.(abs lit) in
                if lit > 0 then value else not value)
             clause)
        clauses
    else begin
      assignment.(v) <- true;
      try_assignment assignment (v + 1)
      ||
      (assignment.(v) <- false;
       try_assignment assignment (v + 1))
    end
  in
  try_assignment (Array.make (nvars + 1) false) 1

let random_cnf_gen =
  let open QCheck2.Gen in
  let nvars = 6 in
  let literal = map (fun (v, sign) -> if sign then v else -v)
      (pair (int_range 1 nvars) bool) in
  let clause = list_size (int_range 1 4) literal in
  list_size (int_range 1 24) clause

let prop_matches_brute_force =
  QCheck2.Test.make ~count:300 ~name:"solver agrees with brute force"
    random_cnf_gen (fun clauses ->
        let verdict = check_sat (Sat.solve_clauses clauses) in
        let expected = brute_force 6 clauses in
        verdict = expected)

let prop_models_are_models =
  QCheck2.Test.make ~count:300 ~name:"returned models satisfy the CNF"
    random_cnf_gen (fun clauses ->
        match Sat.solve_clauses clauses with
        | Sat.Unsat -> true
        | Sat.Sat model -> model_satisfies clauses model)

let test_tseitin_basic () =
  let sat = Sat.create () in
  let t = Tseitin.create sat in
  let a = Tseitin.fresh t and b = Tseitin.fresh t in
  let both = Tseitin.mk_and t [ a; b ] in
  Tseitin.assert_lit t both;
  (match Sat.solve sat with
   | Sat.Unsat -> Alcotest.fail "a && b sat"
   | Sat.Sat model ->
     Alcotest.(check bool) "a true" true (Tseitin.lit_value model a);
     Alcotest.(check bool) "b true" true (Tseitin.lit_value model b));
  let t2sat = Sat.create () in
  let t2 = Tseitin.create t2sat in
  let x = Tseitin.fresh t2 in
  let contradiction = Tseitin.mk_and t2 [ x; Tseitin.mk_not x ] in
  Alcotest.(check bool) "x && !x folds to false" true
    (contradiction = Tseitin.false_lit t2)

let test_tseitin_xor_ite () =
  let sat = Sat.create () in
  let t = Tseitin.create sat in
  let a = Tseitin.fresh t and b = Tseitin.fresh t and c = Tseitin.fresh t in
  (* ite(c, a, b) xor (c && a || !c && b) is always false. *)
  let ite = Tseitin.mk_ite t c a b in
  let manual =
    Tseitin.mk_or t
      [ Tseitin.mk_and t [ c; a ]; Tseitin.mk_and t [ Tseitin.mk_not c; b ] ]
  in
  let diff = Tseitin.mk_xor t ite manual in
  Tseitin.assert_lit t diff;
  Alcotest.(check bool) "ite equals its definition" false
    (check_sat (Sat.solve sat))

let () =
  Alcotest.run "sat"
    [
      ( "basic",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "propagation chain" `Quick test_propagation_chain;
          Alcotest.test_case "simple 3sat" `Quick test_simple_3sat;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
        ] );
      ( "tseitin",
        [
          Alcotest.test_case "and/not folding" `Quick test_tseitin_basic;
          Alcotest.test_case "xor/ite" `Quick test_tseitin_xor_ite;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_models_are_models;
        ] );
    ]
