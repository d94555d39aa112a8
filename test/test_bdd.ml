(* Tests for the BDD package: hand-written diagrams and property tests
   against a truth-table reference on random boolean expressions. *)

open Speccc_bdd

type expr =
  | Evar of int
  | Enot of expr
  | Eand of expr * expr
  | Eor of expr * expr
  | Exor of expr * expr

let nvars = 5

let expr_gen_over nvars =
  let open QCheck2.Gen in
  sized @@ fix (fun self size ->
      if size <= 1 then map (fun v -> Evar v) (int_range 0 (nvars - 1))
      else
        let sub = self (size / 2) in
        oneof
          [
            map (fun v -> Evar v) (int_range 0 (nvars - 1));
            map (fun e -> Enot e) sub;
            map2 (fun a b -> Eand (a, b)) sub sub;
            map2 (fun a b -> Eor (a, b)) sub sub;
            map2 (fun a b -> Exor (a, b)) sub sub;
          ])

let expr_gen = expr_gen_over nvars

let rec eval_expr assignment = function
  | Evar v -> assignment v
  | Enot e -> not (eval_expr assignment e)
  | Eand (a, b) -> eval_expr assignment a && eval_expr assignment b
  | Eor (a, b) -> eval_expr assignment a || eval_expr assignment b
  | Exor (a, b) -> eval_expr assignment a <> eval_expr assignment b

let rec build m = function
  | Evar v -> Bdd.var m v
  | Enot e -> Bdd.not_ m (build m e)
  | Eand (a, b) -> Bdd.and_ m (build m a) (build m b)
  | Eor (a, b) -> Bdd.or_ m (build m a) (build m b)
  | Exor (a, b) -> Bdd.xor m (build m a) (build m b)

let all_assignments n =
  List.init (1 lsl n) (fun bits -> fun v -> bits land (1 lsl v) <> 0)

let test_constants () =
  let m = Bdd.manager () in
  Alcotest.(check bool) "zero" true (Bdd.is_zero (Bdd.zero m));
  Alcotest.(check bool) "one" true (Bdd.is_one (Bdd.one m));
  Alcotest.(check bool) "x && !x = 0" true
    (Bdd.is_zero (Bdd.and_ m (Bdd.var m 0) (Bdd.nvar m 0)));
  Alcotest.(check bool) "x || !x = 1" true
    (Bdd.is_one (Bdd.or_ m (Bdd.var m 0) (Bdd.nvar m 0)))

let test_hash_consing () =
  let m = Bdd.manager () in
  let f1 = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  let f2 = Bdd.and_ m (Bdd.var m 1) (Bdd.var m 0) in
  Alcotest.(check bool) "commuted and is physically equal" true
    (Bdd.equal f1 f2);
  let g1 = Bdd.or_ m (Bdd.nvar m 0) (Bdd.nvar m 1) in
  Alcotest.(check bool) "De Morgan" true
    (Bdd.equal (Bdd.not_ m f1) g1)

let test_quantification () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.and_ m x y in
  Alcotest.(check bool) "exists x. x && y = y" true
    (Bdd.equal (Bdd.exists m [ 0 ] f) y);
  Alcotest.(check bool) "forall x. x && y = 0" true
    (Bdd.is_zero (Bdd.forall m [ 0 ] f));
  let g = Bdd.or_ m x y in
  Alcotest.(check bool) "forall x. x || y = y" true
    (Bdd.equal (Bdd.forall m [ 0 ] g) y);
  Alcotest.(check bool) "exists both vars" true
    (Bdd.is_one (Bdd.exists m [ 0; 1 ] f))

let test_restrict_compose_rename () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let f = Bdd.xor m x y in
  Alcotest.(check bool) "restrict x=1 gives !y" true
    (Bdd.equal (Bdd.restrict m [ (0, true) ] f) (Bdd.not_ m y));
  Alcotest.(check bool) "compose y:=z in x^y" true
    (Bdd.equal (Bdd.compose m 1 z f) (Bdd.xor m x z));
  Alcotest.(check bool) "rename x->z" true
    (Bdd.equal (Bdd.rename m [ (0, 2) ] f) (Bdd.xor m z y));
  (* Swap via rename with collisions. *)
  let swapped = Bdd.rename m [ (0, 1); (1, 0) ] (Bdd.and_ m x (Bdd.not_ m y)) in
  Alcotest.(check bool) "swap rename" true
    (Bdd.equal swapped (Bdd.and_ m y (Bdd.not_ m x)))

let test_rename_monotone () =
  let m = Bdd.manager () in
  let f =
    Bdd.and_ m
      (Bdd.xor m (Bdd.var m 0) (Bdd.var m 2))
      (Bdd.or_ m (Bdd.var m 4) (Bdd.nvar m 0))
  in
  (* shift every even variable up by one (interleaved current/next) *)
  let mapping = [ (0, 1); (2, 3); (4, 5) ] in
  let fast = Bdd.rename_monotone m mapping f in
  let slow = Bdd.rename m mapping f in
  Alcotest.(check bool) "monotone rename agrees with compose-rename" true
    (Bdd.equal fast slow);
  Alcotest.(check (list int)) "support shifted" [ 1; 3; 5 ]
    (Bdd.support m fast);
  (* a non-monotone mapping is rejected *)
  (match Bdd.rename_monotone m [ (0, 5); (2, 3) ] f with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "non-monotone mapping must be rejected")

let prop_rename_monotone_matches_rename =
  QCheck2.Test.make ~count:200
    ~name:"monotone rename = general rename on shift-by-one maps"
    expr_gen
    (fun e ->
       let m = Bdd.manager () in
       (* express e over even variables only, then shift to odd *)
       let d =
         let rec build_even = function
           | Evar v -> Bdd.var m (2 * v)
           | Enot x -> Bdd.not_ m (build_even x)
           | Eand (a, b) -> Bdd.and_ m (build_even a) (build_even b)
           | Eor (a, b) -> Bdd.or_ m (build_even a) (build_even b)
           | Exor (a, b) -> Bdd.xor m (build_even a) (build_even b)
         in
         build_even e
       in
       let mapping = List.init nvars (fun v -> (2 * v, (2 * v) + 1)) in
       Bdd.equal (Bdd.rename_monotone m mapping d) (Bdd.rename m mapping d))

let test_support_satcount () =
  let m = Bdd.manager () in
  let f = Bdd.or_ m (Bdd.var m 0) (Bdd.var m 3) in
  Alcotest.(check (list int)) "support" [ 0; 3 ] (Bdd.support m f);
  Alcotest.(check (float 0.0)) "sat_count over 4 vars" 12.0
    (Bdd.sat_count m f ~nvars:4);
  Alcotest.(check (float 0.0)) "one over 3 vars" 8.0
    (Bdd.sat_count m (Bdd.one m) ~nvars:3);
  Alcotest.(check (float 0.0)) "zero" 0.0 (Bdd.sat_count m (Bdd.zero m) ~nvars:3)

let test_any_sat () =
  let m = Bdd.manager () in
  let f = Bdd.and_ m (Bdd.var m 1) (Bdd.nvar m 2) in
  (match Bdd.any_sat f with
   | None -> Alcotest.fail "satisfiable"
   | Some assignment ->
     Alcotest.(check bool) "assignment satisfies" true
       (Bdd.eval f (fun v ->
            match List.assoc_opt v assignment with
            | Some b -> b
            | None -> false)));
  Alcotest.(check bool) "zero has no model" true
    (Bdd.any_sat (Bdd.zero m) = None)

let prop_matches_truth_table =
  QCheck2.Test.make ~count:400 ~name:"BDD agrees with evaluation" expr_gen
    (fun e ->
       let m = Bdd.manager () in
       let d = build m e in
       List.for_all
         (fun assignment -> Bdd.eval d assignment = eval_expr assignment e)
         (all_assignments nvars))

let prop_satcount_matches =
  QCheck2.Test.make ~count:200 ~name:"sat_count agrees with enumeration"
    expr_gen (fun e ->
        let m = Bdd.manager () in
        let d = build m e in
        let expected =
          List.length
            (List.filter (fun a -> eval_expr a e) (all_assignments nvars))
        in
        int_of_float (Bdd.sat_count m d ~nvars) = expected)

let prop_exists_is_disjunction =
  QCheck2.Test.make ~count:200 ~name:"exists v. f = f[v:=0] || f[v:=1]"
    QCheck2.Gen.(pair expr_gen (int_range 0 (nvars - 1)))
    (fun (e, v) ->
       let m = Bdd.manager () in
       let d = build m e in
       let quantified = Bdd.exists m [ v ] d in
       let manual =
         Bdd.or_ m
           (Bdd.restrict m [ (v, false) ] d)
           (Bdd.restrict m [ (v, true) ] d)
       in
       Bdd.equal quantified manual)

let prop_canonical =
  QCheck2.Test.make ~count:200
    ~name:"semantically equal expressions share a node"
    QCheck2.Gen.(pair expr_gen expr_gen)
    (fun (e1, e2) ->
       let m = Bdd.manager () in
       let d1 = build m e1 and d2 = build m e2 in
       let semantically_equal =
         List.for_all
           (fun a -> eval_expr a e1 = eval_expr a e2)
           (all_assignments nvars)
       in
       Bdd.equal d1 d2 = semantically_equal)


(* The relational product against its two-step definition, in the same
   manager (so equality is node identity).  Operands range over 8
   variables; the quantified set draws from 0..9, so it may be empty
   or name variables outside both supports; half the cases run on a
   manager that has just been reordered, where levels and indices
   disagree.  Two variable sets run on the same operands, each asked
   once per operand order, so answers come from the computed table and
   must not leak from one set to the other. *)
let prop_and_exists_is_exists_of_and =
  let vars = QCheck2.Gen.(list_size (int_range 0 4) (int_range 0 9)) in
  QCheck2.Test.make ~count:400 ~name:"and_exists vs f g = exists vs (f && g)"
    QCheck2.Gen.(
      quad (expr_gen_over 8) (expr_gen_over 8)
        (pair vars vars) bool)
    (fun (e1, e2, (vs1, vs2), reordered) ->
       let m = Bdd.manager () in
       let f = build m e1 and g = build m e2 in
       let f, g =
         if reordered then
           match Bdd.reorder m [ f; g ] with
           | [ f; g ] -> (f, g)
           | _ -> assert false
         else (f, g)
       in
       List.for_all
         (fun vs ->
            let expected = Bdd.exists m vs (Bdd.and_ m f g) in
            Bdd.equal (Bdd.and_exists m vs f g) expected
            && Bdd.equal (Bdd.and_exists m vs g f) expected)
         [ vs1; vs2 ])

(* Reordering drill: sifting must preserve semantics exactly, and the
   rebuilt manager must stay canonical — rebuilding the same function
   after the reorder has to produce the translated root itself. *)
let prop_reorder_preserves_semantics =
  QCheck2.Test.make ~count:200 ~name:"reorder preserves semantics"
    QCheck2.Gen.(pair expr_gen expr_gen)
    (fun (e1, e2) ->
       let m = Bdd.manager () in
       let d1 = build m e1 and d2 = build m e2 in
       match Bdd.reorder m ~groups:[ [ 1; 2 ] ] [ d1; d2 ] with
       | [ r1; r2 ] ->
         List.for_all
           (fun a ->
              Bdd.eval r1 a = eval_expr a e1
              && Bdd.eval r2 a = eval_expr a e2)
           (all_assignments nvars)
         && Bdd.equal (build m e1) r1
         && Bdd.equal (build m e2) r2
       | _ -> false)

let test_reorder_pinned_and_counters () =
  let m = Bdd.manager () in
  Bdd.set_reorder_threshold m (Some 1);
  (* A function whose optimal order differs from the identity order:
     pairwise comparisons x_i <-> y_i built with all x's above all
     y's. *)
  let n = 6 in
  let f =
    let parts =
      List.init n (fun i -> Bdd.eqv m (Bdd.var m i) (Bdd.var m (n + i)))
    in
    Bdd.and_list m parts
  in
  let before = Bdd.size f in
  Alcotest.(check bool) "trigger due" true (Bdd.reorder_due m);
  (match Bdd.reorder m ~pinned:1 [ f ] with
   | [ f' ] ->
     Alcotest.(check bool) "variable 0 stays root-most" true
       (match Bdd.top_var f' with Some 0 -> true | _ -> false);
     Alcotest.(check bool) "sifting shrinks the comparator" true
       (Bdd.size f' < before);
     Alcotest.(check int) "one reorder recorded" 1 (Bdd.reorders m);
     let all = all_assignments (2 * n) in
     let reference a = List.for_all (fun i -> a i = a (n + i)) (List.init n Fun.id) in
     Alcotest.(check bool) "same function" true
       (List.for_all (fun a -> Bdd.eval f' a = reference a) all)
   | _ -> Alcotest.fail "root list shape")

let () =
  Alcotest.run "bdd"
    [
      ( "basic",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "quantification" `Quick test_quantification;
          Alcotest.test_case "restrict/compose/rename" `Quick
            test_restrict_compose_rename;
          Alcotest.test_case "monotone rename" `Quick test_rename_monotone;
          Alcotest.test_case "support and sat_count" `Quick
            test_support_satcount;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_truth_table;
          QCheck_alcotest.to_alcotest prop_satcount_matches;
          QCheck_alcotest.to_alcotest prop_exists_is_disjunction;
          QCheck_alcotest.to_alcotest prop_and_exists_is_exists_of_and;
          QCheck_alcotest.to_alcotest prop_canonical;
          QCheck_alcotest.to_alcotest prop_rename_monotone_matches_rename;
          QCheck_alcotest.to_alcotest prop_reorder_preserves_semantics;
        ] );
      ( "reordering",
        [
          Alcotest.test_case "pinned sift + counters" `Quick
            test_reorder_pinned_and_counters;
        ] );
    ]
