open Speccc_logic
module R = Speccc_synthesis.Realizability
module Budget = Speccc_runtime.Budget
module Runtime = Speccc_runtime.Runtime
module Lint = Speccc_lint.Lint
module Certify = Speccc_certify.Certify
module Partition = Speccc_partition.Partition
module Timeabs = Speccc_timeabs.Timeabs
module Translate = Speccc_translate.Translate
module Parser = Speccc_nlp.Parser
module Cache = Speccc_cache.Cache

type divergence = {
  oracle : string;
  detail : string;
}

let div oracle fmt = Printf.ksprintf (fun detail -> { oracle; detail }) fmt

let pp_divergence ppf { oracle; detail } =
  Format.fprintf ppf "[%s] %s" oracle detail

let fstr f = Ltl_print.to_string ~syntax:Ltl_print.Ascii f

(* Fuel, not wall clock: verdicts (and therefore fuzz results for a
   given seed) must not depend on machine speed. *)
let engine_fuel = 100_000
let tableau_fuel = 200_000

(* ------------------------------------------------------------------ *)
(* Engine differential                                                *)

(* Every engine is asked for its witness: the reports go on to
   certification, which skips a verdict that carries none. *)
let run_engines ~inputs ~outputs formulas =
  let fresh () = Budget.create ~fuel:engine_fuel () in
  [
    ("explicit",
     R.check ~budget:(fresh ()) ~engine:R.Explicit ~witness:true ~inputs
       ~outputs formulas);
    ("symbolic",
     R.check ~budget:(fresh ()) ~engine:R.Symbolic ~witness:true ~inputs
       ~outputs formulas);
  ]

(* Is this Inconsistent verdict one the trust rules accept as sound? *)
let trusted_inconsistent ~template (_label, report) =
  match report.R.verdict with
  | R.Inconsistent ->
    report.R.unsat_core <> None
    || report.R.engine_used = "explicit"
    || (template && report.R.engine_used = "symbolic")
  | _ -> false

let engines_differential ~inputs ~outputs ~template formulas =
  let reports = run_engines ~inputs ~outputs formulas in
  let divergences = ref [] in
  let add d = divergences := d :: !divergences in
  let consistent =
    List.filter (fun (_, r) -> r.R.verdict = R.Consistent) reports
  in
  let inconsistent =
    List.filter (fun (_, r) -> r.R.verdict = R.Inconsistent) reports
  in
  (* Sound verdicts must not conflict. *)
  (match consistent, List.filter (trusted_inconsistent ~template) reports with
   | (cl, _) :: _, (il, _) :: _ ->
     add
       (div "engines" "%s says consistent but %s proves inconsistent" cl il)
   | _ -> ());
  (* Certify every definite verdict with engine-independent machinery;
     a rejected witness is a divergence in its own right. *)
  List.iter
    (fun (label, report) ->
       match report.R.verdict with
       | R.Inconclusive _ -> ()
       | R.Consistent | R.Inconsistent ->
         let _, outcome =
           Certify.apply ~budget:(Budget.create ~fuel:tableau_fuel ())
             ~assumptions:[] formulas report
         in
         (match outcome with
          | Certify.Rejected evidence ->
            add (div "certify" "%s witness rejected: %s" label evidence)
          | Certify.Certified _ | Certify.No_witness _ -> ()))
    reports;
  (* Closed specs: realizability = satisfiability, and the tableau
     decides that exactly. *)
  let spec = Ltl.conj_list formulas in
  if inputs = [] && Ltl.size spec <= 80 then begin
    let sat =
      match
        Lint.satisfiable ~budget:(Budget.create ~fuel:tableau_fuel ()) spec
      with
      | model -> Some model
      | exception Runtime.Interrupt _ -> None
    in
    match sat with
    | Some (Some witness) ->
      if not (Trace.holds witness spec) then
        add
          (div "tableau" "tableau model does not satisfy the spec %s"
             (fstr spec));
      if Ltl.size spec <= 40 && not (Refeval.holds witness spec) then
        add
          (div "refeval"
             "trace and reference semantics disagree on the tableau model \
              of %s"
             (fstr spec));
      List.iter
        (fun entry ->
           if trusted_inconsistent ~template entry then
             add
               (div "tableau"
                  "spec is satisfiable (closed, so realizable) yet %s \
                   proves inconsistent"
                  (fst entry)))
        inconsistent
    | Some None ->
      List.iter
        (fun (label, _) ->
           add
             (div "tableau"
                "spec is unsatisfiable (closed, so unrealizable) yet %s \
                 says consistent"
                label))
        consistent
    | None -> ()
    end;
  (* Tiny closed alphabets: exhaustive lasso enumeration as a third,
     independent reference. *)
  let props = Ltl.props spec in
  if inputs = [] && List.length props <= 3 && Ltl.size spec <= 40 then begin
    match Refeval.find_model ~props ~max_positions:3 spec with
    | Some w ->
      if not (Trace.holds w spec) then
        add
          (div "enumeration"
             "reference model rejected by trace semantics for %s"
             (fstr spec));
      List.iter
        (fun entry ->
           if trusted_inconsistent ~template entry then
             add
               (div "enumeration"
                  "enumeration found a model yet %s proves inconsistent"
                  (fst entry)))
        inconsistent
    | None -> ()
  end;
  List.rev !divergences

(* ------------------------------------------------------------------ *)
(* NNF / simplify / hash-consing invariance                           *)

let nnf_invariance formulas =
  List.concat_map
    (fun f ->
       if Ltl.size f > 25 then []
       else begin
         let checks = ref [] in
         let add d = checks := d :: !checks in
         let nnf = Nnf.of_formula f in
         if not (Nnf.is_nnf nnf) then
           add (div "nnf" "of_formula result not in NNF: %s" (fstr nnf));
         if not (Lint.equivalent f nnf) then
           add
             (div "nnf" "NNF changed the language of %s into %s" (fstr f)
                (fstr nnf));
         let simp = Nnf.simplify f in
         if not (Lint.equivalent f simp) then
           add
             (div "nnf" "simplify changed the language of %s into %s"
                (fstr f) (fstr simp));
         (* Interning a structurally rebuilt copy must hit the same
            unique-table node. *)
         let copy = Ltl.map_props Ltl.prop f in
         if Ltl.id (Ltl.intern f) <> Ltl.id (Ltl.intern copy)
         || not (Ltl.equal_fast (Ltl.intern f) (Ltl.intern copy)) then
           add (div "hashcons" "rebuilt copy interned differently: %s"
                  (fstr f));
         List.rev !checks
       end)
    formulas

(* ------------------------------------------------------------------ *)
(* Documents: translation determinism + antonym-merge law             *)

(* Absorbing pairs (Antonym.defaults): swapping one for its partner in
   a copula position negates exactly the subject literal. *)
let absorbing_partner = function
  | "available" -> Some "unavailable"
  | "unavailable" -> Some "available"
  | "enabled" -> Some "disabled"
  | "disabled" -> Some "enabled"
  | "active" -> Some "inactive"
  | "inactive" -> Some "active"
  | "on" -> Some "off"
  | "off" -> Some "on"
  | "high" -> Some "low"
  | "low" -> Some "high"
  | "valid" -> Some "invalid"
  | "invalid" -> Some "valid"
  | _ -> None

let strip_punct word =
  let n = String.length word in
  let core_len =
    let rec go i =
      if i > 0 && (word.[i - 1] = '.' || word.[i - 1] = ',') then go (i - 1)
      else i
    in
    go n
  in
  (String.sub word 0 core_len, String.sub word core_len (n - core_len))

(* In every generator template the adjective sits right after its
   copula: "the S is ADJ" (subject just before "is") or
   "S shall [not] be ADJ" (subject just before "shall"). *)
let adjective_occurrences sentence =
  let tokens = String.split_on_char ' ' sentence in
  let arr = Array.of_list tokens in
  let occs = ref [] in
  Array.iteri
    (fun i tok ->
       let core, _ = strip_punct tok in
       match absorbing_partner (String.lowercase_ascii core) with
       | None -> ()
       | Some partner ->
         if i >= 2 then begin
           let prev = fst (strip_punct arr.(i - 1)) in
           let subject =
             match String.lowercase_ascii prev with
             | "is" -> Some (String.lowercase_ascii arr.(i - 2))
             | "be" ->
               (* walk back over "shall"/"not" to the subject *)
               let rec back j =
                 if j < 0 then None
                 else
                   match String.lowercase_ascii arr.(j) with
                   | "shall" | "not" | "be" -> back (j - 1)
                   | word -> Some word
               in
               back (i - 2)
             | _ -> None
           in
           match subject with
           | Some subject -> occs := (i, partner, subject) :: !occs
           | None -> ()
         end)
    arr;
  List.rev_map
    (fun (i, partner, subject) ->
       let swapped =
         String.concat " "
           (List.mapi
              (fun j tok ->
                 if j = i then
                   let _, punct = strip_punct tok in
                   partner ^ punct
                 else tok)
              tokens)
       in
       (swapped, subject))
    !occs

let antonym_law sentence =
  let config = Translate.default_config () in
  List.concat_map
    (fun (swapped, subject) ->
       match
         ( Translate.formula_of_sentence config sentence,
           Translate.formula_of_sentence config swapped )
       with
       | exception Parser.Error msg ->
         [ div "antonym" "swap made %S ungrammatical: %s" swapped msg ]
       | f, f' ->
         let expected =
           Ltl.map_props
             (fun p ->
                if p = subject then Ltl.neg (Ltl.prop p) else Ltl.prop p)
             f
         in
         if Lint.equivalent f' expected then []
         else
           [
             div "antonym"
               "swapping the %s adjective should negate only [%s]: %s \
                translates to %s, expected %s"
               subject subject swapped (fstr f') (fstr expected);
           ])
    (adjective_occurrences sentence)

let doc_oracles sentences =
  let config = Translate.default_config () in
  match Translate.specification config sentences with
  | exception Parser.Error msg ->
    [ div "translate" "generated document failed to parse: %s" msg ]
  | result ->
    let formulas =
      List.map (fun r -> r.Translate.formula) result.Translate.requirements
    in
    (* The second pass runs with every cache disabled, so it parses
       and translates each sentence afresh: a translation that hangs on
       hidden state (the parse cache included) shows as a divergence. *)
    let determinism =
      let again =
        let was = Cache.enabled () in
        Fun.protect
          ~finally:(fun () -> Cache.set_enabled was)
          (fun () ->
             Cache.set_enabled false;
             Translate.specification config sentences)
      in
      let formulas' =
        List.map (fun r -> r.Translate.formula) again.Translate.requirements
      in
      if List.length formulas = List.length formulas'
      && List.for_all2 Ltl.equal formulas formulas'
      then []
      else [ div "translate" "translation is not deterministic" ]
    in
    let analysis = Partition.of_requirements formulas in
    let partition = analysis.Partition.partition in
    determinism
    @ List.concat_map antonym_law sentences
    @ nnf_invariance formulas
    @ engines_differential ~inputs:partition.Partition.inputs
        ~outputs:partition.Partition.outputs ~template:true formulas

(* ------------------------------------------------------------------ *)
(* Time abstraction                                                   *)

(* Independent re-implementation of the most-restrictive merge, so the
   oracle judges the solver against the declared constraints rather
   than against the library's own merge. *)
let merged_domains thetas domains =
  List.fold_left2
    (fun acc theta domain ->
       match List.assoc_opt theta acc with
       | None -> (theta, domain) :: acc
       | Some seen ->
         let merged =
           match seen, domain with
           | Timeabs.Exact, _ | _, Timeabs.Exact -> Timeabs.Exact
           | Timeabs.Nonnegative, Timeabs.Nonnegative -> Timeabs.Nonnegative
           | Timeabs.Nonpositive, Timeabs.Nonpositive -> Timeabs.Nonpositive
           | Timeabs.Nonnegative, Timeabs.Nonpositive
           | Timeabs.Nonpositive, Timeabs.Nonnegative -> Timeabs.Exact
         in
         (theta, merged) :: List.remove_assoc theta acc)
    [] thetas domains

let domain_name = function
  | Timeabs.Nonnegative -> "nonneg"
  | Timeabs.Nonpositive -> "nonpos"
  | Timeabs.Exact -> "exact"

let check_solution ~name ~thetas ~domains ~budget (sol : Timeabs.solution) =
  let checks = ref [] in
  let add d = checks := d :: !checks in
  let merged = merged_domains thetas domains in
  if sol.Timeabs.divisor < 1 then
    add (div "timeabs" "%s: divisor %d < 1" name sol.Timeabs.divisor);
  let d = sol.Timeabs.divisor in
  let covered =
    List.map (fun r -> r.Timeabs.theta) sol.Timeabs.rewrites
  in
  List.iter
    (fun (theta, _) ->
       if not (List.mem theta covered) then
         add (div "timeabs" "%s: no rewrite for theta %d" name theta))
    merged;
  let err_sum = ref 0 in
  let x_sum = ref 0 in
  List.iter
    (fun r ->
       let { Timeabs.theta; theta'; delta } = r in
       err_sum := !err_sum + abs delta;
       x_sum := !x_sum + theta';
       if theta <> (theta' * d) + delta then
         add
           (div "timeabs" "%s: %d <> %d*%d + %d" name theta theta' d delta);
       if delta <= -d || delta >= d then
         add (div "timeabs" "%s: |delta %d| >= divisor %d" name delta d);
       (* The θ' >= 1 law: a zero θ' rewrites X^θ φ to φ, silently
          collapsing a timed obligation (the historical bug). *)
       if theta' < 1 then
         add
           (div "timeabs" "%s: theta %d collapsed to %d X operators" name
              theta theta');
       match List.assoc_opt theta merged with
       | None -> add (div "timeabs" "%s: rewrite for unknown theta %d" name theta)
       | Some dom ->
         let ok =
           match dom with
           | Timeabs.Exact -> delta = 0
           | Timeabs.Nonnegative -> delta >= 0
           | Timeabs.Nonpositive -> delta <= 0
         in
         if not ok then
           add
             (div "timeabs" "%s: delta %d for theta %d violates %s domain"
                name delta theta (domain_name dom)))
    sol.Timeabs.rewrites;
  if !err_sum > budget then
    add (div "timeabs" "%s: total error %d exceeds budget %d" name !err_sum
           budget);
  if !err_sum <> sol.Timeabs.error_total then
    add
      (div "timeabs" "%s: reported error_total %d, actual %d" name
         sol.Timeabs.error_total !err_sum);
  if !x_sum <> sol.Timeabs.x_total then
    add
      (div "timeabs" "%s: reported x_total %d, actual %d" name
         sol.Timeabs.x_total !x_sum);
  List.rev !checks

let render_solution (sol : Timeabs.solution) =
  Printf.sprintf "d=%d: %s" sol.Timeabs.divisor
    (String.concat ", "
       (List.map
          (fun r ->
             Printf.sprintf "%d->%d (delta %d)" r.Timeabs.theta
               r.Timeabs.theta' r.Timeabs.delta)
          sol.Timeabs.rewrites))

let timeabs_oracles ~buggy ~thetas ~domains ~budget =
  match Timeabs.problem_checked ~budget ~domains thetas with
  | Error _ -> []
  | Ok prob ->
    let analytic = Timeabs.solve_analytic ~allow_zero_theta:buggy prob in
    let smt = Timeabs.solve_smt ~allow_zero_theta:buggy prob in
    let gcd = Timeabs.gcd_solution prob.Timeabs.thetas in
    check_solution ~name:"analytic" ~thetas ~domains ~budget analytic
    @ check_solution ~name:"smt" ~thetas ~domains ~budget smt
    @ (if
        analytic.Timeabs.x_total <> smt.Timeabs.x_total
        || analytic.Timeabs.error_total <> smt.Timeabs.error_total
       then
         [
           div "timeabs"
             "analytic optimum (x=%d, err=%d) differs from SMT optimum \
              (x=%d, err=%d)"
             analytic.Timeabs.x_total analytic.Timeabs.error_total
             smt.Timeabs.x_total smt.Timeabs.error_total;
         ]
       else [])
    @ (* With every domain [Nonnegative] the optimum fixes the divisor
         (d = (Σθ − Σ|Δ|) / ΣX) and every rewrite, so the two solvers
         must agree on the whole solution: the pipeline runs the
         analytic one in place of the paper's encoding on exactly
         these problems.  ΣX = 0, reachable only under the legacy
         collapse, leaves d free. *)
    (if
       List.for_all (( = ) Timeabs.Nonnegative) prob.Timeabs.domains
       && analytic.Timeabs.x_total > 0
       && analytic <> smt
     then
       [
         div "timeabs" "analytic solution (%s) differs from SMT solution (%s)"
           (render_solution analytic) (render_solution smt);
       ]
     else [])
    @
    (* The exact GCD rewriting is always feasible, so the optimum can
       never need more X operators than it does. *)
    if analytic.Timeabs.x_total > gcd.Timeabs.x_total then
      [
        div "timeabs"
          "analytic x_total %d worse than the GCD baseline %d"
          analytic.Timeabs.x_total gcd.Timeabs.x_total;
      ]
    else []

(* ------------------------------------------------------------------ *)
(* Partition inference and adjustment                                 *)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let partition_oracles ~formulas ~to_input ~to_output =
  match Partition.of_requirements formulas with
  | exception Invalid_argument msg ->
    [ div "partition" "of_requirements violated its postcondition: %s" msg ]
  | analysis ->
    let p = analysis.Partition.partition in
    let known = p.Partition.inputs @ p.Partition.outputs in
    let checks = ref [] in
    let add d = checks := d :: !checks in
    let all_props =
      List.sort_uniq compare (List.concat_map Ltl.props formulas)
    in
    if not (subset all_props known) then
      add
        (div "partition" "propositions left unclassified: %s"
           (String.concat ", "
              (List.filter (fun q -> not (List.mem q known)) all_props)));
    let overlap = List.filter (fun q -> List.mem q to_output) to_input in
    (if overlap <> [] then
       match Partition.adjust p ~to_input ~to_output () with
       | exception Invalid_argument _ -> ()
       | _ ->
         add
           (div "partition"
              "overlapping move lists (%s) were accepted"
              (String.concat ", " overlap))
     else
       match Partition.adjust p ~to_input ~to_output () with
       | exception Invalid_argument msg ->
         add (div "partition" "disjoint adjustment rejected: %s" msg)
       | q ->
         let bad =
           List.filter (fun x -> List.mem x q.Partition.outputs)
             q.Partition.inputs
         in
         if bad <> [] then
           add
             (div "partition" "adjusted partition overlaps on %s"
                (String.concat ", " bad));
         List.iter
           (fun x ->
              if List.mem x known && not (List.mem x q.Partition.inputs)
              then add (div "partition" "%s not moved to inputs" x))
           to_input;
         List.iter
           (fun x ->
              if List.mem x known && not (List.mem x q.Partition.outputs)
              then add (div "partition" "%s not moved to outputs" x))
           to_output;
         (match Partition.adjust q ~to_input ~to_output () with
          | exception Invalid_argument msg ->
            add (div "partition" "re-adjustment rejected: %s" msg)
          | q' ->
            if
              q'.Partition.inputs <> q.Partition.inputs
              || q'.Partition.outputs <> q.Partition.outputs
            then add (div "partition" "adjustment is not idempotent")));
    List.rev !checks

(* ------------------------------------------------------------------ *)

let check ?(buggy_timeabs = false) case =
  match case with
  | Case.Ltl_spec { inputs; outputs; formulas; template } ->
    nnf_invariance formulas
    @ engines_differential ~inputs ~outputs ~template formulas
  | Case.Doc sentences -> doc_oracles sentences
  | Case.Timeabs { thetas; domains; budget } ->
    timeabs_oracles ~buggy:buggy_timeabs ~thetas ~domains ~budget
  | Case.Partition_adjust { formulas; to_input; to_output } ->
    partition_oracles ~formulas ~to_input ~to_output
