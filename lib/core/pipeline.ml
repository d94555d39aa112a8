open Speccc_logic
open Speccc_translate
open Speccc_timeabs
open Speccc_partition
open Speccc_synthesis

type options = {
  translate : Translate.config;
  time_budget : int option;
  engine : Realizability.engine;
  lookahead : int;
  bound : int;
  fuel : int option;
  deadline : float option;
  cancel : Speccc_runtime.Cancellation.token option;
  skip_engines : string list;
  recover : bool;
  certify : bool;
  snapshot : Speccc_runtime.Snapshot.slot option;
}

let default_options () = {
  translate = Translate.default_config ();
  time_budget = Some 5;
  engine = Realizability.Auto;
  lookahead = 6;
  bound = 8;
  fuel = None;
  deadline = None;
  cancel = None;
  skip_engines = [];
  recover = false;
  certify = false;
  snapshot = None;
}

type stage_times = {
  translation_s : float;
  abstraction_s : float;
  partition_s : float;
  synthesis_s : float;
}

type outcome = {
  document : Document.t;
  requirements : Translate.requirement list;
  formulas : Ltl.t list;
  time_solution : Timeabs.solution option;
  partition : Partition.analysis;
  report : Realizability.report;
  times : stage_times;
  diagnostics : (string * Speccc_nlp.Parser.diagnostic) list;
  certificate : Speccc_certify.Certify.outcome option;
}

let abstract_times options formulas =
  match Timeabs.thetas_of_formulas formulas with
  | [] -> (formulas, None)
  | thetas ->
    let solution =
      match options.time_budget with
      | None -> Timeabs.gcd_solution thetas
      | Some budget ->
        Timeabs.solve_smt (Timeabs.problem ~budget thetas)
    in
    (List.map (Timeabs.apply solution) formulas, Some solution)

let make_budget options =
  Speccc_runtime.Budget.create ?fuel:options.fuel
    ?deadline_in:options.deadline ?cancel:options.cancel
    ?snapshot:options.snapshot ()

(* The ladder's floor: when every synthesis engine degraded, a lint
   pass can still return a sound verdict — an unsatisfiable requirement
   or a conflicting pair refutes realizability outright.  The pass runs
   on a small reserve of fuel of its own, because it is exactly the
   engines' fuel that is gone; a partial verdict beats none.  The
   reserve keeps the check's deadline and cancellation token. *)
let lint_reserve_fuel = 20_000

(* Fuel reserved for re-checking witnesses when [options.certify]: the
   tableau re-check of an unsat core is the only validator that can
   genuinely blow up. *)
let certify_reserve_fuel = 50_000

let lint_floor ~budget formulas (report : Realizability.report) =
  let reserve =
    Speccc_runtime.Budget.reserve budget ~fuel:lint_reserve_fuel
  in
  let result, wall =
    Speccc_runtime.Runtime.timed (fun () ->
        Speccc_runtime.Runtime.guard ~stage:"lint" (fun () ->
            Speccc_lint.Lint.check ~budget:reserve formulas))
  in
  let rung outcome error =
    {
      Realizability.rung_engine = "lint";
      rung_outcome = outcome;
      rung_error = error;
      rung_wall = wall;
    }
  in
  match result with
  | Ok findings ->
    let conflict =
      List.find_opt
        (function
          | Speccc_lint.Lint.Unsatisfiable _
          | Speccc_lint.Lint.Pair_conflict _ ->
            true
          | Speccc_lint.Lint.Valid _ | Speccc_lint.Lint.Vacuous_guard _ ->
            false)
        findings
    in
    (match conflict with
     | Some finding ->
       let detail =
         Format.asprintf "%a"
           (Speccc_lint.Lint.pp_finding ~requirement_text:(fun _ -> None))
           finding
       in
       let core =
         match finding with
         | Speccc_lint.Lint.Unsatisfiable i -> [ i ]
         | Speccc_lint.Lint.Pair_conflict (i, j, _) -> [ i; j ]
         | Speccc_lint.Lint.Valid _ | Speccc_lint.Lint.Vacuous_guard _ -> []
       in
       {
         report with
         Realizability.verdict = Realizability.Inconsistent;
         engine_used = "lint";
         unsat_core = Some (Realizability.emit_core core);
         wall_time = report.Realizability.wall_time +. wall;
         detail;
       }
     | None ->
       {
         report with
         Realizability.verdict =
           Realizability.Inconclusive
             (Realizability.all_degraded report.Realizability.degradation
              ^ "; lint found no conflict");
         wall_time = report.Realizability.wall_time +. wall;
         degradation =
           report.Realizability.degradation
           @ [ rung "completed: no conflicts found" None ];
       })
  | Error error ->
    let outcome =
      match error with
      | Speccc_runtime.Runtime.Fuel_exhausted stage ->
        Printf.sprintf "%s: the %d-step lint reserve ran out" stage
          lint_reserve_fuel
      | _ -> Speccc_runtime.Runtime.to_string error
    in
    {
      report with
      Realizability.wall_time = report.Realizability.wall_time +. wall;
      degradation =
        report.Realizability.degradation @ [ rung outcome (Some error) ];
    }

(* A wall-clock deadline or cancellation aborts the ladder with a
   single "ladder" rung: too late even for the lint floor. *)
let aborted (report : Realizability.report) =
  List.exists
    (fun rung -> rung.Realizability.rung_engine = "ladder")
    report.Realizability.degradation

let synthesize options ~budget ?explicit_session ?(assumptions = [])
    ~inputs ~outputs formulas =
  let report =
    Realizability.check ~budget ~engine:options.engine
      ~lookahead:options.lookahead ~bound:options.bound
      ~skip:options.skip_engines ~assumptions ?explicit_session
      ~witness:options.certify ~inputs ~outputs formulas
  in
  match report.Realizability.verdict with
  | Realizability.Inconclusive _
    when report.Realizability.degradation <> [] && not (aborted report) ->
    lint_floor ~budget formulas report
  | _ -> report

let check_formulas ?options ?partition ?explicit_session formulas =
  let options =
    match options with Some o -> o | None -> default_options ()
  in
  let partition =
    match partition with
    | Some p -> p
    | None -> (Partition.of_requirements formulas).Partition.partition
  in
  let report =
    synthesize options ~budget:(make_budget options) ?explicit_session
      ~inputs:partition.Partition.inputs ~outputs:partition.Partition.outputs
      formulas
  in
  (partition, report)

(* Translation front-end shared by {!run} and {!run_document}.  With
   [options.recover] set, ungrammatical requirements are dropped with a
   located diagnostic and the rest of the document proceeds; the
   returned document lists only the surviving items so downstream
   stages stay aligned with the translation. *)
let translate_document options ?parse_cache document =
  if not options.recover then
    ( Translate.specification ?parse_cache options.translate
        (Document.texts document),
      document,
      [] )
  else
    let translation, kept, diagnostics =
      Translate.specification_recover ?parse_cache options.translate
        (List.map
           (fun item -> (item.Document.line, item.Document.text))
           document)
    in
    let survivors =
      List.filter_map (fun index -> List.nth_opt document index) kept
    in
    let diagnostics =
      List.map
        (fun (index, diag) -> (Document.id_at document index, diag))
        diagnostics
    in
    (translation, survivors, diagnostics)

let run_document ?options ?parse_cache ?explicit_session document =
  let options =
    match options with Some o -> o | None -> default_options ()
  in
  let (translation, document, diagnostics), translation_s =
    Speccc_runtime.Runtime.timed (fun () ->
        translate_document options ?parse_cache document)
  in
  let raw_formulas =
    List.map (fun r -> r.Translate.formula) translation.Translate.requirements
  in
  let (formulas, time_solution), abstraction_s =
    Speccc_runtime.Runtime.timed (fun () ->
        abstract_times options raw_formulas)
  in
  let tagged = List.combine document formulas in
  let assumptions =
    List.filter_map
      (fun (item, formula) ->
         if Document.is_assumption item then Some formula else None)
      tagged
  in
  let guarantees =
    List.filter_map
      (fun (item, formula) ->
         if Document.is_assumption item then None else Some formula)
      tagged
  in
  (* The Sec. IV-F heuristic reads requirement shapes, which
     assumptions do not follow — partition over the guarantees, then
     adopt assumption-only propositions as inputs (they describe the
     environment). *)
  let partition, partition_s =
    Speccc_runtime.Runtime.timed (fun () ->
        let analysis = Partition.of_requirements guarantees in
        let known =
          analysis.Partition.partition.Partition.inputs
          @ analysis.Partition.partition.Partition.outputs
        in
        let extra =
          List.concat_map Ltl.props assumptions
          |> List.sort_uniq compare
          |> List.filter (fun p -> not (List.mem p known))
        in
        {
          analysis with
          Partition.partition = {
            analysis.Partition.partition with
            Partition.inputs =
              List.sort compare
                (analysis.Partition.partition.Partition.inputs @ extra);
          };
        })
  in
  let budget = make_budget options in
  let report, synthesis_s =
    Speccc_runtime.Runtime.timed (fun () ->
        synthesize options ~budget ?explicit_session ~assumptions
          ~inputs:partition.Partition.partition.Partition.inputs
          ~outputs:partition.Partition.partition.Partition.outputs guarantees)
  in
  let report, certificate =
    if not options.certify then (report, None)
    else
      (* Certification runs on its own reserve of fuel: it is the
         engines' fuel that may just have run out, and the validators
         are cheap by comparison. *)
      let reserve =
        Speccc_runtime.Budget.reserve budget ~fuel:certify_reserve_fuel
      in
      let report, outcome =
        Speccc_certify.Certify.apply ~budget:reserve ~assumptions guarantees
          report
      in
      (report, Some outcome)
  in
  {
    document;
    requirements = translation.Translate.requirements;
    formulas;
    time_solution;
    partition;
    report;
    times = { translation_s; abstraction_s; partition_s; synthesis_s };
    diagnostics;
    certificate;
  }

let run ?options texts = run_document ?options (Document.of_texts texts)

let pp_outcome ppf outcome =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "requirements: %d@,"
    (List.length outcome.requirements);
  (match outcome.time_solution with
   | Some solution ->
     Format.fprintf ppf "time abstraction: %a@," Timeabs.pp_solution solution
   | None -> Format.fprintf ppf "time abstraction: none needed@,");
  Format.fprintf ppf "%a@," Partition.pp
    outcome.partition.Partition.partition;
  let verdict =
    match outcome.report.Realizability.verdict with
    | Realizability.Consistent -> "CONSISTENT (realizable)"
    | Realizability.Inconsistent -> "INCONSISTENT (unrealizable)"
    | Realizability.Inconclusive why -> "INCONCLUSIVE: " ^ why
  in
  Format.fprintf ppf "verdict: %s (engine: %s, %.3fs)" verdict
    outcome.report.Realizability.engine_used
    outcome.report.Realizability.wall_time;
  List.iter
    (fun rung ->
       Format.fprintf ppf "@,degraded: %s — %s (%.3fs)"
         rung.Realizability.rung_engine rung.Realizability.rung_outcome
         rung.Realizability.rung_wall)
    (Realizability.canonical_degradation outcome.report);
  List.iter
    (fun (id, diag) ->
       Format.fprintf ppf "@,skipped %s: %a" id
         Speccc_nlp.Parser.pp_diagnostic diag)
    outcome.diagnostics;
  Format.fprintf ppf "@]"
