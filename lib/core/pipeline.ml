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
        (* Every domain is [Nonnegative] here, which fixes the whole
           optimum (divisor and rewrites), so the exact divisor search
           returns what the paper's bit-blasted encoding returns. *)
        Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.timeabs_solve;
        Timeabs.solve_analytic (Timeabs.problem ~budget thetas)
    in
    (List.map (Timeabs.apply solution) formulas, Some solution)

let make_budget options =
  Speccc_runtime.Budget.create ?fuel:options.fuel
    ?deadline_in:options.deadline ?cancel:options.cancel
    ?snapshot:options.snapshot ()

(* Fuel reserved for re-checking witnesses when [options.certify]: the
   tableau re-check of an unsat core is the only validator that can
   genuinely blow up. *)
let certify_reserve_fuel = 50_000

let synthesize options ~budget ?explicit_session ?(assumptions = [])
    ~inputs ~outputs formulas =
  Realizability.check ~budget ~engine:options.engine
    ~lookahead:options.lookahead ~bound:options.bound
    ~skip:options.skip_engines ~assumptions ?explicit_session
    ~witness:options.certify ~inputs ~outputs formulas

(* The Sec. IV-F heuristic reads requirement shapes, which
   assumptions do not follow — partition over the guarantees, then
   adopt assumption-only propositions as inputs (they describe the
   environment). *)
let partition_of ~assumptions guarantees =
  let analysis = Partition.of_requirements guarantees in
  let partition = analysis.Partition.partition in
  let known = partition.Partition.inputs @ partition.Partition.outputs in
  let extra =
    List.concat_map Ltl.props assumptions
    |> List.sort_uniq compare
    |> List.filter (fun p -> not (List.mem p known))
  in
  {
    analysis with
    Partition.partition = {
      partition with
      Partition.inputs = List.sort compare (partition.Partition.inputs @ extra);
    };
  }

let check_formulas ?options ?partition ?explicit_session ?(assumptions = [])
    formulas =
  let options =
    match options with Some o -> o | None -> default_options ()
  in
  let partition =
    match partition with
    | Some p -> p
    | None -> (partition_of ~assumptions formulas).Partition.partition
  in
  let report =
    synthesize options ~budget:(make_budget options) ?explicit_session
      ~assumptions ~inputs:partition.Partition.inputs
      ~outputs:partition.Partition.outputs formulas
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
  let partition, partition_s =
    Speccc_runtime.Runtime.timed (fun () ->
        partition_of ~assumptions guarantees)
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

(* Only assumption-free checks refute on components, so the report's
   requirement indices are positions in the document. *)
let refuted_on outcome =
  Option.map
    (List.map (Document.id_at outcome.document))
    outcome.report.Realizability.refuted_on

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
  Option.iter
    (fun ids -> Format.fprintf ppf "@,refuted on: %s" (String.concat ", " ids))
    (refuted_on outcome);
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
