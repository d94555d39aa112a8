(* Benchmark harness regenerating every table and figure of the
   paper's evaluation (Sec. VI), plus ablations for the design choices
   called out in DESIGN.md.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe table1       -- Table I only
     dune exec bench/main.exe fig1         -- workflow-stage timings
     dune exec bench/main.exe fig2         -- Req-17 syntax tree
     dune exec bench/main.exe ablations    -- ablation studies
     dune exec bench/main.exe localize     -- localization scaling

   Timing methodology: each Table I row is a Bechamel [Test.make]
   measuring the stage-2 realizability check without a witness (the
   quantity the paper's "time(s)" column reports); absolute numbers
   are machine-dependent — the reproduction targets the *shape* (which
   rows are slow, who is consistent). *)

open Bechamel
open Speccc_logic
open Speccc_core
open Speccc_synthesis
open Speccc_partition
open Speccc_casestudies

(* ---------- bechamel plumbing ---------- *)

let measure_tests tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~stabilize:false
      ~quota:(Time.second 1.0) ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" tests) in
  let results = Analyze.all ols (List.hd instances) raw in
  fun name ->
    match Hashtbl.find_opt results ("g/" ^ name) with
    | None -> nan
    | Some est ->
      (match Analyze.OLS.estimates est with
       | Some [ ns ] -> ns /. 1e9
       | Some _ | None -> nan)

(* ---------- shared preparation ---------- *)

type prepared_row = {
  row : Table1.row;
  formulas : Ltl.t list;
  partition : Partition.t;
}

let sym_options =
  { (Pipeline.default_options ()) with
    Pipeline.engine = Realizability.Symbolic }

let prepare_row row =
  match row.Table1.source with
  | Table1.Sentences texts ->
    let outcome = Pipeline.run ~options:sym_options texts in
    {
      row;
      formulas = outcome.Pipeline.formulas;
      partition = outcome.Pipeline.partition.Partition.partition;
    }
  | Table1.Formulas (formulas, inputs, outputs) ->
    { row; formulas; partition = { Partition.inputs; outputs } }

(* [speccc check] asks for no witness; [~witness:true] adds the
   controller extraction that synth, testgen and --certify pay for. *)
let check_prepared ?witness prepared =
  Realizability.check ~engine:Realizability.Symbolic ?witness
    ~inputs:prepared.partition.Partition.inputs
    ~outputs:prepared.partition.Partition.outputs prepared.formulas

let verdict_string = function
  | Realizability.Consistent -> "consistent"
  | Realizability.Inconsistent -> "INCONSISTENT"
  | Realizability.Inconclusive _ -> "fails (pre-fix)"

(* ---------- Table I ---------- *)

let table1 () =
  Format.printf "@.== Table I: experimental results ==@.";
  Format.printf
    "(times are Bechamel OLS estimates of the realizability check)@.@.";
  let prepared = List.map prepare_row Table1.rows in
  let tests =
    List.map
      (fun p ->
         let name = p.row.Table1.group ^ ":" ^ p.row.Table1.row_id in
         Test.make ~name
           (Staged.stage (fun () -> ignore (check_prepared p))))
      prepared
  in
  let time_of = measure_tests tests in
  Format.printf "%-6s %-5s %-35s %8s %4s %4s %10s  %s@." "Group" "No."
    "Specification" "formulas" "in" "out" "time(s)" "verdict";
  List.iter
    (fun p ->
       let name = p.row.Table1.group ^ ":" ^ p.row.Table1.row_id in
       let report = check_prepared p in
       let note =
         match p.row.Table1.expected, report.Realizability.verdict with
         | Table1.Inconsistent_until_partition_fix prop,
           (Realizability.Inconsistent | Realizability.Inconclusive _) ->
           let fixed =
             Partition.adjust p.partition ~to_output:[ prop ] ()
           in
           let report' =
             Realizability.check ~engine:Realizability.Symbolic
               ~inputs:fixed.Partition.inputs
               ~outputs:fixed.Partition.outputs p.formulas
           in
           Printf.sprintf " -> after partition fix: %s"
             (verdict_string report'.Realizability.verdict)
         | _ -> ""
       in
       Format.printf "%-6s %-5s %-35s %8d %4d %4d %10.4f  %s%s@."
         p.row.Table1.group p.row.Table1.row_id p.row.Table1.name
         (List.length p.formulas)
         (List.length p.partition.Partition.inputs)
         (List.length p.partition.Partition.outputs)
         (time_of name)
         (verdict_string report.Realizability.verdict)
         note)
    prepared

(* ---------- Figure 1: the three-stage workflow ---------- *)

let fig1 () =
  Format.printf "@.== Figure 1: workflow stages on CARA row 0 ==@.@.";
  let outcome = Pipeline.run ~options:sym_options Cara.working_mode_texts in
  let t = outcome.Pipeline.times in
  Format.printf "stage 1  translation (parse + reason + LTL): %8.4fs@."
    t.Pipeline.translation_s;
  Format.printf "stage 1' time abstraction (SMT):             %8.4fs@."
    t.Pipeline.abstraction_s;
  Format.printf "stage 1'' input/output partition:            %8.4fs@."
    t.Pipeline.partition_s;
  Format.printf "stage 2  realizability (synthesis):          %8.4fs@."
    t.Pipeline.synthesis_s;
  Format.printf "verdict: %s@."
    (verdict_string outcome.Pipeline.report.Realizability.verdict);

  Format.printf
    "@.-- the refinement loop (stage 3) on TELEPROMISE Information --@.@.";
  let app = List.nth Telepromise.applications 3 in
  let texts = Telepromise.application_sentences app in
  let outcome = Pipeline.run ~options:sym_options texts in
  Format.printf "iteration 1: check -> %s@."
    (verdict_string outcome.Pipeline.report.Realizability.verdict);
  let t0 = Unix.gettimeofday () in
  let suggestion = Refine.run sym_options outcome in
  Format.printf "iteration 2: localize + adjust (%.2fs)@."
    (Unix.gettimeofday () -. t0);
  (match suggestion.Refine.localization with
   | Some localization ->
     Format.printf "  culprit requirement index: %d@."
       localization.Localize.culprit
   | None -> ());
  Format.printf "  %s@." suggestion.Refine.advice;
  (match suggestion.Refine.adjustment with
   | Some adjustment ->
     let _, report =
       Pipeline.check_formulas ~options:sym_options
         ~partition:adjustment.Refine.partition outcome.Pipeline.formulas
     in
     Format.printf "iteration 3: re-check -> %s@."
       (verdict_string report.Realizability.verdict)
   | None -> ())

(* ---------- Figure 2 ---------- *)

let fig2 () =
  Format.printf "@.== Figure 2: syntax tree of Req-17 ==@.@.";
  let lexicon = Speccc_nlp.Lexicon.default () in
  let text =
    "When auto-control mode is entered, eventually the cuff will be \
     inflated."
  in
  let tree = Speccc_nlp.Parser.sentence lexicon text in
  Format.printf "%a@." Speccc_nlp.Syntax.pp_sentence tree

(* ---------- ablations ---------- *)

let ablation_timeabs () =
  Format.printf "@.== Ablation: time abstraction (Sec. IV-E) ==@.@.";
  Format.printf "%-28s %10s %8s %8s %8s@." "Θ (budget 5)" "method" "ΣX" "Σ|Δ|"
    "d";
  let theta_sets = [
    [ 3; 180; 60 ];
    [ 2; 4; 8; 16 ];
    [ 7; 13; 29 ];
    [ 10; 100; 1000 ];
    [ 5; 50; 500; 45; 450 ];
  ]
  in
  List.iter
    (fun thetas ->
       let label =
         "{" ^ String.concat "," (List.map string_of_int thetas) ^ "}"
       in
       let prob = Speccc_timeabs.Timeabs.problem ~budget:5 thetas in
       let row label method_ (s : Speccc_timeabs.Timeabs.solution) =
         Format.printf "%-28s %10s %8d %8d %8d@." label method_
           s.Speccc_timeabs.Timeabs.x_total
           s.Speccc_timeabs.Timeabs.error_total
           s.Speccc_timeabs.Timeabs.divisor
       in
       let smt = Speccc_timeabs.Timeabs.solve_smt prob in
       let analytic = Speccc_timeabs.Timeabs.solve_analytic prob in
       row label "gcd" (Speccc_timeabs.Timeabs.gcd_solution thetas);
       row "" "smt" smt;
       (* the pipeline's solver: must be the same whole solution *)
       row "" "analytic" analytic;
       if analytic <> smt then
         Format.printf "%-28s DISAGREE: the pipeline's solver left the \
                        paper's optimum@." "")
    theta_sets;
  (* solver-vs-solver timing *)
  let prob =
    Speccc_timeabs.Timeabs.problem ~budget:5 [ 3; 180; 60; 45; 90 ]
  in
  let tests = [
    Test.make ~name:"smt"
      (Staged.stage (fun () ->
           ignore (Speccc_timeabs.Timeabs.solve_smt prob)));
    Test.make ~name:"analytic"
      (Staged.stage (fun () ->
           ignore (Speccc_timeabs.Timeabs.solve_analytic prob)));
  ]
  in
  let time_of = measure_tests tests in
  Format.printf "@.solver timing on Θ={3,180,60,45,90}:@.";
  Format.printf "  bit-blasting SMT (paper's route):   %8.6fs@."
    (time_of "smt");
  Format.printf "  analytic divisor search (pipeline): %8.6fs@."
    (time_of "analytic")

let ablation_semantic () =
  Format.printf
    "@.== Ablation: semantic reasoning (Sec. IV-D) on CARA row 0 ==@.@.";
  let config = Speccc_translate.Translate.default_config () in
  let result =
    Speccc_translate.Translate.specification config Cara.working_mode_texts
  in
  let with_props =
    List.concat_map
      (fun r -> Ltl.props r.Speccc_translate.Translate.formula)
      result.Speccc_translate.Translate.requirements
    |> List.sort_uniq compare
  in
  let without, with_reasoning =
    Speccc_reasoning.Semantic.reduction_count
      config.Speccc_translate.Translate.dictionary
      result.Speccc_translate.Translate.relations
  in
  Format.printf "adjective/adverb occurrences (subject, word):    %4d@."
    without;
  Format.printf "propositions they produce with reasoning:        %4d@."
    with_reasoning;
  Format.printf "total propositions in the translated spec:       %4d@."
    (List.length with_props);
  Format.printf
    "(without reasoning every occurrence would be its own proposition,@.";
  Format.printf
    " and mutual-exclusion assumptions would have to be added)@."

let ablation_engine () =
  Format.printf
    "@.== Ablation: the two engines on small specs ==@.@.";
  let specs = [
    ("response",      "G (i -> o)");
    ("delayed",       "G (i -> X X o)");
    ("eventual",      "G (i -> F o)");
    ("weak-until",    "o W i");
    ("two-req",       "G (i -> o) && G (!i -> X o2)");
  ]
  in
  let tests =
    List.concat_map
      (fun (name, text) ->
         let f = Ltl_parse.formula text in
         [
           Test.make ~name:(name ^ "/explicit")
             (Staged.stage (fun () ->
                  ignore
                    (Realizability.check ~engine:Realizability.Explicit
                       ~inputs:[ "i" ] ~outputs:[ "o"; "o2" ] [ f ])));
           Test.make ~name:(name ^ "/symbolic")
             (Staged.stage (fun () ->
                  ignore
                    (Realizability.check ~engine:Realizability.Symbolic
                       ~inputs:[ "i" ] ~outputs:[ "o"; "o2" ] [ f ])));
         ])
      specs
  in
  let time_of = measure_tests tests in
  Format.printf "%-12s %14s %14s@." "spec" "explicit(s)" "symbolic(s)";
  List.iter
    (fun (name, _) ->
       Format.printf "%-12s %14.6f %14.6f@." name
         (time_of (name ^ "/explicit"))
         (time_of (name ^ "/symbolic")))
    specs

let ablation_lookahead () =
  Format.printf
    "@.== Ablation: symbolic look-ahead (G4LTL's unroll parameter) ==@.@.";
  let scenario = Robot.scenario ~robots:2 ~rooms:5 in
  Format.printf "%-10s %10s %s@." "lookahead" "time(s)" "verdict";
  List.iter
    (fun lookahead ->
       let t0 = Unix.gettimeofday () in
       let report =
         Realizability.check ~engine:Realizability.Symbolic ~lookahead
           ~inputs:scenario.Robot.inputs ~outputs:scenario.Robot.outputs
           scenario.Robot.formulas
       in
       Format.printf "%-10d %10.4f %s@." lookahead
         (Unix.gettimeofday () -. t0)
         (verdict_string report.Realizability.verdict))
    [ 1; 2; 4; 6; 8 ]

let robot_sweep () =
  Format.printf
    "@.== Robot scaling sweep (\"different numbers of rooms and \
     robots\") ==@.@.";
  Format.printf "%-8s %-8s %10s %6s %6s %10s %s@." "robots" "rooms"
    "formulas" "in" "out" "time(s)" "verdict";
  List.iter
    (fun (robots, rooms) ->
       let scenario = Robot.scenario ~robots ~rooms in
       let t0 = Unix.gettimeofday () in
       let report =
         Realizability.check ~engine:Realizability.Symbolic
           ~inputs:scenario.Robot.inputs ~outputs:scenario.Robot.outputs
           scenario.Robot.formulas
       in
       Format.printf "%-8d %-8d %10d %6d %6d %10.4f %s@." robots rooms
         (List.length scenario.Robot.formulas)
         (List.length scenario.Robot.inputs)
         (List.length scenario.Robot.outputs)
         (Unix.gettimeofday () -. t0)
         (verdict_string report.Realizability.verdict))
    (* (3,6) runs ~80 s and (3,9) far beyond — the sweep stops where
       an interactive run stays pleasant; see EXPERIMENTS.md *)
    [ (1, 4); (1, 6); (1, 9); (1, 12); (2, 5); (2, 8); (3, 4) ]

let localize_sizes = [ 4; 8; 12; 16 ]

(* One localization run: n requirements where the conflict is between
   the first requirement and the last, with innocents in between.
   Returns (culprit, partner count, wall seconds). *)
let localize_row n =
  let explicit_options =
    { (Pipeline.default_options ()) with
      Pipeline.engine = Realizability.Explicit }
  in
  let innocent k =
    Ltl_parse.formula
      (Printf.sprintf "G (i%d -> o%d)" (k mod 4) (k mod 4))
  in
  let formulas =
    (Ltl_parse.formula "G (trigger -> flag)"
     :: List.init (n - 2) (fun k -> innocent k))
    @ [ Ltl_parse.formula "G (trigger -> !flag)" ]
  in
  let check subset =
    let _, report =
      Pipeline.check_formulas ~options:explicit_options subset
    in
    report.Realizability.verdict = Realizability.Consistent
  in
  let t0 = Unix.gettimeofday () in
  match Localize.run ~check formulas with
  | Some result ->
    Some
      ( result.Localize.culprit,
        List.length result.Localize.partners,
        Unix.gettimeofday () -. t0 )
  | None -> None

let localize_bench () =
  Format.printf "@.== Localization scaling (Sec. V-B) ==@.@.";
  Format.printf "%-14s %10s %10s %10s@." "requirements" "culprit" "partners"
    "time(s)";
  List.iter
    (fun n ->
       match localize_row n with
       | Some (culprit, partners, seconds) ->
         Format.printf "%-14d %10d %10d %10.4f@." n culprit partners seconds
       | None -> Format.printf "%-14d (consistent?)@." n)
    localize_sizes

(* ---------- template-compiled automata ---------- *)

(* Per-instance wall times for the automaton construction over many
   distinct instances of each catalogue template, on both routes: the
   template compiler (one tableau per shape, atom substitution after)
   and the raw GPVW tableau (forced by an armed, empty fault plan,
   which bypasses every cache).  Distributions are skewed — the
   template route pays one expensive compile then streams cheap
   instantiations — so the table reports p50/p95 per group rather than
   a mean. *)

(* Nearest-rank percentile, [p] in percent; 0 over no values. *)
let percentile p values =
  match List.sort compare values with
  | [] -> 0.
  | sorted ->
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    arr.(max 0 (min (n - 1) (rank - 1)))

let template_families =
  let atom family i slot = Ltl.prop (Printf.sprintf "%s_%s%d" family slot i) in
  [
    ( "response",
      fun i ->
        Ltl.Always
          (Ltl.Implies
             (atom "resp" i "g", Ltl.Eventually (atom "resp" i "r"))) );
    ("absence", fun i -> Ltl.Always (Ltl.Not (atom "abs" i "p")));
    ( "universality",
      fun i -> Ltl.Always (Ltl.Implies (atom "univ" i "g", atom "univ" i "r"))
    );
    ("existence", fun i -> Ltl.Eventually (atom "exist" i "p"));
    ( "precedence",
      fun i ->
        Ltl.Weak_until (Ltl.Not (atom "prec" i "p"), atom "prec" i "s") );
  ]

let template_bench () =
  Format.printf "@.== Template-compiled automata (%d instances/group) ==@.@."
    200;
  let instances = 200 in
  Format.printf "%-14s %-10s %12s %12s %12s@." "template" "route" "total(s)"
    "p50(us)" "p95(us)";
  List.iter
    (fun (family, make) ->
       let formulas = List.init instances make in
       let run route build =
         let walls =
           List.map
             (fun f ->
                let t0 = Unix.gettimeofday () in
                ignore (build f);
                Unix.gettimeofday () -. t0)
             formulas
         in
         Format.printf "%-14s %-10s %12.4f %12.1f %12.1f@." family route
           (List.fold_left ( +. ) 0. walls)
           (percentile 50. walls *. 1e6)
           (percentile 95. walls *. 1e6)
       in
       run "template" (fun f -> Speccc_automata.Nbw.of_ltl f);
       run "tableau"
         (fun f ->
            Speccc_runtime.Fault.install [];
            Fun.protect ~finally:Speccc_runtime.Fault.clear (fun () ->
                Speccc_automata.Nbw.of_ltl f)))
    template_families

(* ---------- edit latency (watch sessions) ---------- *)

(* A CARA-sized live document (14 requirements over 9 propositions,
   consistent throughout) and a script of single-sentence edits, each
   preserving consistency and producing a document the session has
   never seen (so the whole-document verdict cache cannot hit — the
   numbers measure genuine incremental re-checking).  Three walls per
   edit: the watch session's incremental check, a cold fresh-session
   check (no inherited state), and a one-shot [Pipeline.run_document].
   All three run the same block-decomposed explicit solver, so the
   pipeline column sits next to the cold one rather than paying for
   the automaton of the whole conjunction. *)

let live_document_items =
  [
    ("R1", "If the button is pressed, the pump is started.");
    ("R2", "If the occlusion is present, the alarm is triggered.");
    ("R3", "If the pressure is high, the valve is opened.");
    ("R4", "If the signal is low, the monitor is enabled.");
    ("R5", "If the button is pressed, the monitor is enabled.");
    ("R6", "If the occlusion is present, the valve is opened.");
    ("R7", "If the pressure is high, the alarm is triggered.");
    ("R8", "If the signal is low, the pump is started.");
    ("R9", "If the button is pressed, the alarm is triggered.");
    ("R10", "If the occlusion is present, the pump is started.");
    ("R11", "If the pressure is high, the monitor is enabled.");
    ("R12", "If the signal is low, the valve is opened.");
    ("R13", "When the pump is started, eventually the cuff is inflated.");
    ("R14", "When the valve is opened, eventually the cuff is inflated.");
  ]

let live_edit_script =
  [
    ("R5", "If the button is pressed, the valve is opened.");
    ("R9", "If the button is pressed, the cuff is inflated.");
    ("R11", "If the pressure is high, the pump is started.");
    ("R12", "If the signal is low, the alarm is triggered.");
    ("R2", "If the occlusion is present, the monitor is enabled.");
    ("R7", "If the pressure is high, the cuff is inflated.");
    ("R4", "If the signal is low, the pump is started.");
    ("R14", "When the monitor is enabled, eventually the cuff is inflated.");
    ("R6", "If the occlusion is present, the alarm is triggered.");
    ("R1", "If the button is pressed, the monitor is enabled.");
  ]

let edit_latency_rows ~smoke =
  let options =
    { (Pipeline.default_options ()) with
      Pipeline.engine = Realizability.Explicit }
  in
  let doc =
    List.mapi
      (fun line (id, text) -> { Document.id; text; line = line + 1 })
      live_document_items
  in
  let session = Watch.create ~options doc in
  ignore (Watch.check session);
  let script =
    if smoke then List.filteri (fun i _ -> i < 4) live_edit_script
    else live_edit_script
  in
  List.map
    (fun (id, text) ->
       (match Watch.edit session ~id ~text with
        | Ok () -> ()
        | Error message -> failwith ("edit_latency: " ^ message));
       let live = Watch.check session in
       let cold = Watch.check_cold ~options (Watch.document session) in
       if Watch.fingerprint live <> Watch.fingerprint cold then
         failwith "edit_latency: incremental check diverged from cold";
       let t0 = Unix.gettimeofday () in
       let outcome =
         Pipeline.run_document ~options (Watch.document session)
       in
       let pipeline_s = Unix.gettimeofday () -. t0 in
       (match outcome.Pipeline.report.Realizability.verdict with
        | Realizability.Consistent -> ()
        | _ -> failwith "edit_latency: the live document must stay consistent");
       (id, live.Watch.wall_s, cold.Watch.wall_s, pipeline_s))
    script

let edit_latency_summary rows =
  let incr = List.map (fun (_, i, _, _) -> i) rows in
  let cold = List.map (fun (_, _, c, _) -> c) rows in
  let pipeline = List.map (fun (_, _, _, p) -> p) rows in
  ( (percentile 50. incr, percentile 95. incr),
    (percentile 50. cold, percentile 95. cold),
    (percentile 50. pipeline, percentile 95. pipeline) )

let edit_latency_bench () =
  Format.printf "@.== Edit latency (watch sessions) ==@.@.";
  Format.printf "%-6s %12s %12s %14s@." "edit" "incr(ms)" "cold(ms)"
    "pipeline(ms)";
  let rows = edit_latency_rows ~smoke:false in
  List.iter
    (fun (id, incr, cold, pipeline) ->
       Format.printf "%-6s %12.3f %12.3f %14.3f@." id (incr *. 1000.)
         (cold *. 1000.) (pipeline *. 1000.))
    rows;
  let (i50, i95), (c50, c95), (p50, p95) = edit_latency_summary rows in
  Format.printf "@.p50  incremental %.3fms  cold %.3fms  pipeline %.3fms@."
    (i50 *. 1000.) (c50 *. 1000.) (p50 *. 1000.);
  Format.printf "p95  incremental %.3fms  cold %.3fms  pipeline %.3fms@."
    (i95 *. 1000.) (c95 *. 1000.) (p95 *. 1000.);
  Format.printf "p95 speedup: %.1fx vs cold session, %.1fx vs full pipeline@."
    (c95 /. i95) (p95 /. i95)

(* ---------- json trajectory output ----------

   Machine-readable perf snapshot for tracking the trajectory across
   PRs: localize scaling walls, single-shot Table I row walls (the
   check as [speccc check] runs it, and again with the witness), and
   the memoization counters accumulated while producing them.  Set
   SPECCC_BENCH_SMOKE=1 (as CI does) for a reduced quota. *)

module Jsonl = Speccc_json.Jsonl

(* numbers keep the fixed precision of the human-readable report *)
let fixed digits x =
  let scale = 10. ** float_of_int digits in
  Jsonl.Num (Float.round (x *. scale) /. scale)

let int n = Jsonl.Num (float_of_int n)

let bench_json () =
  let smoke = Sys.getenv_opt "SPECCC_BENCH_SMOKE" <> None in
  let path = "BENCH_speccc.json" in
  Format.printf "@.== JSON trajectory (%s%s) ==@.@." path
    (if smoke then ", smoke quota" else "");
  let sizes = if smoke then [ 4; 8 ] else localize_sizes in
  let localize_entries =
    List.filter_map
      (fun n ->
         match localize_row n with
         | Some (culprit, partners, seconds) ->
           Format.printf "localize n=%-3d %8.4fs@." n seconds;
           Some
             (Jsonl.Obj
                [ ("n", int n); ("seconds", fixed 4 seconds);
                  ("culprit", int culprit); ("partners", int partners) ])
         | None -> None)
      sizes
  in
  let rows =
    if smoke then
      List.filteri (fun i _ -> i < 4) Table1.rows
    else Table1.rows
  in
  let table1_entries =
    List.map
      (fun row ->
         let p = prepare_row row in
         let name = row.Table1.group ^ ":" ^ row.Table1.row_id in
         let timed witness =
           let t0 = Unix.gettimeofday () in
           let report = check_prepared ~witness p in
           (report, Unix.gettimeofday () -. t0)
         in
         let report, seconds = timed false in
         let _, witness_seconds = timed true in
         let verdict = verdict_string report.Realizability.verdict in
         Format.printf "table1 %-12s %8.4fs (witness %8.4fs) %s@." name
           seconds witness_seconds verdict;
         Jsonl.Obj
           [ ("row", Jsonl.Str name); ("seconds", fixed 4 seconds);
             ("witness_seconds", fixed 4 witness_seconds);
             ("verdict", Jsonl.Str verdict) ])
      rows
  in
  let edit_rows = edit_latency_rows ~smoke in
  let (i50, i95), (c50, c95), (p50, p95) = edit_latency_summary edit_rows in
  List.iter
    (fun (id, incr, cold, pipeline) ->
       Format.printf "edit %-5s incr %8.3fms  cold %8.3fms  pipeline %8.3fms@."
         id (incr *. 1000.) (cold *. 1000.) (pipeline *. 1000.))
    edit_rows;
  let ms seconds = fixed 4 (seconds *. 1000.) in
  let edit_entries =
    List.map
      (fun (id, incr, cold, pipeline) ->
         Jsonl.Obj
           [ ("id", Jsonl.Str id); ("incr_ms", ms incr); ("cold_ms", ms cold);
             ("pipeline_ms", ms pipeline) ])
      edit_rows
  in
  let edit_summary =
    Jsonl.Obj
      [ ("sentences", int (List.length live_document_items));
        ("edits", Jsonl.Arr edit_entries);
        ("incr_p50_ms", ms i50); ("incr_p95_ms", ms i95);
        ("cold_p50_ms", ms c50); ("cold_p95_ms", ms c95);
        ("pipeline_p50_ms", ms p50); ("pipeline_p95_ms", ms p95);
        ("speedup_vs_cold_p95", fixed 2 (c95 /. i95));
        ("speedup_vs_pipeline_p95", fixed 2 (p95 /. i95)) ]
  in
  let cache_entries =
    List.map
      (fun (s : Speccc_cache.Cache.stats) ->
         Jsonl.Obj
           [ ("name", Jsonl.Str s.name); ("hits", int s.hits);
             ("misses", int s.misses); ("evictions", int s.evictions);
             ("size", int s.size); ("capacity", int s.capacity) ])
      (Speccc_cache.Cache.stats ())
  in
  let h = Ltl.hashcons_stats () in
  let snapshot =
    Jsonl.Obj
      [ ("schema", Jsonl.Str "speccc-bench-v1"); ("smoke", Jsonl.Bool smoke);
        ("localize", Jsonl.Arr localize_entries);
        ("table1", Jsonl.Arr table1_entries);
        ("edit_latency", edit_summary);
        ("caches", Jsonl.Arr cache_entries);
        ( "hashcons",
          Jsonl.Obj
            [ ("nodes", int h.Ltl.nodes); ("hits", int h.Ltl.hc_hits);
              ("misses", int h.Ltl.hc_misses) ] ) ]
  in
  let oc = open_out path in
  output_string oc (Jsonl.to_string snapshot);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s@." path

let () =
  let groups =
    match Array.to_list Sys.argv with
    | _ :: ([ _ ] as args) -> args
    | _ :: args when args <> [] -> args
    | _ ->
      [ "table1"; "fig1"; "fig2"; "ablations"; "robots"; "localize";
        "template"; "edit" ]
  in
  List.iter
    (fun group ->
       match group with
       | "table1" -> table1 ()
       | "fig1" -> fig1 ()
       | "fig2" -> fig2 ()
       | "ablations" ->
         ablation_timeabs ();
         ablation_semantic ();
         ablation_engine ();
         ablation_lookahead ()
       | "ablation-timeabs" -> ablation_timeabs ()
       | "ablation-semantic" -> ablation_semantic ()
       | "ablation-engine" -> ablation_engine ()
       | "ablation-lookahead" -> ablation_lookahead ()
       | "robots" -> robot_sweep ()
       | "localize" -> localize_bench ()
       | "template" -> template_bench ()
       | "edit" | "edit-latency" | "edit_latency" -> edit_latency_bench ()
       | "json" -> bench_json ()
       | other -> Format.printf "unknown bench group %S@." other)
    groups
