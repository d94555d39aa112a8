open Speccc_logic
open Speccc_runtime

type engine = Explicit | Symbolic | Auto

type verdict =
  | Consistent
  | Inconsistent
  | Inconclusive of string

type rung = {
  rung_engine : string;
  rung_outcome : string;
  rung_error : Runtime.error option;
  rung_wall : float;
}

type report = {
  verdict : verdict;
  engine_used : string;
  controller : Mealy.t option;
  counterstrategy : Bounded.counterstrategy option;
  unsat_core : int list option;
  refuted_on : int list option;
  wall_time : float;
  detail : string;
  degradation : rung list;
}

(* ---------- witness emission (with corruption drill points) ---------- *)

(* Every controller and counterstrategy passes through a
   [Fault.corrupt] checkpoint on its way into the report, so the
   certification layer's rejection path is exercisable from tests: an
   armed [Corrupt] trigger mangles the witness while the verdict stays
   untouched, which certification must then catch. *)

let emit_controller machine =
  if Fault.corrupt Fault.Checkpoint.witness_controller then
    let mask = (1 lsl List.length machine.Mealy.outputs) - 1 in
    { machine with
      Mealy.step =
        (fun state input ->
           let output, next = machine.Mealy.step state input in
           (output lxor mask, next)) }
  else machine

let emit_counterstrategy cs =
  if Fault.corrupt Fault.Checkpoint.witness_counterstrategy then
    (* an environment that never raises an input cannot force an
       input-dependent conflict, so certification's candidate panel
       will produce a satisfying play and reject the witness *)
    { cs with Bounded.cs_move = (fun _ -> 0) }
  else cs

let emit_core core =
  if Fault.corrupt Fault.Checkpoint.witness_core then [] else core

(* ---------- degradation-log hygiene ---------- *)

let stage_name = function
  | `Symbolic -> "symbolic"
  | `Explicit -> "explicit"

let rung_names = List.map stage_name [ `Symbolic; `Explicit ]

(* Ladder rungs first, then the lint floor, the pipeline's
   certification and the ladder's abort, then anything else. *)
let rung_rank name =
  let order = rung_names @ [ "lint"; "certify"; "ladder" ] in
  Option.value ~default:(List.length order)
    (List.find_index (String.equal name) order)

let dedup_degradation rungs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun rung ->
       if Hashtbl.mem seen rung.rung_engine then false
       else begin
         Hashtbl.add seen rung.rung_engine ();
         true
       end)
    rungs

let canonical_degradation report =
  dedup_degradation report.degradation
  |> List.stable_sort (fun a b ->
      compare (rung_rank a.rung_engine) (rung_rank b.rung_engine))

let all_degraded rungs =
  let starved =
    List.exists
      (fun rung ->
         match rung.rung_error with
         | Some error -> Runtime.is_resource error
         | None -> false)
      rungs
  in
  if starved then "all engines degraded or inconclusive under the budget"
  else "all engines degraded or inconclusive"

(* ---------- the lint floor ---------- *)

(* When no rung concluded, a lint pass can still return a sound
   verdict: an unsatisfiable requirement or a conflicting pair refutes
   realizability outright.  The pass runs on a reserve of fuel of its
   own, because it is exactly the engines' fuel that is gone; the
   reserve keeps the check's deadline and cancellation token. *)
let lint_reserve_fuel = 20_000

(* The first conflict, as (core, explanation). *)
let lint_floor ~budget requirements =
  let reserve = Budget.reserve budget ~fuel:lint_reserve_fuel in
  let explain finding =
    let core =
      match finding with
      | Speccc_lint.Lint.Unsatisfiable i -> [ i ]
      | Speccc_lint.Lint.Pair_conflict (i, j, _) -> [ i; j ]
      | Speccc_lint.Lint.Valid _ | Speccc_lint.Lint.Vacuous_guard _ -> []
    in
    ( core,
      Format.asprintf "%a"
        (Speccc_lint.Lint.pp_finding ~requirement_text:(fun _ -> None))
        finding )
  in
  Runtime.timed (fun () ->
      Runtime.guard ~stage:"lint" (fun () ->
          Option.map explain
            (Speccc_lint.Lint.first_conflict ~budget:reserve requirements)))

let explicit_verdict_of = function
  | Bounded.Realizable controller ->
    ( Consistent,
      Some (emit_controller (Minimize.minimize controller)),
      None,
      "controller extracted and minimized" )
  | Bounded.Unrealizable counterstrategy ->
    ( Inconsistent,
      None,
      Some (emit_counterstrategy counterstrategy),
      "environment wins the dual game (counterstrategy extracted)" )
  | Bounded.Unknown k ->
    ( Inconclusive (Printf.sprintf "counting bound %d exhausted" k),
      None,
      None,
      "no side won within the bound" )

(* Rung reports carry no wall time of their own: the ladder times each
   rung around the call and stamps the report it returns. *)
let explicit_report solve =
  let verdict, controller, counterstrategy, detail =
    explicit_verdict_of (solve ())
  in
  {
    verdict;
    engine_used = "explicit";
    controller;
    counterstrategy;
    unsat_core = None;
    refuted_on = None;
    wall_time = 0.;
    detail;
    degradation = [];
  }

(* ---------- refutation on output components ----------

   Unrealizability is upward closed: when a sub-conjunction is
   unrealizable over its own propositions, the environment strategy
   that beats it, lifted to the whole alphabet ({!Bounded.lift}), beats
   every controller for the whole conjunction.  Before the explicit
   rung plays the whole game, it plays the liveness-free requirements
   split into the connected components of the graph whose edges join
   requirements sharing an output: each game is over a few
   propositions, where the whole one may be over too many. *)

let output_components ~outputs requirements =
  let merge components (i, formula) =
    let owned = List.filter (fun p -> List.mem p outputs) (Ltl.props formula) in
    let touching, apart =
      List.partition
        (fun (_, props) -> List.exists (fun p -> List.mem p owned) props)
        components
    in
    ( List.concat_map fst touching @ [ i ],
      List.concat_map snd touching @ owned )
    :: apart
  in
  List.mapi (fun i formula -> (i, formula)) requirements
  |> List.filter (fun (_, formula) -> not (Classify.has_liveness formula))
  |> List.fold_left merge []
  |> List.map (fun (indices, _) -> List.sort Int.compare indices)
  |> List.sort compare

(* The first component the environment wins over its own alphabet, as
   a report carrying the lifted counterstrategy; [None] when every
   component was won by the system, undecided or skipped, or the
   budget's fuel ran out.  Components run without the caller's
   session, whose blocks are tied to the whole alphabet, and without
   the snapshot slot, like the solver's solo games. *)
let refute_on_components ~budget ~bound ~inputs ~outputs requirements =
  let whole = List.length requirements in
  let attempt indices =
    let formulas = List.map (List.nth requirements) indices in
    let props = List.concat_map Ltl.props formulas in
    let restrict = List.filter (fun p -> List.mem p props) in
    let own_inputs = restrict inputs and own_outputs = restrict outputs in
    if List.length indices = whole
    || not (Bounded.fits ~inputs:own_inputs ~outputs:own_outputs ())
    then None
    else
      let detached = Budget.detach budget in
      match
        Fun.protect
          ~finally:(fun () -> Budget.absorb budget detached)
          (fun () ->
             Bounded.solve ~budget:detached ~max_bound:bound
               ~inputs:own_inputs ~outputs:own_outputs formulas)
      with
      | Bounded.Unrealizable cs ->
        let lifted = Bounded.lift cs ~inputs ~outputs in
        Some
          {
            (explicit_report (fun () -> Bounded.Unrealizable lifted)) with
            refuted_on = Some indices;
            detail =
              Printf.sprintf
                "environment wins the dual game on requirements %s over \
                 their own propositions (counterstrategy lifted)"
                (String.concat ", " (List.map string_of_int indices));
          }
      | Bounded.Realizable _ | Bounded.Unknown _ -> None
  in
  try List.find_map attempt (output_components ~outputs requirements)
  with Runtime.Interrupt (Runtime.Fuel_exhausted _) -> None

let run_symbolic ~budget ~witness ~lookahead ~inputs ~outputs spec =
  let had_liveness = Classify.has_liveness spec in
  let max_bound = 4 * lookahead in
  let solve_at ~completed bound =
    let safety_spec =
      if had_liveness then Classify.bound_liveness ~bound spec
      else Nnf.of_formula spec
    in
    (* The base snapshot carries the last lookahead that fully
       completed (the resumable frontier); Obligation.solve adds the
       live fixpoint layer index on top for partial-verdict telemetry. *)
    let snapshot_base =
      Snapshot.make ~engine:"symbolic"
        (("attempting", string_of_int bound)
         :: (match completed with
             | Some k -> [ ("lookahead", string_of_int k) ]
             | None -> []))
    in
    Obligation.solve ~budget ~snapshot_base ~inputs ~outputs safety_spec
  in
  let publish_completed bound =
    Budget.publish budget
      (Snapshot.make ~engine:"symbolic" [ ("lookahead", string_of_int bound) ])
  in
  (* Bounding eventualities is a strengthening, so a loss at one
     look-ahead may be won at a larger one — escalate a few times, as
     G4LTL does with its unroll parameter. *)
  let rec attempt ~completed bound =
    match solve_at ~completed bound with
    | Obligation.Realizable strategy -> Ok (strategy, bound)
    | Obligation.Unrealizable ->
      if had_liveness && 2 * bound <= max_bound then begin
        publish_completed bound;
        attempt ~completed:(Some bound) (2 * bound)
      end
      else begin publish_completed bound; Error bound end
  in
  (* Anytime resume: skip lookaheads a previous attempt already
     refuted; the doubling tail matches a cold run's. *)
  let start, start_completed =
    match Budget.resume_for budget ~engine:"symbolic" with
    | Some snap ->
      (match Snapshot.int_field snap "lookahead" with
       | Some k when k >= lookahead && had_liveness ->
         (max lookahead (min (2 * k) max_bound), Some k)
       | Some _ | None -> (lookahead, None))
    | None -> (lookahead, None)
  in
  match attempt ~completed:start_completed start with
  | Ok (strategy, bound) ->
    (* Enumerating and minimizing the strategy costs far more than
       solving the game on wide alphabets, and only witness readers
       need the machine. *)
    let controller =
      if not witness then None
      else
        Option.map
          (fun machine -> emit_controller (Minimize.minimize machine))
          (Obligation.to_mealy strategy)
    in
    {
      verdict = Consistent;
      engine_used = "symbolic";
      controller;
      counterstrategy = None;
      unsat_core = None;
      refuted_on = None;
      wall_time = 0.;
      detail =
        Printf.sprintf "%s lookahead=%d" (Obligation.stats strategy) bound;
      degradation = [];
    }
  | Error bound ->
    let verdict, detail =
      if had_liveness then
        ( Inconclusive
            (Printf.sprintf "unrealizable at liveness lookahead %d" bound),
          "eventualities were bounded before solving; a larger lookahead \
           may succeed" )
      else (Inconsistent, "safety obligation game lost")
    in
    {
      verdict;
      engine_used = "symbolic";
      controller = None;
      counterstrategy = None;
      unsat_core = None;
      refuted_on = None;
      wall_time = 0.;
      detail;
      degradation = [];
    }

let spec_of ~assumptions requirements =
  let guarantees = Ltl.conj_list requirements in
  match assumptions with
  | [] -> guarantees
  | _ -> Ltl.implies (Ltl.conj_list assumptions) guarantees

(* ---------- the engine ladder ---------- *)

let ladder_stages ~assumptions =
  (* The symbolic obligation game is incomplete for the top-level
     temporal disjunction introduced by assumptions (it could report a
     spurious loss, which the ladder would trust as Inconsistent), so
     assumption-carrying checks start at the exact explicit engine. *)
  if assumptions = [] then [ `Symbolic; `Explicit ] else [ `Explicit ]

let bare_report ~engine_used ~detail verdict =
  {
    verdict;
    engine_used;
    controller = None;
    counterstrategy = None;
    unsat_core = None;
    refuted_on = None;
    wall_time = 0.;
    detail;
    degradation = [];
  }

let skipped_rung ?error stage outcome =
  {
    rung_engine = stage_name stage;
    rung_outcome = "skipped: " ^ outcome;
    rung_error = error;
    rung_wall = 0.;
  }

let check ?budget ?(engine = Auto) ?(lookahead = 6) ?(bound = 8) ?(skip = [])
    ?(assumptions = []) ?explicit_session ?(witness = false) ~inputs
    ~outputs requirements =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let spec = spec_of ~assumptions requirements in
  let run_stage stage rung_budget =
    match stage with
    | `Symbolic ->
      Some
        (run_symbolic ~budget:rung_budget ~witness ~lookahead ~inputs
           ~outputs spec)
    | `Explicit ->
      (* With assumptions the spec is an implication, not a plain
         conjunction: one block, and no components to refute on. *)
      let refuted =
        if assumptions <> [] then None
        else
          refute_on_components ~budget:rung_budget ~bound ~inputs ~outputs
            requirements
      in
      (match refuted with
       | Some report -> Some report
       | None when not (Bounded.fits ~inputs ~outputs ()) -> None
       | None ->
         let formulas = if assumptions = [] then requirements else [ spec ] in
         Some
           (explicit_report (fun () ->
                Bounded.solve ~budget:rung_budget ?session:explicit_session
                  ~max_bound:bound ~inputs ~outputs formulas)))
  in
  let forced = engine <> Auto in
  let stages =
    match engine with
    | Explicit -> [ `Explicit ]
    | Symbolic -> [ `Symbolic ]
    | Auto -> ladder_stages ~assumptions
  in
  (* Rung skipping ([skip], by rung name) serves the server's circuit
     breakers: a rung that keeps failing is bypassed for a cooldown
     window.  Skips apply only to the [Auto] ladder — a forced engine
     is an explicit caller choice — and each skipped rung is recorded
     so the degradation log still explains why the verdict came from a
     lower rung. *)
  let stages, skipped =
    List.partition_map
      (fun stage ->
         if (not forced) && List.mem (stage_name stage) skip then
           Right (skipped_rung stage "circuit breaker open")
         else Left stage)
      stages
  in
  (* Hard memory watermark: under heap pressure the ladder sheds every
     rung but its last — the explicit game, which its letter budget
     keeps to small alphabets; wider documents skip it too and fall to
     the lint floor — and logs the shed rungs as typed
     memory degradations.  Only the [Auto] ladder degrades. *)
  let stages, skipped =
    match List.rev stages with
    | last :: (_ :: _ as shed)
      when (not forced) && Memwatch.level () = Memwatch.Hard ->
      let memory stage =
        skipped_rung stage "hard memory watermark"
          ~error:
            (Runtime.Degraded
               ( "memory",
                 Runtime.Engine_failure
                   (stage_name stage, "hard memory watermark") ))
      in
      ([ last ], skipped @ List.rev_map memory shed)
    | _ -> (stages, skipped)
  in
  let total_wall = ref 0.0 in
  (* Fuel slicing: under a finite budget every rung but the last gets
     half of what remains, so a stuck early engine cannot starve the
     ladder's floor.  Under unlimited fuel the rungs share the budget
     itself (its deadline, token and snapshot slot). *)
  let run_rung ~last stage =
    let rung_budget =
      match Budget.remaining budget with
      | None -> budget
      | Some r -> Budget.child budget ~fuel:(if last then r else max 1 (r / 2))
    in
    let result, rung_wall =
      Runtime.timed (fun () ->
          Runtime.guard ~stage:(stage_name stage) (fun () ->
              run_stage stage rung_budget))
    in
    if rung_budget != budget then Budget.absorb budget rung_budget;
    total_wall := !total_wall +. rung_wall;
    (result, rung_wall)
  in
  let finish log report =
    {
      report with
      wall_time = !total_wall;
      degradation = dedup_degradation (List.rev log);
    }
  in
  (* [detail] is the last inconclusive rung's diagnostics. *)
  let rec descend stages log detail =
    match stages with
    | [] when assumptions <> [] ->
      (* The lint pass reads the requirements alone; without the
         antecedent [∧A] it could refute a document the assumptions
         make realizable, so it has no say here. *)
      finish log
        (bare_report ~engine_used:"none" ~detail
           (Inconclusive (all_degraded log)))
    | [] ->
      (* No rung concluded: the lint pass is the ladder's last step. *)
      let why = all_degraded log in
      let result, rung_wall = lint_floor ~budget requirements in
      total_wall := !total_wall +. rung_wall;
      let lint_rung outcome error =
        { rung_engine = "lint"; rung_outcome = outcome; rung_error = error;
          rung_wall }
      in
      (match result with
       | Ok (Some (core, conflict)) ->
         finish log
           {
             (bare_report ~engine_used:"lint" ~detail:conflict Inconsistent)
             with
             unsat_core = Some (emit_core core);
           }
       | Ok None ->
         finish
           (lint_rung "completed: no conflicts found" None :: log)
           (bare_report ~engine_used:"none" ~detail
              (Inconclusive (why ^ "; lint found no conflict")))
       | Error error ->
         let outcome =
           match error with
           | Runtime.Fuel_exhausted stage ->
             Printf.sprintf "%s: the %d-step lint reserve ran out" stage
               lint_reserve_fuel
           | _ -> Runtime.to_string error
         in
         finish
           (lint_rung outcome (Some error) :: log)
           (bare_report ~engine_used:"none" ~detail (Inconclusive why)))
    | stage :: rest ->
      (match run_rung ~last:(rest = []) stage with
       | Ok None, rung_wall ->
         (* No component refuted and the whole alphabet is too wide:
            inapplicable, forced or not, recorded only once reached. *)
         let why =
           Printf.sprintf
             "%d propositions exceed the explicit engine's letter budget"
             (List.length inputs + List.length outputs)
         in
         descend rest
           ({ (skipped_rung stage why) with rung_wall } :: log)
           detail
       | Ok (Some ({ verdict = Inconsistent; counterstrategy = None; _ }
                   as report)), _
         when witness && List.mem `Explicit rest ->
         (* A symbolic refutation carries no counterstrategy; a caller
            that reads the witness gets one from the explicit rung's
            dual game, and keeps the symbolic verdict if that rung
            cannot produce it. *)
         (match run_rung ~last:false `Explicit with
          | Ok (Some ({ verdict = Inconsistent; _ } as explicit)), _ ->
            finish log explicit
          | _ -> finish log report)
       | Ok (Some ({ verdict = Consistent | Inconsistent; _ } as report)), _ ->
         finish log report
       | Ok (Some report), _ when rest = [] && log = [] ->
         (* a one-rung ladder (a forced engine) reports that engine's
            own inconclusive verdict *)
         finish log report
       | Ok (Some ({ verdict = Inconclusive why; _ } as report)), rung_wall ->
         let rung =
           {
             rung_engine = stage_name stage;
             rung_outcome = "inconclusive: " ^ why;
             rung_error = None;
             rung_wall;
           }
         in
         descend rest (rung :: log) report.detail
       | Error ((Runtime.Timeout _ | Runtime.Cancelled _) as error), _ ->
         (* The wall-clock deadline and cancellation are global: no
            point starting a cheaper engine that will be killed at its
            first poll. *)
         let why = Runtime.to_string error in
         {
           (bare_report ~engine_used:"none" ~detail:why (Inconclusive why))
           with
           wall_time = !total_wall;
           degradation =
             [
               {
                 rung_engine = "ladder";
                 rung_outcome = why;
                 rung_error = Some error;
                 rung_wall = 0.;
               };
             ];
         }
       | Error error, rung_wall ->
         let rung =
           {
             rung_engine = stage_name stage;
             rung_outcome = Runtime.to_string error;
             rung_error = Some error;
             rung_wall;
           }
         in
         descend rest (rung :: log) detail)
  in
  descend stages (List.rev skipped) "every engine in the ladder degraded"
