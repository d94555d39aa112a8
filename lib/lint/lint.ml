open Speccc_logic
open Speccc_automata

type finding =
  | Unsatisfiable of int
  | Valid of int
  | Pair_conflict of int * int * Trace.t
  | Vacuous_guard of int

let satisfiable ?budget formula = Nbw.find_word (Nbw.of_ltl ?budget formula)
let valid ?budget formula = satisfiable ?budget (Ltl.neg formula) = None
let equivalent f g = valid (Ltl.iff f g)

(* The guard of a translated requirement: □(guard → _). *)
let guard_of = function
  | Ltl.Always (Ltl.Implies (guard, _)) -> Some guard
  | Ltl.True | Ltl.False | Ltl.Prop _ | Ltl.Not _ | Ltl.And _ | Ltl.Or _
  | Ltl.Implies _ | Ltl.Iff _ | Ltl.Next _ | Ltl.Eventually _ | Ltl.Always _
  | Ltl.Until _ | Ltl.Weak_until _ | Ltl.Release _ ->
    None

exception First of finding

(* Per-requirement and pairwise findings, in index order.  Under
   [conflicts_only] no validity is checked and the pass stops at its
   first conflict by raising [First]. *)
let requirement_findings ~satisfiable ~valid ~conflicts_only formulas =
  let n = Array.length formulas in
  let findings = ref [] in
  let add finding =
    if conflicts_only then raise (First finding);
    findings := finding :: !findings
  in
  (* per-requirement checks; a model doubles as a pair's witness *)
  let models = Array.make n None in
  for i = 0 to n - 1 do
    match satisfiable formulas.(i) with
    | None -> add (Unsatisfiable i)
    | Some model ->
      models.(i) <- Some model;
      if (not conflicts_only) && valid formulas.(i) then add (Valid i)
  done;
  (* pairwise conflicts — only meaningful when both sides are
     individually satisfiable, and bounded to keep the pass cheap *)
  if n <= 60 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match (models.(i), models.(j)) with
        | Some witness, Some _
          when satisfiable (Ltl.conj formulas.(i) formulas.(j)) = None ->
          add (Pair_conflict (i, j, witness))
        | _ -> ()
      done
    done;
  List.rev !findings

let first_conflict ?budget formulas =
  Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.pipeline_lint;
  match
    requirement_findings ~satisfiable:(satisfiable ?budget)
      ~valid:(valid ?budget) ~conflicts_only:true (Array.of_list formulas)
  with
  | _ -> None
  | exception First conflict -> Some conflict

(* The precise vacuity context of a small specification is the whole
   specification, whose tableau is exponential in the number of
   conjuncts: it is built on this many steps of its own.  Past them,
   and for specifications beyond 10 requirements, the guard is only
   checked on its own (a contradictory guard is vacuous under any
   context). *)
let context_reserve_fuel = 20_000

let vacuity_context ?budget formulas =
  if Array.length formulas > 10 then Some Ltl.tt
  else
    let reserve =
      match budget with
      | Some budget ->
        Speccc_runtime.Budget.reserve budget ~fuel:context_reserve_fuel
      | None -> Speccc_runtime.Budget.create ~fuel:context_reserve_fuel ()
    in
    let whole = Ltl.conj_list (Array.to_list formulas) in
    match satisfiable ~budget:reserve whole with
    | Some _ -> Some whole
    | None -> None
    | exception
        Speccc_runtime.Runtime.Interrupt
          (Speccc_runtime.Runtime.Fuel_exhausted _) ->
      Some Ltl.tt

let check ?budget formulas =
  Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.pipeline_lint;
  let satisfiable f = satisfiable ?budget f in
  let valid f = valid ?budget f in
  let formulas = Array.of_list formulas in
  let findings =
    requirement_findings ~satisfiable ~valid ~conflicts_only:false formulas
  in
  (* Vacuous guards; an unsatisfiable whole specification has no
     context, and its pairs already blame. *)
  let vacuous =
    match vacuity_context ?budget formulas with
    | None -> []
    | Some context ->
      List.filter_map
        (fun i ->
           match guard_of formulas.(i) with
           | Some guard
             when satisfiable (Ltl.conj context (Ltl.eventually guard)) = None
             ->
             Some (Vacuous_guard i)
           | Some _ | None -> None)
        (List.init (Array.length formulas) Fun.id)
  in
  findings @ vacuous

let pp_finding ~requirement_text ppf finding =
  let describe i =
    match requirement_text i with
    | Some text -> Printf.sprintf "requirement %d (%s)" i text
    | None -> Printf.sprintf "requirement %d" i
  in
  match finding with
  | Unsatisfiable i ->
    Format.fprintf ppf "%s is self-contradictory (unsatisfiable)"
      (describe i)
  | Valid i ->
    Format.fprintf ppf "%s is a tautology — it constrains nothing"
      (describe i)
  | Pair_conflict (i, j, _) ->
    Format.fprintf ppf "%s and %s cannot hold together" (describe i)
      (describe j)
  | Vacuous_guard i ->
    Format.fprintf ppf
      "%s never fires: its guard is unreachable under the specification"
      (describe i)
