open Speccc_logic
open Speccc_partition
open Speccc_synthesis

type adjustment = {
  moved_to_output : string list;
  moved_to_input : string list;
  partition : Partition.t;
}

let try_moves ~check ~partition moves =
  List.find_map
    (fun (to_output, to_input) ->
       let adjusted = Partition.adjust partition ~to_input ~to_output () in
       if adjusted <> partition && check adjusted then
         Some { moved_to_output = to_output; moved_to_input = to_input;
                partition = adjusted }
       else None)
    moves

let adjust_partition ~check ~partition ~focus =
  let focus = List.sort_uniq compare focus in
  let focus_inputs =
    List.filter (fun p -> List.mem p partition.Partition.inputs) focus
  in
  let focus_outputs =
    List.filter (fun p -> List.mem p partition.Partition.outputs) focus
  in
  (* Single moves first: inputs → output (the common misclassification:
     a variable the system should own was read as an environment
     event), then outputs → input. *)
  let singles =
    List.map (fun p -> ([ p ], [])) focus_inputs
    @ List.map (fun p -> ([], [ p ])) focus_outputs
  in
  let pairs =
    List.concat_map
      (fun p ->
         List.filter_map
           (fun q -> if p < q then Some ([ p; q ], []) else None)
           focus_inputs)
      focus_inputs
  in
  try_moves ~check ~partition (singles @ pairs)

type suggestion = {
  localization : Localize.result option;
  adjustment : adjustment option;
  advice : string;
}

(* Partition adjustment focused on the located requirements, then the
   advice for what remains; [formulas] are the ones [localization]'s
   indices point into. *)
let advise ~check_partition ~partition formulas localization =
  match localization with
  | None ->
    {
      localization = None;
      adjustment = None;
      advice = "specification is consistent; nothing to refine";
    }
  | Some localization ->
    let located_indices =
      localization.Localize.culprit :: localization.Localize.partners
    in
    let focus =
      List.concat_map
        (fun i -> Ltl.props (List.nth formulas i))
        located_indices
    in
    let adjustment = adjust_partition ~check:check_partition ~partition ~focus in
    let advice =
      match adjustment with
      | Some a ->
        Format.asprintf
          "reclassifying {%s} as outputs and {%s} as inputs restores \
           consistency"
          (String.concat ", " a.moved_to_output)
          (String.concat ", " a.moved_to_input)
      | None ->
        Format.asprintf
          "no partition adjustment restores consistency; modify \
           requirement %d (conflicting with requirements %s)"
          localization.Localize.culprit
          (match localization.Localize.partners with
           | [] -> "(itself)"
           | partners ->
             String.concat ", " (List.map string_of_int partners))
    in
    { localization = Some localization; adjustment; advice }

let suggest ~check_subset ~check_partition ~partition formulas =
  advise ~check_partition ~partition formulas
    (Localize.run ~check:check_subset formulas)

(* ---------- stage 3 from a checked outcome ---------- *)

let consistent (_, report) =
  report.Realizability.verdict = Realizability.Consistent

let sorted_ids formulas = List.sort_uniq Int.compare (List.map Ltl.id formulas)

let localize ?memo ?explicit_session options (outcome : Pipeline.outcome) =
  let verdict = outcome.Pipeline.report.Realizability.verdict in
  match verdict with
  | Realizability.Consistent -> None
  | Realizability.Inconsistent | Realizability.Inconclusive _ ->
    let options = { options with Pipeline.certify = false } in
    let assumptions = outcome.Pipeline.assumptions in
    let positioned = outcome.Pipeline.guarantees in
    let guarantees = List.map snd positioned in
    let assumption_ids = sorted_ids assumptions in
    let obligations =
      List.filter (fun f -> not (List.mem (Ltl.id f) assumption_ids))
    in
    let whole = sorted_ids (obligations guarantees) in
    let partition = outcome.Pipeline.partition.Partition.partition in
    (* The one subset check of stage 3: every subset under the
       document's fixed interface — all of its assumptions as
       antecedent, its partition restricted to the propositions in
       play.  A guarantee identical to an assumption is dropped
       (∧A → (a ∧ G) ≡ ∧A → G), and an inconsistent document is not
       solved again. *)
    let check subset =
      match obligations subset with
      | [] -> true
      | subset
        when verdict = Realizability.Inconsistent && sorted_ids subset = whole
        -> false
      | subset ->
        let props = List.concat_map Ltl.props (assumptions @ subset) in
        let restrict = List.filter (fun p -> List.mem p props) in
        let partition =
          { Partition.inputs = restrict partition.Partition.inputs;
            outputs = restrict partition.Partition.outputs }
        in
        consistent
          (Pipeline.check_formulas ~options ~partition ?explicit_session
             ~assumptions subset)
    in
    let position = Array.of_list (List.map fst positioned) in
    let at = List.map (Array.get position) in
    Localize.run ?memo ~check guarantees
    |> Option.map (fun (l : Localize.result) ->
        { Localize.culprit = position.(l.culprit);
          consistent_prefix = at l.consistent_prefix;
          relevant = at l.relevant;
          partners = at l.partners })

let run options (outcome : Pipeline.outcome) =
  let assumptions = outcome.Pipeline.assumptions in
  let guarantees = List.map snd outcome.Pipeline.guarantees in
  let options = { options with Pipeline.certify = false } in
  advise
    ~check_partition:(fun partition ->
        consistent
          (Pipeline.check_formulas ~options ~partition ~assumptions guarantees))
    ~partition:outcome.Pipeline.partition.Partition.partition
    outcome.Pipeline.formulas
    (localize options outcome)
