open Speccc_logic
open Speccc_partition

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

let suggest ~check_subset ~check_partition ~partition formulas =
  match Localize.run ~check:check_subset formulas with
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
