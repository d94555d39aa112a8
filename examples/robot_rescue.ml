(* The rescue-robot case study: generate the scenario, check
   consistency, extract the controller and drive it.

   Run with:  dune exec examples/robot_rescue.exe *)

open Speccc_logic
open Speccc_synthesis
open Speccc_casestudies

let () =
  let scenario = Robot.scenario ~robots:1 ~rooms:4 in
  Format.printf "=== rescue robot: %d robot(s), %d rooms, %d formulas ===@.@."
    scenario.Robot.robots scenario.Robot.rooms
    (List.length scenario.Robot.formulas);

  List.iteri
    (fun i f ->
       Format.printf "  [%d] %s@." i (Ltl_print.to_string f))
    scenario.Robot.formulas;

  let report =
    Realizability.check ~engine:Realizability.Symbolic ~witness:true
      ~inputs:scenario.Robot.inputs ~outputs:scenario.Robot.outputs
      scenario.Robot.formulas
  in
  Format.printf "@.verdict: %s (%.3fs, %s)@."
    (match report.Realizability.verdict with
     | Realizability.Consistent -> "consistent — controller synthesized"
     | Realizability.Inconsistent -> "inconsistent"
     | Realizability.Inconclusive why -> "inconclusive: " ^ why)
    report.Realizability.wall_time report.Realizability.detail;

  (* Drive the controller: an injured person appears at step 2; watch
     the robot's room assignment and the carry flag. *)
  match report.Realizability.controller with
  | None -> Format.printf "no explicit controller available@."
  | Some machine ->
    Format.printf "@.controller: %d states; simulating 8 steps:@."
      machine.Mealy.num_states;
    let letters =
      Mealy.run machine
        [
          [ ("injured_seen", false); ("at_medic", false) ];
          [ ("injured_seen", false); ("at_medic", false) ];
          [ ("injured_seen", true); ("at_medic", false) ];
          [ ("injured_seen", false); ("at_medic", false) ];
          [ ("injured_seen", false); ("at_medic", true) ];
          [ ("injured_seen", false); ("at_medic", false) ];
          [ ("injured_seen", false); ("at_medic", false) ];
          [ ("injured_seen", false); ("at_medic", false) ];
        ]
    in
    List.iteri
      (fun step letter ->
         let trues =
           List.filter_map (fun (p, b) -> if b then Some p else None) letter
         in
         Format.printf "  step %d: {%s}@." step (String.concat ", " trues))
      letters;
    (* Validate against the specification's exact semantics. *)
    let spec = Ltl.conj_list scenario.Robot.formulas in
    Format.printf "@.Monte-Carlo check against the LTL semantics: %s@."
      (if Mealy.satisfies machine spec ~trials:50 ~seed:11 then "PASS"
       else "FAIL")
