(* Two inconsistency demos.

   1. Footnote 1 of the paper: "the output should always be the same
      as the input 3 time ticks from now" — G (output <-> XXX input) —
      is well-formed but unrealizable: an implementation would need
      clairvoyance.  The dual game proves it.

   2. A seeded CARA variant whose two conflicting requirements are not
      neighbours; the Sec. V-B localization finds the pair and the
      refinement loop reports what to do.

   Run with:  dune exec examples/unrealizable_clairvoyance.exe *)

open Speccc_logic
open Speccc_core
open Speccc_synthesis

let verdict_string = function
  | Realizability.Consistent -> "consistent (controller exists)"
  | Realizability.Inconsistent -> "INCONSISTENT (provably unrealizable)"
  | Realizability.Inconclusive why -> "inconclusive: " ^ why

let () =
  Format.printf "=== 1. the clairvoyance example (footnote 1) ===@.";
  let clairvoyance = Ltl_parse.formula "G (output <-> X X X input)" in
  Format.printf "spec: %s@."
    (Ltl_print.to_string ~syntax:Ltl_print.Paper clairvoyance);
  let report =
    Realizability.check ~engine:Realizability.Explicit
      ~inputs:[ "input" ] ~outputs:[ "output" ] [ clairvoyance ]
  in
  Format.printf "verdict: %s (%.3fs)@.@."
    (verdict_string report.Realizability.verdict)
    report.Realizability.wall_time;

  Format.printf "=== 2. localization on a seeded CARA variant ===@.";
  (* Requirements 0 and 3 conflict; 1 and 2 are innocent bystanders, so
     the culprit pair is not neighbouring — the case the paper's
     incremental strategy is for. *)
  let texts = [
    "If the cuff is lost, the alarm is triggered.";
    "If manual mode is running, corroboration is triggered.";
    "If the pump is lost, override selection is provided.";
    "If the cuff is lost, the alarm is not triggered.";
  ]
  in
  List.iteri (fun i t -> Format.printf "  [%d] %s@." i t) texts;
  let options =
    { (Pipeline.default_options ()) with
      Pipeline.engine = Realizability.Explicit }
  in
  let outcome = Pipeline.run ~options texts in
  Format.printf "@.whole specification: %s@."
    (verdict_string outcome.Pipeline.report.Realizability.verdict);

  let suggestion = Refine.run options outcome in
  (match suggestion.Refine.localization with
   | Some localization -> Format.printf "@.%a@." Localize.pp localization
   | None -> ());
  Format.printf "advice: %s@." suggestion.Refine.advice
