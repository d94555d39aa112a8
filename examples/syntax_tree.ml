(* Reproduces Figure 2 of the paper: the syntax tree of Req-17,
   "When auto-control mode is entered, eventually the cuff will be
   inflated.", plus the dependency relations Algorithm 1 consumes.

   Run with:  dune exec examples/syntax_tree.exe *)

open Speccc_nlp

let () =
  let text =
    "When auto-control mode is entered, eventually the cuff will be \
     inflated."
  in
  Format.printf "sentence: %s@.@." text;
  let tree = Parser.sentence text in
  Format.printf "%a@.@." Syntax.pp_sentence tree;

  (* The two atomic propositions of the paper's walkthrough. *)
  let config = Speccc_translate.Translate.default_config () in
  let formula = Speccc_translate.Translate.formula_of_sentence config text in
  Format.printf "formula: %s@."
    (Speccc_logic.Ltl_print.to_string
       ~syntax:Speccc_logic.Ltl_print.Paper formula);
  Format.printf "propositions: %s@.@."
    (String.concat ", " (Speccc_logic.Ltl.props formula));

  (* Dependency extraction on a requirement with antonym candidates. *)
  let sentences =
    List.map Parser.sentence
      [
        "If pulse wave or arterial line is available, and cuff is \
         selected, corroboration is triggered.";
        "If pulse wave and arterial line are unavailable, and cuff is \
         selected, and blood pressure is not valid, next manual mode is \
         started.";
      ]
  in
  Format.printf "dependency relations (subject -> antonym candidates):@.";
  List.iter
    (fun r ->
       Format.printf "  %s -> {%s}@." r.Dependency.subject
         (String.concat ", " r.Dependency.dependents))
    (Dependency.of_sentences sentences)
