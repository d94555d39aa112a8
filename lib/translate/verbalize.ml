open Speccc_logic
open Speccc_nlp

(* ---------- proposition rendering ---------- *)

(* Passive participles the suffix rules get wrong. *)
let irregular_participles = [
  ("run", "running"); ("lose", "lost"); ("leave", "left");
  ("find", "found"); ("send", "sent"); ("pay", "paid");
  ("ship", "shipped"); ("stop", "stopped"); ("plug", "plugged");
  ("drop", "dropped"); ("go", "going");
]

let participle lemma =
  match List.assoc_opt lemma irregular_participles with
  | Some p -> p
  | None ->
    let n = String.length lemma in
    if n = 0 then lemma
    else if lemma.[n - 1] = 'e' then lemma ^ "d"
    else if
      n >= 2 && lemma.[n - 1] = 'y'
      && not (List.mem lemma.[n - 2] [ 'a'; 'e'; 'i'; 'o'; 'u' ])
    then String.sub lemma 0 (n - 1) ^ "ied"
    else lemma ^ "ed"

let proposition ~positive ap =
  let tokens = String.split_on_char '_' ap in
  let subject rest = String.concat " " rest in
  match tokens with
  | [] -> "the signal is " ^ if positive then "available" else "lost"
  | [ single ] ->
    Printf.sprintf "the %s is %s" single
      (if positive then "available" else "lost")
  | first :: rest when Lexicon.has_class first Lexicon.Adjective
    ->
    Printf.sprintf "the %s is %s%s" (subject rest)
      (if positive then "" else "not ")
      first
  | first :: rest when Lexicon.has_class first Lexicon.Verb ->
    Printf.sprintf "the %s is %s%s" (subject rest)
      (if positive then "" else "not ")
      (participle first)
  | tokens ->
    Printf.sprintf "the %s is %s" (subject tokens)
      (if positive then "available" else "lost")

(* ---------- clause and sentence rendering ---------- *)

(* Boolean bodies render as clause groups: left-associated and/or over
   literal phrases; anything else is out of fragment. *)
let rec boolean formula =
  match formula with
  | Ltl.Prop p -> Some (proposition ~positive:true p)
  | Ltl.Not (Ltl.Prop p) -> Some (proposition ~positive:false p)
  | Ltl.And (g, h) ->
    (match boolean g, boolean h with
     | Some a, Some b -> Some (a ^ " and " ^ b)
     | _ -> None)
  | Ltl.Or (g, h) ->
    (match boolean g, boolean h with
     | Some a, Some b -> Some (a ^ " or " ^ b)
     | _ -> None)
  | Ltl.True | Ltl.False | Ltl.Not _ | Ltl.Implies _ | Ltl.Iff _
  | Ltl.Next _ | Ltl.Eventually _ | Ltl.Always _ | Ltl.Until _
  | Ltl.Weak_until _ | Ltl.Release _ ->
    None

let rec strip_next formula =
  match formula with
  | Ltl.Next inner ->
    let depth, core = strip_next inner in
    (depth + 1, core)
  | _ -> (0, formula)

let sentence formula =
  (* "eventually" and "in t seconds" are clause modifiers in the
     forward direction: they scope over ONE clause, so only literal
     bodies are faithful under them. *)
  let literal_only = function
    | (Ltl.Prop _ | Ltl.Not (Ltl.Prop _)) as l -> boolean l
    | _ -> None
  in
  let response body =
    match body with
    | Ltl.Eventually inner ->
      Option.map (fun text -> `Eventually text) (literal_only inner)
    | Ltl.Next _ ->
      let depth, core = strip_next body in
      (match literal_only core with
       | Some text -> Some (`Deadline (depth, text))
       | None -> None)
    | _ -> Option.map (fun text -> `Plain text) (boolean body)
  in
  let render_main = function
    | `Plain text -> text
    | `Eventually text -> "eventually " ^ text
    | `Deadline (t, text) -> Printf.sprintf "%s in %d seconds" text t
  in
  match formula with
  | Ltl.Always (Ltl.Implies (guard, body)) ->
    (match boolean guard, response body with
     | Some guard_text, Some (`Eventually _ as r) ->
       Some (Printf.sprintf "When %s, %s." guard_text (render_main r))
     | Some guard_text, Some r ->
       Some (Printf.sprintf "If %s, %s." guard_text (render_main r))
     | _ -> None)
  | Ltl.Always body ->
    (match response body with
     | Some (`Eventually text) -> Some ("Eventually " ^ text ^ ".")
     | Some r ->
       let text = render_main r in
       Some (String.capitalize_ascii text ^ ".")
     | None -> None)
  | Ltl.True | Ltl.False | Ltl.Prop _ | Ltl.Not _ | Ltl.And _ | Ltl.Or _
  | Ltl.Implies _ | Ltl.Iff _ | Ltl.Next _ | Ltl.Eventually _ | Ltl.Until _
  | Ltl.Weak_until _ | Ltl.Release _ ->
    None

let roundtrip_checked config formula =
  let module Runtime = Speccc_runtime.Runtime in
  match sentence formula with
  | None ->
    Error
      (Runtime.invalid_input ~stage:"verbalize"
         (Printf.sprintf "formula outside the template fragment: %s"
            (Ltl_print.to_string formula)))
  | Some text ->
    (* The forward translator's tokenizer and parser both raise on
       input outside their grammar; guard confines any such escape
       (not just [Parser.Error]) to a typed value. *)
    (match
       Runtime.guard ~stage:"verbalize" (fun () ->
           Translate.specification config [ text ])
     with
     | Ok { Translate.requirements = [ { Translate.formula = back; _ } ]; _ }
       ->
       Ok back
     | Ok _ ->
       Error
         (Runtime.invalid_input ~stage:"verbalize"
            (Printf.sprintf
               "re-translation of %S did not yield exactly one requirement"
               text))
     | Error error -> Error error)

let roundtrips config formula =
  match roundtrip_checked config formula with
  | Ok back -> Ltl.equal back formula
  | Error _ -> false
