type verb_form =
  | Base
  | Third_singular
  | Past
  | Past_participle
  | Present_participle

(* surface ↦ (lemma, form); participles double as adjectival passives *)
let irregular = [
  ("ran", ("run", Past)); ("running", ("run", Present_participle));
  ("run", ("run", Base));
  ("lost", ("lose", Past_participle)); ("losing", ("lose", Present_participle));
  ("went", ("go", Past)); ("gone", ("go", Past_participle));
  ("going", ("go", Present_participle));
  ("left", ("leave", Past_participle)); ("leaving", ("leave", Present_participle));
  ("found", ("find", Past_participle)); ("finding", ("find", Present_participle));
  ("sent", ("send", Past_participle)); ("sending", ("send", Present_participle));
  ("read", ("read", Base));
  ("paid", ("pay", Past_participle)); ("paying", ("pay", Present_participle));
  ("shipped", ("ship", Past_participle)); ("shipping", ("ship", Present_participle));
  ("stopped", ("stop", Past_participle)); ("stopping", ("stop", Present_participle));
  ("plugged", ("plug", Past_participle)); ("plugging", ("plug", Present_participle));
  ("dropped", ("drop", Past_participle)); ("dropping", ("drop", Present_participle));
]

let ends_with suffix word =
  let ls = String.length suffix and lw = String.length word in
  lw > ls && String.sub word (lw - ls) ls = suffix

let strip n word = String.sub word 0 (String.length word - n)

let candidate_lemmas word =
  (* Possible lemmas for a regular inflection, most specific first. *)
  let candidates = ref [] in
  let push form lemma = candidates := (lemma, form) :: !candidates in
  if ends_with "ied" word then push Past (strip 3 word ^ "y");
  if ends_with "ies" word then push Third_singular (strip 3 word ^ "y");
  if ends_with "ed" word then begin
    push Past (strip 2 word);          (* pressed -> press *)
    push Past (strip 1 word);          (* issued -> issue *)
    (* consonant doubling: plugged -> plug *)
    let stem = strip 2 word in
    let n = String.length stem in
    if n >= 2 && stem.[n - 1] = stem.[n - 2] then push Past (strip 1 stem)
  end;
  if ends_with "ing" word then begin
    push Present_participle (strip 3 word);
    push Present_participle (strip 3 word ^ "e");  (* losing -> lose *)
    let stem = strip 3 word in
    let n = String.length stem in
    if n >= 2 && stem.[n - 1] = stem.[n - 2] then
      push Present_participle (strip 1 stem)
  end;
  if ends_with "es" word then push Third_singular (strip 2 word);
  if ends_with "s" word then push Third_singular (strip 1 word);
  List.rev !candidates

let analyze_verb word =
  let word = String.lowercase_ascii word in
  match List.assoc_opt word irregular with
  | Some (lemma, form) -> Some (lemma, form)
  | None ->
    if Lexicon.has_class word Lexicon.Verb then Some (word, Base)
    else
      List.find_map
        (fun (lemma, form) ->
           if Lexicon.has_class lemma Lexicon.Verb then
             Some (lemma, form)
           else None)
        (candidate_lemmas word)

let lemma word =
  match analyze_verb word with
  | Some (lemma, _) -> lemma
  | None -> String.lowercase_ascii word
