open Speccc_nlp

type color = Green | Blue

type colored_word = {
  word : string;
  color : color;
  antonyms_found : string list;
}

type subject_analysis = {
  subject : string;
  words : colored_word list;
}

(* Algorithm 1.  The paper first groups antonym candidates by subject
   (done upstream by Dependency.of_sentences), then, for subjects with
   more than one dependent, looks every word up in the dictionary and
   marks words blue when the intersection of their antonym set with
   the sibling dependents is non-empty. *)
let analyze relations =
  let analyze_relation { Dependency.subject; dependents } =
    if List.length dependents <= 1 then
      {
        subject;
        words =
          List.map
            (fun word -> { word; color = Green; antonyms_found = [] })
            dependents;
      }
    else
      let colored =
        List.map
          (fun word ->
             let known_antonyms = Antonym.antonyms word in
             let found =
               List.filter
                 (fun other -> List.mem other known_antonyms)
                 dependents
             in
             match found with
             | [] -> { word; color = Green; antonyms_found = [] }
             | _ -> { word; color = Blue; antonyms_found = found })
          dependents
      in
      { subject; words = colored }
  in
  List.map analyze_relation relations

type literal = {
  prop : string;
  positive : bool;
}

let literal_for analyses ~subject ~word =
  let analysis =
    match List.find_opt (fun a -> a.subject = subject) analyses with
    | Some a -> a
    | None -> { subject; words = [ { word; color = Green; antonyms_found = [] } ] }
  in
  let coloring =
    List.find_opt (fun c -> c.word = word) analysis.words
  in
  let entry = Antonym.lookup word in
  match entry with
  | None ->
    (* Unknown word: keep it verbatim (green path). *)
    { prop = word ^ "_" ^ subject; positive = true }
  | Some { Antonym.pair; polarity; absorb; _ } ->
    let positive = polarity = Antonym.Positive in
    let blue =
      match coloring with
      | Some { color = Blue; _ } -> true
      | Some { color = Green; _ } | None -> false
    in
    if absorb then
      (* Status adjective: the proposition is the bare subject and the
         word only contributes a sign (appendix abbreviation:
         available_pulse_wave ↦ pulse_wave, low ↦ ¬subject). *)
      { prop = subject; positive }
    else if blue then
      (* Pair discovered by Algorithm 1: replace the negative member by
         the negation of the positive form. *)
      { prop = pair ^ "_" ^ subject; positive }
    else
      (* Known word, but no partner in the spec and not absorbing:
         keep the full form with its own positive sign (the word is
         the proposition, e.g. operational_cara). *)
      { prop = word ^ "_" ^ subject; positive = true }

let reduction_count relations =
  let analyses = analyze relations in
  let all_pairs =
    List.concat_map
      (fun { Dependency.subject; dependents } ->
         List.map (fun word -> (subject, word)) dependents)
      relations
  in
  let without = List.length all_pairs in
  let reduced =
    List.sort_uniq compare
      (List.map
         (fun (subject, word) ->
            let literal = literal_for analyses ~subject ~word in
            literal.prop)
         all_pairs)
  in
  (without, List.length reduced)
