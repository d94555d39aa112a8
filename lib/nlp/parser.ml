exception Error of string

type diagnostic = {
  diag_message : string;
  diag_line : int;
  diag_start : int;
  diag_end : int;
}

(* Internal: a failure that remembers the offending words so
   [sentence_result] can point at them in the source text.  Confined
   to this module; the public surface re-raises plain [Error] (the
   historical contract) or returns a [diagnostic]. *)
exception Located of string * string list

let fail_at words fmt =
  Printf.ksprintf (fun msg -> raise (Located (msg, words))) fmt

let fail fmt = fail_at [] fmt

(* Map the (lowercased) culprit tokens back to a character span in the
   original sentence.  Best-effort: an unlocatable culprit widens to
   the whole sentence, so diagnostics never raise. *)
let span_of_words text words =
  let lower = String.lowercase_ascii text in
  let length = String.length lower in
  let find_from start word =
    let wl = String.length word in
    let boundary i = i < 0 || i >= length || not (Tokenizer.is_word_char lower.[i]) in
    let rec go i =
      if wl = 0 || i + wl > length then None
      else if String.sub lower i wl = word && boundary (i - 1) && boundary (i + wl)
      then Some i
      else go (i + 1)
    in
    go start
  in
  match words with
  | [] -> (0, length)
  | first :: rest ->
    (match find_from 0 first with
     | None -> (0, length)
     | Some start ->
       let stop =
         List.fold_left
           (fun acc word ->
              match find_from acc word with
              | Some i -> i + String.length word
              | None -> acc)
           (start + String.length first) rest
       in
       (start, stop))

let pp_diagnostic ppf diag =
  if diag.diag_line > 0 then
    Format.fprintf ppf "line %d, " diag.diag_line;
  Format.fprintf ppf "columns %d-%d: %s" (diag.diag_start + 1) diag.diag_end
    diag.diag_message

(* ---------- segmentation ---------- *)

type segment = {
  seg_subordinator : string option;
  seg_words : string list;  (* in order *)
}

let is_subordinator word =
  word <> "next" && Lexicon.has_class word Lexicon.Subordinator

let is_conjunction word =
  Lexicon.has_class word Lexicon.Conjunction

(* Any subordinator may open a trailing subordinate clause without a
   preceding comma ("... is enabled until it is pressed", "... will be
   operational whenever the LSTAT is powered on"). *)
let mid_segment_subordinator _word = true

let segment_tokens tokens =
  let close segments sub words =
    match words with
    | [] -> segments
    | _ -> { seg_subordinator = sub; seg_words = List.rev words } :: segments
  in
  let rec walk segments sub words tokens =
    match tokens with
    | [] -> List.rev (close segments sub words)
    | Tokenizer.Period :: rest -> walk segments sub words rest
    | Tokenizer.Comma :: Tokenizer.Word w :: rest
      when is_conjunction w ->
      (* ", and" continues the current clause group *)
      walk segments sub (w :: words) rest
    | Tokenizer.Comma :: rest ->
      (* end of segment; a following subordinator opens the next one *)
      let segments = close segments sub words in
      (match rest with
       | Tokenizer.Word w :: rest' when is_subordinator w ->
         walk segments (Some w) [] rest'
       | _ -> walk segments None [] rest)
    | Tokenizer.Word w :: rest when words = [] && sub = None
                                 && is_subordinator w ->
      walk segments (Some w) [] rest
    | Tokenizer.Word w :: rest when words <> []
                                 && mid_segment_subordinator w
                                 && is_subordinator w ->
      let segments = close segments sub words in
      walk segments (Some w) [] rest
    | Tokenizer.Word w :: rest -> walk segments sub (w :: words) rest
  in
  walk [] None [] tokens

(* ---------- clause parsing ---------- *)

let filter_words =
  [ "the"; "a"; "an"; "both"; "all"; "either"; "this"; "that"; "its";
    "their"; "some"; "any"; "each"; "every"; "then" ]

let is_filter word = List.mem word filter_words

let is_modifier word =
  Lexicon.has_class word Lexicon.Modifier || word = "next"

let is_copula word = Lexicon.has_class word Lexicon.Copula
let is_modal word = Lexicon.has_class word Lexicon.Modal
let is_negation word = Lexicon.has_class word Lexicon.Negation

(* Index of the first word that can start the predicate. *)
let find_predicate_start words =
  let arr = Array.of_list words in
  let n = Array.length arr in
  let rec search i subject_seen =
    if i >= n then None
    else
      let w = arr.(i) in
      if is_copula w || is_modal w || w = "cannot" then Some i
      else if
        (match Morphology.analyze_verb w with
         | Some (_, Morphology.Third_singular) ->
           (* unambiguous finite form; may even open a clause whose
              subject is inherited ("... and triggers an alarm") *)
           not (Lexicon.has_class w Lexicon.Noun)
         | Some (_, Morphology.Base) ->
           subject_seen && not (Lexicon.has_class w Lexicon.Noun)
         | Some (_, Morphology.Past) ->
           subject_seen && not (Lexicon.has_class w Lexicon.Adjective)
         | Some (_, (Morphology.Past_participle | Morphology.Present_participle))
         | None -> false)
      then Some i
      else
        let counts_as_subject =
          (not (is_filter w))
          && (not (is_modifier w))
          && not (is_negation w)
        in
        search (i + 1) (subject_seen || counts_as_subject)
  in
  search 0 false

let parse_subject words =
  let substantives = ref [] in
  let current = ref [] in
  let conj = ref Syntax.And in
  let flush () =
    match !current with
    | [] -> ()
    | phrase ->
      substantives := List.rev phrase :: !substantives;
      current := []
  in
  List.iter
    (fun w ->
       if is_conjunction w then begin
         if w = "or" then conj := Syntax.Or;
         flush ()
       end
       else if is_filter w || is_modifier w then ()
       else current := w :: !current)
    words;
  flush ();
  { Syntax.nouns = List.rev !substantives; noun_conj = !conj }

let particles = [ "on"; "off"; "in"; "out"; "up"; "down" ]

(* Parse the predicate and trailing material (objects, time bound)
   starting at the predicate head.  Returns the predicate, the time
   bound, an optional modifier discovered inside the predicate, and
   the unconsumed words (starting with a conjunction when another
   clause follows). *)
let parse_predicate words =
  let modality = ref None in
  let negated = ref false in
  let passive = ref false in
  let complement = ref None in
  let verb = ref None in
  let modifier = ref None in
  let rec head = function
    | [] -> fail "predicate expected but the clause ended"
    | w :: rest when w = "cannot" ->
      modality := Some "can";
      negated := not !negated;
      head rest
    | w :: rest when is_modal w ->
      if !modality = None then modality := Some w;
      head rest
    | w :: rest when is_negation w ->
      negated := not !negated;
      head rest
    | w :: rest when is_modifier w ->
      modifier := Some w;
      head rest
    | w :: rest when is_copula w ->
      copula_content rest
    | w :: rest ->
      (match Morphology.analyze_verb w with
       | Some (lemma, _) ->
         verb := Some lemma;
         rest
       | None -> fail_at [ w ] "cannot interpret %S as a verb" w)
  and copula_content = function
    | [] ->
      (* bare copula: "the system is" — incomplete *)
      fail "copula without content"
    | w :: rest when is_negation w ->
      negated := not !negated;
      copula_content rest
    | w :: rest when is_modifier w ->
      modifier := Some w;
      copula_content rest
    | w :: rest when is_copula w ->
      (* "will be inflated": second copula *)
      copula_content rest
    | w :: rest ->
      let participle =
        match Morphology.analyze_verb w with
        | Some (lemma, (Morphology.Past | Morphology.Past_participle
                       | Morphology.Present_participle)) ->
          Some lemma
        | Some (_, (Morphology.Base | Morphology.Third_singular)) | None ->
          None
      in
      let adjective =
        Lexicon.has_class w Lexicon.Adjective
        || Lexicon.has_class w Lexicon.Adverb
      in
      (match participle, adjective with
       | Some lemma, false ->
         verb := Some lemma;
         passive := true;
         (* drop a particle ("is plugged in" -> plug), but only at the
            end of the clause — "terminated in 3 seconds" keeps its
            time constraint *)
         (match rest with
          | p :: rest'
            when List.mem p particles
                 && (rest' = []
                     || is_conjunction (List.hd rest')) ->
            rest'
          | _ -> rest)
       | _, true ->
         complement := Some w;
         verb := Some "be";
         rest
       | None, false ->
         (* nominal complement: "X is the input" *)
         complement := Some w;
         verb := Some "be";
         rest)
  in
  let rest = head words in
  (* Trailing material: objects, "in t seconds", clause boundary. *)
  let objects = ref [] in
  let time_bound = ref None in
  let rec tail = function
    | [] -> []
    | w :: rest when is_conjunction w -> w :: rest
    | ("in" | "within") :: t :: rest
      when (match Lexicon.lookup t with
            | Lexicon.Number _ :: _ -> true
            | _ -> false) ->
      (match Lexicon.lookup t with
       | Lexicon.Number n :: _ -> time_bound := Some n
       | _ -> ());
      (match rest with
       | ("second" | "seconds" | "tick" | "ticks" | "minute" | "minutes")
         :: rest' ->
         tail rest'
       | _ -> tail rest)
    | w :: rest when is_modifier w ->
      modifier := Some w;
      tail rest
    | w :: rest ->
      if not (is_filter w || Lexicon.has_class w Lexicon.Preposition)
      then objects := w :: !objects;
      tail rest
  in
  let remaining = tail rest in
  let predicate = {
    Syntax.verb =
      (match !verb with
       | Some v -> v
       | None -> fail "no verb found in predicate");
    negated = !negated;
    modality = !modality;
    passive = !passive;
    complement = !complement;
    objects = List.rev !objects;
  }
  in
  (predicate, !time_bound, !modifier, remaining)

let parse_clause previous_subject words =
  (* leading modifier(s) *)
  let modifier = ref None in
  let rec strip_modifiers = function
    | w :: rest when is_modifier w ->
      modifier := Some w;
      strip_modifiers rest
    | words -> words
  in
  let words = strip_modifiers words in
  match find_predicate_start words with
  | None -> fail_at words "no predicate found in clause %S" (String.concat " " words)
  | Some idx ->
    let subject_words = List.filteri (fun i _ -> i < idx) words in
    let rest_words = List.filteri (fun i _ -> i >= idx) words in
    (* "the alarm never sounds": the adverbial negation sits between
       the subject and the verb; fold it into the predicate ("no" stays
       put — it is part of names like "confirmation no") *)
    let subject_words, pre_negated =
      match List.rev subject_words with
      | ("never" | "not") :: rest -> (List.rev rest, true)
      | _ -> (subject_words, false)
    in
    let subject = parse_subject subject_words in
    let subject =
      if subject.Syntax.nouns = [] then
        match previous_subject with
        | Some s -> s
        | None ->
          fail_at words "clause %S has no subject" (String.concat " " words)
      else subject
    in
    let predicate, time_bound, inner_modifier, remaining =
      parse_predicate rest_words
    in
    let predicate =
      if pre_negated then
        { predicate with Syntax.negated = not predicate.Syntax.negated }
      else predicate
    in
    let modifier =
      match !modifier, inner_modifier with
      | Some m, _ -> Some m
      | None, m -> m
    in
    ({ Syntax.modifier; subject; predicate; time_bound }, remaining)

let parse_clause_group words =
  let rec go previous_subject acc conjs words =
    let clause, remaining = parse_clause previous_subject words in
    let acc = clause :: acc in
    match remaining with
    | [] ->
      { Syntax.clauses = List.rev acc; clause_conjs = List.rev conjs }
    | conj_word :: rest when is_conjunction conj_word ->
      let conj = if conj_word = "or" then Syntax.Or else Syntax.And in
      go (Some clause.Syntax.subject) acc (conj :: conjs) rest
    | w :: _ -> fail_at [ w ] "unexpected word %S after clause" w
  in
  go None [] [] words

(* ---------- sentences ---------- *)

let sentence_located text =
  let tokens =
    try Tokenizer.tokenize text
    with Failure msg -> fail "%s" msg
  in
  let segments = segment_tokens tokens in
  if segments = [] then fail "empty sentence";
  let parse_segment seg = parse_clause_group seg.seg_words in
  (* The main clause group is the concatenation of all segments without
     a subordinator; subordinated segments before the first such
     segment lead, the others trail. *)
  let rec split leading main trailing = function
    | [] -> (List.rev leading, main, List.rev trailing)
    | seg :: rest ->
      (match seg.seg_subordinator with
       | Some sub ->
         let subclause =
           { Syntax.subordinator = sub; body = parse_segment seg }
         in
         if main = None then split (subclause :: leading) main trailing rest
         else split leading main (subclause :: trailing) rest
       | None ->
         let group = parse_segment seg in
         (match main with
          | None -> split leading (Some group) trailing rest
          | Some existing ->
            let merged = {
              Syntax.clauses = existing.Syntax.clauses @ group.Syntax.clauses;
              clause_conjs =
                existing.Syntax.clause_conjs
                @ (Syntax.And :: group.Syntax.clause_conjs);
            }
            in
            split leading (Some merged) trailing rest))
  in
  let leading, main, trailing = split [] None [] segments in
  match main with
  | None -> fail "sentence %S has no main clause" text
  | Some main -> { Syntax.leading; main; trailing }

let sentence text =
  try sentence_located text
  with Located (message, _) -> raise (Error message)

let sentence_result ?(line = 0) text =
  match sentence_located text with
  | tree -> Ok tree
  | exception Located (message, words) ->
    let diag_start, diag_end = span_of_words text words in
    Error { diag_message = message; diag_line = line; diag_start; diag_end }

let sentence_opt text =
  try Some (sentence text) with Error _ -> None

let specification text =
  List.map sentence (Tokenizer.split_sentences text)
