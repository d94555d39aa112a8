open Speccc_logic
open Speccc_nlp
open Speccc_reasoning

type config = { next_as_x : bool }

let default_config () = { next_as_x = false }

type requirement = {
  text : string;
  tree : Syntax.sentence;
  formula : Ltl.t;
}

type result = {
  requirements : requirement list;
  analyses : Semantic.subject_analysis list;
  relations : Dependency.relation list;
}

(* ---------- subject keys and attribute stripping ---------- *)

(* Attributive status adjectives vanish from the subject and only
   contribute a sign ("a valid blood pressure is unavailable" ↦
   ¬blood_pressure): a word is stripped when the dictionary marks it as
   absorbing and it is not the only word of the substantive. *)
let split_substantive words =
  match words with
  | [] | [ _ ] -> (words, [])
  | _ ->
    let attributes, core =
      List.partition
        (fun w ->
           match Antonym.lookup w with
           | Some { Antonym.absorb = true; _ } -> true
           | Some _ | None -> false)
        words
    in
    if core = [] then (words, []) else (core, attributes)

let subject_key ?resolve_it words =
  let core, attributes = split_substantive words in
  let key = Dependency.subject_key core in
  let key =
    match key, resolve_it with
    | ("it" | "they" | "them"), Some referent -> referent
    | _ -> key
  in
  (key, attributes)

(* ---------- relation extraction for Algorithm 1 ---------- *)

(* Dependents of a subject: copular complements plus attributive status
   adjectives. *)
let clause_relations clause =
  let complement = clause.Syntax.predicate.Syntax.complement in
  List.concat_map
    (fun substantive ->
       let key, attributes = subject_key substantive in
       let dependents =
         attributes @ (match complement with Some c -> [ c ] | None -> [])
       in
       List.map (fun d -> (key, d)) dependents)
    clause.Syntax.subject.Syntax.nouns

let group_clauses group = group.Syntax.clauses

let sentence_clauses s =
  List.concat_map (fun sub -> group_clauses sub.Syntax.body) s.Syntax.leading
  @ group_clauses s.Syntax.main
  @ List.concat_map (fun sub -> group_clauses sub.Syntax.body)
      s.Syntax.trailing

let relations_of_sentences sentences =
  let pairs =
    List.concat_map
      (fun s -> List.concat_map clause_relations (sentence_clauses s))
      sentences
  in
  let order = ref [] in
  let table = Hashtbl.create 32 in
  List.iter
    (fun (subject, dependent) ->
       match Hashtbl.find_opt table subject with
       | None ->
         order := subject :: !order;
         Hashtbl.add table subject [ dependent ]
       | Some deps ->
         if not (List.mem dependent deps) then
           Hashtbl.replace table subject (deps @ [ dependent ]))
    pairs;
  List.rev_map
    (fun subject ->
       { Dependency.subject; dependents = Hashtbl.find table subject })
    !order

(* ---------- clause translation ---------- *)

let apply_sign positive prop =
  if positive then Ltl.prop prop else Ltl.neg (Ltl.prop prop)

(* Proposition(s) for one clause; one literal per substantive, joined
   by the subject conjunction. *)
let clause_atoms analyses ~resolve_it clause =
  let predicate = clause.Syntax.predicate in
  let literal_of_substantive substantive =
    let key, attributes = subject_key ?resolve_it substantive in
    let attribute_sign =
      List.for_all
        (fun w -> not (Antonym.is_negative w))
        attributes
    in
    let base =
      match predicate.Syntax.complement with
      | Some word ->
        let literal =
          Semantic.literal_for analyses ~subject:key ~word
        in
        apply_sign literal.Semantic.positive literal.Semantic.prop
      | None ->
        if predicate.Syntax.verb = "be" then Ltl.prop key
        else Ltl.prop (predicate.Syntax.verb ^ "_" ^ key)
    in
    let base = if attribute_sign then base else Ltl.neg base in
    if predicate.Syntax.negated then Ltl.neg base else base
  in
  let literals =
    List.map literal_of_substantive clause.Syntax.subject.Syntax.nouns
  in
  match clause.Syntax.subject.Syntax.noun_conj with
  | Syntax.And -> Ltl.conj_list literals
  | Syntax.Or -> Ltl.disj_list literals

let is_future_modality = function
  | Some ("will" | "would") -> true
  | Some _ | None -> false

let clause_formula config analyses ~resolve_it clause =
  let base = clause_atoms analyses ~resolve_it clause in
  match clause.Syntax.time_bound with
  | Some t -> Ltl.next_n t base
  | None ->
    (match clause.Syntax.modifier with
     | Some ("eventually" | "sometimes") -> Ltl.eventually base
     | Some ("always" | "globally") -> Ltl.always base
     | Some "next" -> if config.next_as_x then Ltl.next base else base
     | Some _ | None ->
       if is_future_modality clause.Syntax.predicate.Syntax.modality
       then Ltl.eventually base
       else base)

let group_formula config analyses ~resolve_it group =
  let rec go acc clauses conjs =
    match clauses, conjs with
    | [], _ -> acc
    | clause :: rest, conj :: conjs' ->
      let f = clause_formula config analyses ~resolve_it clause in
      let acc' =
        match conj with
        | Syntax.And -> Ltl.conj acc f
        | Syntax.Or -> Ltl.disj acc f
      in
      go acc' rest conjs'
    | clause :: rest, [] ->
      (* more clauses than conjunctions: implicit conjunction *)
      go (Ltl.conj acc (clause_formula config analyses ~resolve_it clause))
        rest []
  in
  match group.Syntax.clauses with
  | [] -> Ltl.tt
  | first :: rest ->
    go (clause_formula config analyses ~resolve_it first) rest
      group.Syntax.clause_conjs

let condition_subordinators =
  [ "if"; "when"; "whenever"; "once"; "while"; "after" ]

let sentence_formula config analyses sentence =
  (* Pronouns in subordinate clauses refer to the main clause's first
     subject. *)
  let referent =
    match sentence.Syntax.main.Syntax.clauses with
    | { Syntax.subject = { Syntax.nouns = first :: _; _ }; _ } :: _ ->
      let key, _ = subject_key first in
      Some key
    | _ -> None
  in
  let resolve_it = referent in
  let main = group_formula config analyses ~resolve_it sentence.Syntax.main in
  (* Trailing until/before templates transform the main block. *)
  let main_block =
    List.fold_left
      (fun acc sub ->
         let body = group_formula config analyses ~resolve_it sub.Syntax.body in
         match sub.Syntax.subordinator with
         | "until" ->
           (* Req-49 template: ¬B → (A W B) *)
           Ltl.implies (Ltl.neg body) (Ltl.weak_until acc body)
         | "before" ->
           (* "A before B": no B until A *)
           Ltl.weak_until (Ltl.neg body) acc
         | _ -> acc)
      main sentence.Syntax.trailing
  in
  let conditions =
    List.filter
      (fun sub -> List.mem sub.Syntax.subordinator condition_subordinators)
      (sentence.Syntax.leading @ sentence.Syntax.trailing)
  in
  let conditioned =
    List.fold_right
      (fun sub acc ->
         let body = group_formula config analyses ~resolve_it sub.Syntax.body in
         Ltl.implies body acc)
      conditions main_block
  in
  (* leading until-subclauses: "Until B, A" = A W B *)
  let conditioned =
    List.fold_left
      (fun acc sub ->
         match sub.Syntax.subordinator with
         | "until" ->
           let body =
             group_formula config analyses ~resolve_it sub.Syntax.body
           in
           Ltl.weak_until acc body
         | _ -> acc)
      conditioned sentence.Syntax.leading
  in
  Ltl.always conditioned

let of_parsed config texts sentences =
  let relations = relations_of_sentences sentences in
  let analyses = Semantic.analyze relations in
  let requirements =
    List.map2
      (fun text tree ->
         { text; tree; formula = sentence_formula config analyses tree })
      texts sentences
  in
  { requirements; analyses; relations }

(* ---------- per-sentence parse cache ----------

   Parsing is the per-sentence part of the front end and reads only the
   built-in lexicon, so a parse tree is a function of the sentence text
   alone: every caller parses through one domain-local LRU keyed by
   text.  The semantic analysis (antonym discovery, Algorithm 1) is
   document-global and always re-runs over the trees, so a cached tree
   can never change a translation. *)

module Parse_lru = Speccc_cache.Cache.Make (Speccc_cache.Cache.String_key)

type parse_cache = Syntax.sentence Parse_lru.t

let parse_capacity =
  Speccc_cache.Cache.capacity ~name:"nlp.parse" ~default:2048

let parses = Parse_lru.create_dls ~name:"nlp.parse" ~capacity:parse_capacity ()

let parse_cache () =
  Parse_lru.create ~name:"nlp.parse" ~capacity:parse_capacity ()

(* Only sentences that parse are cached: a diagnostic carries the
   source line it was reported at. *)
let parse cache ~line text =
  match Parse_lru.find_opt cache text with
  | Some tree -> Ok tree
  | None ->
    let result = Parser.sentence_result ~line text in
    Result.iter (Parse_lru.add cache text) result;
    result

let specification ?parse_cache config texts =
  let cache =
    match parse_cache with Some c -> c | None -> Domain.DLS.get parses
  in
  let tree text =
    match parse cache ~line:0 text with
    | Ok tree -> tree
    | Error diag -> raise (Parser.Error diag.Parser.diag_message)
  in
  of_parsed config texts (List.map tree texts)

let specification_recover config items =
  let cache = Domain.DLS.get parses in
  let parsed, diagnostics =
    List.fold_left
      (fun (parsed, diags) (index, line, text) ->
         match parse cache ~line text with
         | Ok tree -> ((index, text, tree) :: parsed, diags)
         | Error diag -> (parsed, (index, diag) :: diags))
      ([], [])
      (List.mapi (fun index (line, text) -> (index, line, text)) items)
  in
  let parsed = List.rev parsed and diagnostics = List.rev diagnostics in
  let texts = List.map (fun (_, text, _) -> text) parsed in
  let sentences = List.map (fun (_, _, tree) -> tree) parsed in
  let kept = List.map (fun (index, _, _) -> index) parsed in
  (of_parsed config texts sentences, kept, diagnostics)

let formula_of_sentence config text =
  match (specification config [ text ]).requirements with
  | [ { formula; _ } ] -> formula
  | _ -> assert false
