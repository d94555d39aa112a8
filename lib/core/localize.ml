open Speccc_logic

type result = {
  culprit : int;
  consistent_prefix : int list;
  relevant : int list;
  partners : int list;
}

module String_set = Set.Make (String)

let props_set formula = String_set.of_list (Ltl.props formula)

let shares_props a b =
  not (String_set.is_empty (String_set.inter (props_set a) (props_set b)))

(* Minimal subset of [candidates] (indices into the formula array) that
   is inconsistent together with the culprit: drop candidates one at a
   time, keeping the set inconsistent. *)
let shrink_partners ~check_indices culprit candidates =
  let inconsistent indices = not (check_indices (culprit :: indices)) in
  if not (inconsistent candidates) then
    (* The culprit only conflicts with the full context; keep all. *)
    candidates
  else
    let rec minimize kept = function
      | [] -> List.rev kept
      | index :: rest ->
        if inconsistent (List.rev_append kept rest) then
          (* droppable *)
          minimize kept rest
        else minimize (index :: kept) rest
    in
    minimize [] candidates

(* Subset verdicts are memoized by the sorted list of formula ids, so
   the localization protocol never re-checks a conjunction set it has
   already decided — most prominently, [grow]'s final step re-examines
   the full set that [run] just checked, and the shrink loop revisits
   sets that differ only in member order.  This leans on the checker
   being extensional: its verdict must depend on the *set* of
   requirements, not their order or multiplicity, which holds for the
   realizability checkers used here (conjunction is the spec).

   There is one table.  A run without a memo gets a fresh one, so no
   state survives it.  A caller that re-localizes the same evolving
   document (the watch session) passes one memo per session instead;
   it is keyed by formula ids — content-addressed, so an edited
   sentence gets a fresh id and can never be served a stale verdict.
   There is deliberately no shared cache here: a per-run nonce salting
   a global LRU only filled it with entries no later run could reach. *)

type memo = (int list, bool) Hashtbl.t

let memo () : memo = Hashtbl.create 64

let memo_length = Hashtbl.length

let prune_memo memo ~retain =
  let stale =
    Hashtbl.fold
      (fun ids _ acc ->
         if List.for_all retain ids then acc else ids :: acc)
      memo []
  in
  List.iter (Hashtbl.remove memo) stale;
  List.length stale

let run ?memo:(decided = memo ()) ~check formulas =
  let formulas_array = Array.of_list formulas in
  let n = Array.length formulas_array in
  let ids = Array.map Ltl.id formulas_array in
  let check_indices indices =
    let sorted = List.sort_uniq Int.compare indices in
    let key = List.sort Int.compare (List.map (fun i -> ids.(i)) sorted) in
    match Hashtbl.find_opt decided key with
    | Some verdict -> verdict
    | None ->
      let verdict = check (List.map (fun i -> formulas_array.(i)) indices) in
      Hashtbl.replace decided key verdict;
      verdict
  in
  if check_indices (List.init n Fun.id) then None
  else begin
    (* Incremental growth: add requirements in order while the subset
       stays consistent. *)
    let rec grow accepted index =
      if index >= n then None
      else if check_indices (List.rev (index :: accepted)) then
        grow (index :: accepted) (index + 1)
      else Some (List.rev accepted, index)
    in
    match grow [] 0 with
    | None ->
      (* Each prefix was consistent, yet the whole set is not: numeric
         instability cannot happen with a deterministic checker, but a
         non-monotone check (bound effects) can land here; report the
         last requirement as culprit. *)
      let last = n - 1 in
      Some
        {
          culprit = last;
          consistent_prefix = List.init last Fun.id;
          relevant = [];
          partners = [];
        }
    | Some (prefix, culprit) ->
      let culprit_formula = formulas_array.(culprit) in
      let relevant =
        List.filter
          (fun i -> shares_props formulas_array.(i) culprit_formula)
          prefix
      in
      let partners = shrink_partners ~check_indices culprit relevant in
      Some { culprit; consistent_prefix = prefix; relevant; partners }
  end

let pp ppf result =
  let show = function
    | [] -> "(none)"
    | l -> String.concat ", " (List.map string_of_int l)
  in
  Format.fprintf ppf
    "@[<v>culprit: requirement %d@,consistent prefix: %s@,relevant: \
     %s@,minimal partners: %s@]"
    result.culprit
    (show result.consistent_prefix)
    (show result.relevant)
    (show result.partners)
