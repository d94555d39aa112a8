type t =
  | True
  | False
  | Prop of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t
  | Next of t
  | Eventually of t
  | Always of t
  | Until of t * t
  | Weak_until of t * t
  | Release of t * t

(* ---------- hash-consing ----------

   A per-domain unique table maps each structurally-distinct formula to
   one canonical node and a small integer id.  The table is keyed
   structurally, so raw pattern-built formulas still resolve to the
   canonical node; the polymorphic equality used by [Hashtbl]
   short-circuits on physical equality at every subterm, which makes
   bucket comparison effectively O(1) once children are canonical.

   Ids are only meaningful within the domain that assigned them (each
   worker domain of the batch harness owns a private table), which is
   why [equal]/[compare]/[hash] below stay structural: anything that
   could leak into output ordering must not depend on interning order. *)

type hashcons_stats = { nodes : int; hc_hits : int; hc_misses : int }

type unique_table = {
  entries : (t, t * int) Hashtbl.t;
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
}

let unique_key =
  Domain.DLS.new_key (fun () ->
      { entries = Hashtbl.create 1024; next_id = 0; hits = 0; misses = 0 })

let unique () = Domain.DLS.get unique_key

let rec intern_entry u formula =
  match Hashtbl.find_opt u.entries formula with
  | Some entry ->
    u.hits <- u.hits + 1;
    entry
  | None ->
    (* Canonicalize the children first so the stored node shares
       maximally; the rebuilt node is structurally equal to [formula]
       and therefore still absent from the table. *)
    let canonical =
      match formula with
      | True | False | Prop _ -> formula
      | Not g ->
        let g' = fst (intern_entry u g) in
        if g' == g then formula else Not g'
      | Next g ->
        let g' = fst (intern_entry u g) in
        if g' == g then formula else Next g'
      | Eventually g ->
        let g' = fst (intern_entry u g) in
        if g' == g then formula else Eventually g'
      | Always g ->
        let g' = fst (intern_entry u g) in
        if g' == g then formula else Always g'
      | And (g, h) ->
        let g' = fst (intern_entry u g) and h' = fst (intern_entry u h) in
        if g' == g && h' == h then formula else And (g', h')
      | Or (g, h) ->
        let g' = fst (intern_entry u g) and h' = fst (intern_entry u h) in
        if g' == g && h' == h then formula else Or (g', h')
      | Implies (g, h) ->
        let g' = fst (intern_entry u g) and h' = fst (intern_entry u h) in
        if g' == g && h' == h then formula else Implies (g', h')
      | Iff (g, h) ->
        let g' = fst (intern_entry u g) and h' = fst (intern_entry u h) in
        if g' == g && h' == h then formula else Iff (g', h')
      | Until (g, h) ->
        let g' = fst (intern_entry u g) and h' = fst (intern_entry u h) in
        if g' == g && h' == h then formula else Until (g', h')
      | Weak_until (g, h) ->
        let g' = fst (intern_entry u g) and h' = fst (intern_entry u h) in
        if g' == g && h' == h then formula else Weak_until (g', h')
      | Release (g, h) ->
        let g' = fst (intern_entry u g) and h' = fst (intern_entry u h) in
        if g' == g && h' == h then formula else Release (g', h')
    in
    u.misses <- u.misses + 1;
    let id = u.next_id in
    u.next_id <- id + 1;
    let entry = (canonical, id) in
    Hashtbl.replace u.entries canonical entry;
    entry

let intern formula = fst (intern_entry (unique ()) formula)
let id formula = snd (intern_entry (unique ()) formula)
let hashcons formula = intern formula

let equal_fast f g = f == g || id f = id g
let compare_fast f g = if f == g then 0 else Int.compare (id f) (id g)

let hashcons_stats () =
  let u = unique () in
  { nodes = u.next_id; hc_hits = u.hits; hc_misses = u.misses }

(* ---------- smart constructors ----------

   Constant folding as before, with every allocated node routed through
   the unique table.  [conj]/[disj] additionally collapse physically
   equal operands — a test that is free once operands are interned. *)

let tt = True
let ff = False
let prop name = hashcons (Prop name)

let neg = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> hashcons (Not f)

let conj f g =
  match f, g with
  | True, h | h, True -> h
  | False, _ | _, False -> False
  | _ -> if f == g then f else hashcons (And (f, g))

let disj f g =
  match f, g with
  | False, h | h, False -> h
  | True, _ | _, True -> True
  | _ -> if f == g then f else hashcons (Or (f, g))

let implies f g =
  match f, g with
  | True, h -> h
  | False, _ -> True
  | _, True -> True
  | h, False -> neg h
  | _ -> hashcons (Implies (f, g))

let iff f g =
  match f, g with
  | True, h | h, True -> h
  | False, h | h, False -> neg h
  | _ -> hashcons (Iff (f, g))

let next f = hashcons (Next f)

let eventually = function
  | True -> True
  | False -> False
  | Eventually _ as f -> f
  | f -> hashcons (Eventually f)

let always = function
  | True -> True
  | False -> False
  | Always _ as f -> f
  | f -> hashcons (Always f)

let until f g =
  match f, g with
  | _, True -> True
  | _, False -> False
  | True, h -> eventually h
  | False, h -> h
  | _ -> hashcons (Until (f, g))

let weak_until f g =
  match f, g with
  | _, True -> True
  | True, _ -> True
  | False, h -> h
  | f, False -> always f
  | _ -> hashcons (Weak_until (f, g))

let release f g =
  match f, g with
  | _, True -> True
  | _, False -> False
  | True, h -> h
  | False, h -> always h
  | _ -> hashcons (Release (f, g))

let conj_list fs = List.fold_left conj True fs
let disj_list fs = List.fold_left disj False fs

let next_n k f =
  if k < 0 then invalid_arg "Ltl.next_n: negative count";
  let rec loop k f = if k = 0 then f else loop (k - 1) (next f) in
  loop k f

let equal = ( = )
let compare = Stdlib.compare
let hash = Hashtbl.hash

let rec size = function
  | True | False | Prop _ -> 1
  | Not f | Next f | Eventually f | Always f -> 1 + size f
  | And (f, g) | Or (f, g) | Implies (f, g) | Iff (f, g)
  | Until (f, g) | Weak_until (f, g) | Release (f, g) ->
    1 + size f + size g

module String_set = Set.Make (String)

let props formula =
  let rec collect acc = function
    | True | False -> acc
    | Prop p -> String_set.add p acc
    | Not f | Next f | Eventually f | Always f -> collect acc f
    | And (f, g) | Or (f, g) | Implies (f, g) | Iff (f, g)
    | Until (f, g) | Weak_until (f, g) | Release (f, g) ->
      collect (collect acc f) g
  in
  String_set.elements (collect String_set.empty formula)

let rec next_depth = function
  | True | False | Prop _ -> 0
  | Next f -> 1 + next_depth f
  | Not f | Eventually f | Always f -> next_depth f
  | And (f, g) | Or (f, g) | Implies (f, g) | Iff (f, g)
  | Until (f, g) | Weak_until (f, g) | Release (f, g) ->
    max (next_depth f) (next_depth g)

module Int_set = Set.Make (Int)

(* A maximal chain is a run of [Next] whose parent is not a [Next]. *)
let next_chains formula =
  let rec chain_length = function Next f -> 1 + chain_length f | _ -> 0 in
  let rec below = function Next f -> below f | f -> f in
  let rec collect acc = function
    | True | False | Prop _ -> acc
    | Next _ as f ->
      let acc = Int_set.add (chain_length f) acc in
      collect acc (below f)
    | Not f | Eventually f | Always f -> collect acc f
    | And (f, g) | Or (f, g) | Implies (f, g) | Iff (f, g)
    | Until (f, g) | Weak_until (f, g) | Release (f, g) ->
      collect (collect acc f) g
  in
  List.rev (Int_set.elements (collect Int_set.empty formula))

let rec map_props subst = function
  | True -> True
  | False -> False
  | Prop p -> subst p
  | Not f -> neg (map_props subst f)
  | And (f, g) -> conj (map_props subst f) (map_props subst g)
  | Or (f, g) -> disj (map_props subst f) (map_props subst g)
  | Implies (f, g) -> implies (map_props subst f) (map_props subst g)
  | Iff (f, g) -> iff (map_props subst f) (map_props subst g)
  | Next f -> next (map_props subst f)
  | Eventually f -> eventually (map_props subst f)
  | Always f -> always (map_props subst f)
  | Until (f, g) -> until (map_props subst f) (map_props subst g)
  | Weak_until (f, g) -> weak_until (map_props subst f) (map_props subst g)
  | Release (f, g) -> release (map_props subst f) (map_props subst g)

module Self = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Self)
module Map = Map.Make (Self)

let subformulas formula =
  let seen = ref Set.empty in
  let order = ref [] in
  let visit_node f =
    if not (Set.mem f !seen) then begin
      seen := Set.add f !seen;
      order := f :: !order
    end
  in
  let rec visit f =
    (match f with
     | True | False | Prop _ -> ()
     | Not g | Next g | Eventually g | Always g -> visit g
     | And (g, h) | Or (g, h) | Implies (g, h) | Iff (g, h)
     | Until (g, h) | Weak_until (g, h) | Release (g, h) ->
       visit g;
       visit h);
    visit_node f
  in
  visit formula;
  List.rev !order

