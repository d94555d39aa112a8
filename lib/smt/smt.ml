open Speccc_sat

type term = {
  bits : Bitvec.t;
  lo : int;   (* conservative interval, used to size comparisons *)
  hi : int;
}

type ctx = {
  sat : Sat.t;
  tseitin : Tseitin.t;
}

type atom = Tseitin.lit
type model = bool array

let create () =
  let sat = Sat.create () in
  { sat; tseitin = Tseitin.create sat }

let const ctx value =
  let w = Bitvec.width_for (min value 0) (max value 0) in
  { bits = Bitvec.of_int ctx.tseitin ~width:w value; lo = value; hi = value }

let eq ctx a b = Bitvec.eq ctx.tseitin a.bits b.bits
let le ctx a b = Bitvec.le ctx.tseitin a.bits b.bits
let lt ctx a b = Bitvec.lt ctx.tseitin a.bits b.bits
let ge ctx a b = le ctx b a
let gt ctx a b = lt ctx b a
let assert_atom ctx lit = Tseitin.assert_lit ctx.tseitin lit

let var ctx ~lo ~hi =
  if lo > hi then invalid_arg "Smt.var: empty range";
  let w = Bitvec.width_for lo hi in
  let bits = Bitvec.fresh ctx.tseitin ~width:w in
  let term = { bits; lo; hi } in
  (* Range clauses: lo <= x <= hi. *)
  assert_atom ctx (le ctx (const ctx lo) term);
  assert_atom ctx (le ctx term (const ctx hi));
  term

let add ctx a b =
  { bits = Bitvec.add ctx.tseitin a.bits b.bits;
    lo = a.lo + b.lo;
    hi = a.hi + b.hi }

let neg ctx a =
  { bits = Bitvec.neg ctx.tseitin a.bits; lo = -a.hi; hi = -a.lo }

let sub ctx a b = add ctx a (neg ctx b)

let mul ctx a b =
  let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
  { bits = Bitvec.mul ctx.tseitin a.bits b.bits;
    lo = List.fold_left min max_int products;
    hi = List.fold_left max min_int products }

let scale ctx k a = mul ctx (const ctx k) a

let sum ctx = function
  | [] -> const ctx 0
  | first :: rest -> List.fold_left (add ctx) first rest

let value model term = Bitvec.decode model term.bits

let solve ctx =
  match Sat.solve ctx.sat with
  | Sat.Sat m -> Some m
  | Sat.Unsat -> None

(* Binary search for the least objective value.  Upper/lower bounds
   start from the term's static interval; each probe solves under an
   assumption literal encoding [obj <= mid]. *)
let minimize ctx objective =
  match solve ctx with
  | None -> None
  | Some initial_model ->
    let best_model = ref initial_model in
    let best = ref (value initial_model objective) in
    let lower = ref objective.lo in
    while !lower < !best do
      let mid = !lower + ((!best - !lower) / 2) in
      let bound_lit = le ctx objective (const ctx mid) in
      match Sat.solve ~assumptions:[ bound_lit ] ctx.sat with
      | Sat.Sat m ->
        best_model := m;
        best := value m objective
      | Sat.Unsat -> lower := mid + 1
    done;
    Some (!best, !best_model)

let minimize_lex ctx objectives =
  let rec go achieved = function
    | [] ->
      (match solve ctx with
       | None -> None
       | Some m -> Some (List.rev achieved, m))
    | objective :: rest ->
      (match minimize ctx objective with
       | None -> None
       | Some (best, _) ->
         assert_atom ctx (eq ctx objective (const ctx best));
         go (best :: achieved) rest)
  in
  go [] objectives

let stats ctx = (Sat.num_vars ctx.sat, Sat.num_clauses ctx.sat)
