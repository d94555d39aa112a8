type lit = int

type gate_key =
  | Key_and of int list
  | Key_or of int list
  | Key_xor of int * int

type t = {
  sat : Sat.t;
  constant_true : lit;
  cache : (gate_key, lit) Hashtbl.t;
}

let create sat =
  let v = Sat.new_var sat in
  Sat.add_clause sat [ v ];
  { sat; constant_true = v; cache = Hashtbl.create 256 }

let solver t = t.sat
let true_lit t = t.constant_true
let false_lit t = -t.constant_true
let fresh t = Sat.new_var t.sat
let mk_not lit = -lit

let lit_value model lit =
  let v = model.(abs lit) in
  if lit > 0 then v else not v

let cached t key build =
  match Hashtbl.find_opt t.cache key with
  | Some lit -> lit
  | None ->
    let lit = build () in
    Hashtbl.add t.cache key lit;
    lit

let mk_and t inputs =
  let inputs = List.sort_uniq compare inputs in
  if List.exists (fun l -> l = false_lit t) inputs
  || List.exists (fun l -> List.mem (-l) inputs) inputs
  then false_lit t
  else
    match List.filter (fun l -> l <> true_lit t) inputs with
    | [] -> true_lit t
    | [ single ] -> single
    | inputs ->
      cached t (Key_and inputs) (fun () ->
          let out = fresh t in
          List.iter (fun l -> Sat.add_clause t.sat [ -out; l ]) inputs;
          Sat.add_clause t.sat (out :: List.map (fun l -> -l) inputs);
          out)

let mk_or t inputs =
  let inputs = List.sort_uniq compare inputs in
  if List.exists (fun l -> l = true_lit t) inputs
  || List.exists (fun l -> List.mem (-l) inputs) inputs
  then true_lit t
  else
    match List.filter (fun l -> l <> false_lit t) inputs with
    | [] -> false_lit t
    | [ single ] -> single
    | inputs ->
      cached t (Key_or inputs) (fun () ->
          let out = fresh t in
          List.iter (fun l -> Sat.add_clause t.sat [ out; -l ]) inputs;
          Sat.add_clause t.sat (-out :: inputs);
          out)

let mk_xor t a b =
  if a = true_lit t then -b
  else if a = false_lit t then b
  else if b = true_lit t then -a
  else if b = false_lit t then a
  else if a = b then false_lit t
  else if a = -b then true_lit t
  else
    let a, b = if a < b then a, b else b, a in
    cached t (Key_xor (a, b)) (fun () ->
        let out = fresh t in
        Sat.add_clause t.sat [ -out; a; b ];
        Sat.add_clause t.sat [ -out; -a; -b ];
        Sat.add_clause t.sat [ out; -a; b ];
        Sat.add_clause t.sat [ out; a; -b ];
        out)

let mk_iff t a b = mk_not (mk_xor t a b)
let mk_ite t c a b = mk_or t [ mk_and t [ c; a ]; mk_and t [ -c; b ] ]
let assert_lit t lit = Sat.add_clause t.sat [ lit ]
