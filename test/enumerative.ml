(* Reference oracle for the explicit engine: the original enumerative
   bounded-synthesis solver.  It explores every counting function
   reachable from the initial one, computes the safety winning region
   by a greatest fixpoint on the explicit game graph, and extracts
   witnesses with the "first winning move" preference.  It works on
   the monolithic automaton NBW(¬spec) and shares no code with
   [Bounded] — only the verdict types, so results compare directly. *)

open Speccc_logic
open Speccc_automata
open Speccc_synthesis

(* Guards as (mask, value) over the input-then-output bit layout;
   [None] for a guard that needs an unknown proposition to hold. *)
let compile auto ~inputs ~outputs =
  let props = inputs @ outputs in
  let bit p =
    let rec find i = function
      | [] -> None
      | q :: rest -> if q = p then Some i else find (i + 1) rest
    in
    find 0 props
  in
  let by_src = Array.make auto.Nbw.num_states [] in
  List.iter
    (fun (src, guard, dst) ->
       let rec fold mask value = function
         | [] -> Some (mask, value)
         | (p, positive) :: rest ->
           (match bit p with
            | Some b ->
              fold (mask lor (1 lsl b))
                (if positive then value lor (1 lsl b) else value)
                rest
            | None -> if positive then None else fold mask value rest)
       in
       match fold 0 0 guard with
       | Some (mask, value) ->
         by_src.(src) <- (mask, value, dst) :: by_src.(src)
       | None -> ())
    auto.Nbw.transitions;
  by_src

let successor auto by_src ~bound counts letter =
  let next = Array.make (Array.length counts) (-1) in
  let overflow = ref false in
  Array.iteri
    (fun q c ->
       if c >= 0 then
         List.iter
           (fun (mask, value, dst) ->
              if letter land mask = value then begin
                let v = c + if auto.Nbw.accepting.(dst) then 1 else 0 in
                if v > bound then overflow := true
                else if v > next.(dst) then next.(dst) <- v
              end)
           by_src.(q))
    counts;
  if !overflow then None else Some next

type game = {
  table : int array array;  (* id -> letter -> successor id, -1 overflow *)
  alive : bool array;
  combined : int -> int -> int;
  num_inputs : int;
  num_outputs : int;
}

(* Forward exploration plus the safety gfp.  [system] selects the
   quantifier order: ∀input ∃output for the system game, ∃input
   ∀output for the dual game.  [None] when the initial position is
   lost. *)
let solve_game auto by_src ~bound ~inputs ~outputs ~system =
  let input_bits = List.length inputs in
  let num_inputs = 1 lsl input_bits in
  let num_outputs = 1 lsl List.length outputs in
  let combined i o = i lor (o lsl input_bits) in
  let ids = Hashtbl.create 1024 in
  let rows = ref [] in
  let order = Queue.create () in
  let intern counts =
    let key =
      String.init (Array.length counts) (fun q -> Char.chr (counts.(q) + 1))
    in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      Queue.add (id, counts) order;
      id
  in
  let initial = Array.make auto.Nbw.num_states (-1) in
  List.iter
    (fun q -> initial.(q) <- (if auto.Nbw.accepting.(q) then 1 else 0))
    auto.Nbw.initial;
  ignore (intern initial);
  while not (Queue.is_empty order) do
    let id, counts = Queue.pop order in
    let row = Array.make (num_inputs * num_outputs) (-1) in
    for i = 0 to num_inputs - 1 do
      for o = 0 to num_outputs - 1 do
        match successor auto by_src ~bound counts (combined i o) with
        | Some next -> row.(combined i o) <- intern next
        | None -> ()
      done
    done;
    rows := (id, row) :: !rows
  done;
  let table = Array.make (Hashtbl.length ids) [||] in
  List.iter (fun (id, row) -> table.(id) <- row) !rows;
  let alive = Array.make (Array.length table) true in
  let ok id i o =
    let s = table.(id).(combined i o) in
    s >= 0 && alive.(s)
  in
  let range n = List.init n Fun.id in
  let wins id =
    if system then
      List.for_all
        (fun i -> List.exists (ok id i) (range num_outputs))
        (range num_inputs)
    else
      List.exists
        (fun i -> List.for_all (ok id i) (range num_outputs))
        (range num_inputs)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun id live ->
         if live && not (wins id) then begin
           alive.(id) <- false;
           changed := true
         end)
      alive
  done;
  if alive.(0) then
    Some { table; alive; combined; num_inputs; num_outputs }
  else None

(* Renumber the positions reached under the chosen strategy in
   depth-first discovery order from the initial position. *)
let renumber ~moves_from =
  let remap = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit id =
    if not (Hashtbl.mem remap id) then begin
      Hashtbl.add remap id (Hashtbl.length remap);
      order := id :: !order;
      List.iter visit (moves_from id)
    end
  in
  visit 0;
  (remap, Array.of_list (List.rev !order))

let controller g ~inputs ~outputs =
  let move id i =
    let rec first o =
      let s = g.table.(id).(g.combined i o) in
      if s >= 0 && g.alive.(s) then (o, s) else first (o + 1)
    in
    first 0
  in
  let remap, ids =
    renumber ~moves_from:(fun id ->
        List.init g.num_inputs (fun i -> snd (move id i)))
  in
  let steps =
    Array.map
      (fun id ->
         Array.init g.num_inputs (fun i ->
             let o, s = move id i in
             (o, Hashtbl.find remap s)))
      ids
  in
  {
    Mealy.inputs;
    outputs;
    num_states = Array.length ids;
    initial = 0;
    step = (fun state i -> steps.(state).(i));
  }

let counterstrategy g ~inputs ~outputs =
  let move id =
    let all_alive i =
      List.for_all
        (fun o ->
           let s = g.table.(id).(g.combined i o) in
           s >= 0 && g.alive.(s))
        (List.init g.num_outputs Fun.id)
    in
    let rec first i = if all_alive i then i else first (i + 1) in
    first 0
  in
  let remap, ids =
    renumber ~moves_from:(fun id ->
        let i = move id in
        List.init g.num_outputs (fun o -> g.table.(id).(g.combined i o)))
  in
  let moves = Array.map move ids in
  let nexts =
    Array.mapi
      (fun state id ->
         Array.init g.num_outputs (fun o ->
             Hashtbl.find remap g.table.(id).(g.combined moves.(state) o)))
      ids
  in
  {
    Bounded.cs_inputs = inputs;
    cs_outputs = outputs;
    cs_num_states = Array.length ids;
    cs_initial = 0;
    cs_move = (fun state -> moves.(state));
    cs_next = (fun state o -> nexts.(state).(o));
  }

(* Bound escalation 1, 2, 4, ... up to [max_bound], as [Bounded.solve]
   does. *)
let solve ?(max_bound = 8) ~inputs ~outputs spec =
  let ucw = Nbw.of_ltl (Ltl.neg spec) in
  let by_src = compile ucw ~inputs ~outputs in
  let dual =
    lazy (let a = Nbw.of_ltl spec in (a, compile a ~inputs ~outputs))
  in
  let rec escalate bound =
    match solve_game ucw by_src ~bound ~inputs ~outputs ~system:true with
    | Some g -> Bounded.Realizable (controller g ~inputs ~outputs)
    | None ->
      let dual, by_src_dual = Lazy.force dual in
      match
        solve_game dual by_src_dual ~bound ~inputs ~outputs ~system:false
      with
      | Some g -> Bounded.Unrealizable (counterstrategy g ~inputs ~outputs)
      | None when 2 * bound <= max_bound -> escalate (2 * bound)
      | None -> Bounded.Unknown bound
  in
  escalate 1
