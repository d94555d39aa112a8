type clause = {
  lits : int array;  (* watched literals sit at positions 0 and 1 *)
  learned : bool;
}

type t = {
  mutable nvars : int;
  mutable clauses : clause list;          (* problem clauses *)
  mutable nclauses : int;
  mutable watches : clause list array;    (* indexed by literal index *)
  mutable values : int array;             (* by var: 0 unknown / 1 / -1 *)
  mutable levels : int array;             (* by var *)
  mutable reasons : clause option array;  (* by var *)
  mutable activity : float array;         (* by var *)
  mutable polarity : bool array;          (* saved phase, by var *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lims : int list;          (* trail sizes at decisions *)
  mutable level : int;
  mutable propagate_head : int;
  mutable var_inc : float;
  mutable conflicts : int;
  mutable unsat : bool;                   (* empty clause seen *)
  seen : (int, unit) Hashtbl.t;           (* scratch for analyze *)
}

let lit_index lit = if lit > 0 then 2 * lit else (2 * -lit) + 1
let lit_var lit = abs lit

let create () = {
  nvars = 0;
  clauses = [];
  nclauses = 0;
  watches = Array.make 16 [];
  values = Array.make 8 0;
  levels = Array.make 8 0;
  reasons = Array.make 8 None;
  activity = Array.make 8 0.0;
  polarity = Array.make 8 false;
  trail = Array.make 8 0;
  trail_size = 0;
  trail_lims = [];
  level = 0;
  propagate_head = 0;
  var_inc = 1.0;
  conflicts = 0;
  unsat = false;
  seen = Hashtbl.create 64;
}

let grow_array arr len default =
  if Array.length arr >= len then arr
  else begin
    let fresh = Array.make (max len (2 * Array.length arr)) default in
    Array.blit arr 0 fresh 0 (Array.length arr);
    fresh
  end

let ensure_vars solver n =
  if n > solver.nvars then begin
    solver.nvars <- n;
    solver.values <- grow_array solver.values (n + 1) 0;
    solver.levels <- grow_array solver.levels (n + 1) 0;
    solver.reasons <- grow_array solver.reasons (n + 1) None;
    solver.activity <- grow_array solver.activity (n + 1) 0.0;
    solver.polarity <- grow_array solver.polarity (n + 1) false;
    solver.trail <- grow_array solver.trail (n + 1) 0;
    solver.watches <- grow_array solver.watches (2 * (n + 1)) []
  end

let new_var solver =
  ensure_vars solver (solver.nvars + 1);
  solver.nvars

let num_vars solver = solver.nvars
let num_clauses solver = solver.nclauses
let num_conflicts solver = solver.conflicts

(* 1 if lit true, -1 if false, 0 unknown. *)
let lit_value solver lit =
  let v = solver.values.(lit_var lit) in
  if lit > 0 then v else -v

let bump_var solver v =
  solver.activity.(v) <- solver.activity.(v) +. solver.var_inc;
  if solver.activity.(v) > 1e100 then begin
    for i = 1 to solver.nvars do
      solver.activity.(i) <- solver.activity.(i) *. 1e-100
    done;
    solver.var_inc <- solver.var_inc *. 1e-100
  end

let decay_activity solver = solver.var_inc <- solver.var_inc /. 0.95

let watch solver lit clause =
  let idx = lit_index lit in
  solver.watches.(idx) <- clause :: solver.watches.(idx)

(* Put [lit] on the trail as true, with the given reason. *)
let enqueue solver lit reason =
  let v = lit_var lit in
  solver.values.(v) <- (if lit > 0 then 1 else -1);
  solver.levels.(v) <- solver.level;
  solver.reasons.(v) <- reason;
  solver.polarity.(v) <- lit > 0;
  solver.trail.(solver.trail_size) <- lit;
  solver.trail_size <- solver.trail_size + 1

exception Conflict of clause

(* Two-watched-literal unit propagation.  Returns the conflicting
   clause if any. *)
let propagate solver =
  try
    while solver.propagate_head < solver.trail_size do
      let lit = solver.trail.(solver.propagate_head) in
      solver.propagate_head <- solver.propagate_head + 1;
      let falsified = -lit in
      let idx = lit_index falsified in
      let watching = solver.watches.(idx) in
      solver.watches.(idx) <- [];
      let rec process = function
        | [] -> ()
        | clause :: rest ->
          let lits = clause.lits in
          (* Normalize: the falsified literal at position 1. *)
          if lits.(0) = falsified then begin
            lits.(0) <- lits.(1);
            lits.(1) <- falsified
          end;
          if lit_value solver lits.(0) = 1 then begin
            (* Clause already satisfied; keep watching. *)
            solver.watches.(idx) <- clause :: solver.watches.(idx);
            process rest
          end
          else begin
            (* Look for a new literal to watch. *)
            let n = Array.length lits in
            let rec find k =
              if k >= n then None
              else if lit_value solver lits.(k) <> -1 then Some k
              else find (k + 1)
            in
            match find 2 with
            | Some k ->
              lits.(1) <- lits.(k);
              lits.(k) <- falsified;
              watch solver lits.(1) clause;
              process rest
            | None ->
              (* Unit or conflicting. *)
              solver.watches.(idx) <- clause :: solver.watches.(idx);
              if lit_value solver lits.(0) = -1 then begin
                solver.watches.(idx) <-
                  List.rev_append rest solver.watches.(idx);
                raise (Conflict clause)
              end
              else begin
                enqueue solver lits.(0) (Some clause);
                process rest
              end
          end
      in
      process watching
    done;
    None
  with Conflict clause -> Some clause

let backtrack solver target_level =
  if solver.level > target_level then begin
    let keep = ref solver.trail_size in
    let rec drop_levels lims lvl =
      match lims with
      | [] -> []
      | size :: rest ->
        if lvl > target_level then begin
          keep := size;
          drop_levels rest (lvl - 1)
        end
        else lims
    in
    solver.trail_lims <- drop_levels solver.trail_lims solver.level;
    for i = !keep to solver.trail_size - 1 do
      let v = lit_var solver.trail.(i) in
      solver.values.(v) <- 0;
      solver.reasons.(v) <- None
    done;
    solver.trail_size <- !keep;
    solver.propagate_head <- !keep;
    solver.level <- target_level
  end

(* First-UIP conflict analysis.  Returns the learned clause (with the
   asserting literal first) and the backjump level. *)
let analyze solver conflict =
  Hashtbl.reset solver.seen;
  let learned = ref [] in
  let counter = ref 0 in
  let conflict_level = solver.level in
  let absorb clause =
    Array.iter
      (fun lit ->
         let v = lit_var lit in
         if (not (Hashtbl.mem solver.seen v)) && solver.levels.(v) > 0 then begin
           Hashtbl.add solver.seen v ();
           bump_var solver v;
           if solver.levels.(v) >= conflict_level then incr counter
           else learned := lit :: !learned
         end)
      clause.lits
  in
  absorb conflict;
  (* Walk the trail backwards to the first UIP. *)
  let index = ref (solver.trail_size - 1) in
  let uip = ref 0 in
  let continue_walk = ref true in
  while !continue_walk do
    (* Find the next trail literal involved in the conflict. *)
    while not (Hashtbl.mem solver.seen (lit_var solver.trail.(!index))) do
      decr index
    done;
    let lit = solver.trail.(!index) in
    let v = lit_var lit in
    Hashtbl.remove solver.seen v;
    decr counter;
    decr index;
    if !counter = 0 then begin
      uip := -lit;
      continue_walk := false
    end
    else
      match solver.reasons.(v) with
      | Some reason ->
        (* Skip the asserting literal itself when absorbing. *)
        Array.iter
          (fun l ->
             let w = lit_var l in
             if w <> v && (not (Hashtbl.mem solver.seen w))
                && solver.levels.(w) > 0 then begin
               Hashtbl.add solver.seen w ();
               bump_var solver w;
               if solver.levels.(w) >= conflict_level then incr counter
               else learned := l :: !learned
             end)
          reason.lits
      | None ->
        (* A decision inside the conflict level other than the UIP
           cannot happen before counter reaches 0. *)
        assert false
  done;
  let others = !learned in
  let backjump_level =
    List.fold_left (fun acc lit -> max acc (solver.levels.(lit_var lit))) 0
      others
  in
  (!uip :: others, backjump_level)

let add_learned solver lits =
  match lits with
  | [] ->
    solver.unsat <- true;
    None
  | [ lit ] ->
    backtrack solver 0;
    if lit_value solver lit = -1 then solver.unsat <- true
    else if lit_value solver lit = 0 then enqueue solver lit None;
    None
  | first :: _ ->
    let arr = Array.of_list lits in
    (* Position 1 must hold a literal from the backjump level so the
       watch invariant is restored after backtracking: pick the literal
       with the highest level among the rest. *)
    let best = ref 1 in
    for i = 2 to Array.length arr - 1 do
      if solver.levels.(lit_var arr.(i)) > solver.levels.(lit_var arr.(!best))
      then best := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let clause = { lits = arr; learned = true } in
    watch solver arr.(0) clause;
    watch solver arr.(1) clause;
    ignore first;
    Some clause

let add_clause solver lits =
  if List.exists (fun lit -> lit = 0) lits then
    invalid_arg "Sat.add_clause: literal 0";
  if not solver.unsat then begin
    List.iter (fun lit -> ensure_vars solver (lit_var lit)) lits;
    (* At level 0 only: drop false literals, detect satisfied/unit. *)
    assert (solver.level = 0);
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun lit -> List.mem (-lit) lits) lits
      || List.exists (fun lit -> lit_value solver lit = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun lit -> lit_value solver lit <> -1) lits in
      match lits with
      | [] -> solver.unsat <- true
      | [ lit ] ->
        enqueue solver lit None;
        (match propagate solver with
         | Some _ -> solver.unsat <- true
         | None -> ())
      | _ ->
        let arr = Array.of_list lits in
        let clause = { lits = arr; learned = false } in
        solver.clauses <- clause :: solver.clauses;
        solver.nclauses <- solver.nclauses + 1;
        watch solver arr.(0) clause;
        watch solver arr.(1) clause
    end
  end

type outcome =
  | Sat of bool array
  | Unsat

let decide solver lit =
  solver.trail_lims <- solver.trail_size :: solver.trail_lims;
  solver.level <- solver.level + 1;
  enqueue solver lit None

let pick_branch_var solver =
  let best = ref 0 in
  let best_activity = ref neg_infinity in
  for v = 1 to solver.nvars do
    if solver.values.(v) = 0 && solver.activity.(v) > !best_activity then begin
      best := v;
      best_activity := solver.activity.(v)
    end
  done;
  !best

let model solver =
  let m = Array.make (solver.nvars + 1) false in
  for v = 1 to solver.nvars do
    m.(v) <- solver.values.(v) = 1
  done;
  m

exception Answer of outcome

let solve ?budget ?(assumptions = []) solver =
  Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.sat_solve;
  (* One fuel unit per decision and per conflict: both bound the
     search tree, so fuel exhaustion implies bounded work. *)
  let tick =
    match budget with
    | Some budget ->
      fun () -> Speccc_runtime.Budget.checkpoint budget ~stage:"sat"
    | None -> Fun.id
  in
  if solver.unsat then Unsat
  else begin
    backtrack solver 0;
    let assumptions = Array.of_list assumptions in
    let restart_limit = ref 100 in
    let conflicts_since_restart = ref 0 in
    try
      (match propagate solver with
       | Some _ -> raise (Answer Unsat)
       | None -> ());
      while true do
        match propagate solver with
        | Some conflict ->
          tick ();
          solver.conflicts <- solver.conflicts + 1;
          incr conflicts_since_restart;
          if solver.level = 0 then begin
            solver.unsat <- true;
            raise (Answer Unsat)
          end;
          (* Conflicts strictly inside assumption levels mean the
             assumptions themselves are contradictory with the
             clauses. *)
          if solver.level <= Array.length assumptions then
            raise (Answer Unsat);
          let learned, backjump_level = analyze solver conflict in
          backtrack solver backjump_level;
          (match add_learned solver learned with
           | Some clause -> enqueue solver clause.lits.(0) (Some clause)
           | None -> if solver.unsat then raise (Answer Unsat));
          decay_activity solver
        | None ->
          if !conflicts_since_restart >= !restart_limit then begin
            conflicts_since_restart := 0;
            restart_limit := !restart_limit * 3 / 2;
            backtrack solver 0
          end
          else begin
            (* Re-establish assumptions as the first decisions. *)
            let next_assumption =
              if solver.level < Array.length assumptions then
                Some assumptions.(solver.level)
              else None
            in
            match next_assumption with
            | Some lit ->
              (match lit_value solver lit with
               | 1 ->
                 (* Already true: introduce a dummy decision level so
                    level counting stays aligned with assumptions. *)
                 solver.trail_lims <- solver.trail_size :: solver.trail_lims;
                 solver.level <- solver.level + 1
               | -1 -> raise (Answer Unsat)
               | _ -> decide solver lit)
            | None ->
              tick ();
              let v = pick_branch_var solver in
              if v = 0 then raise (Answer (Sat (model solver)))
              else
                decide solver (if solver.polarity.(v) then v else -v)
          end
      done;
      assert false
    with Answer outcome ->
      backtrack solver 0;
      outcome
  end

let solve_clauses ?budget ?assumptions clauses =
  let solver = create () in
  List.iter (add_clause solver) clauses;
  solve ?budget ?assumptions solver

