open Speccc_logic
open Speccc_bdd

type strategy = {
  manager : Bdd.manager;
  inputs : string list;
  outputs : string list;
  closure : Ltl.t array;            (* obligation index -> formula *)
  progression : Bdd.t array;        (* V(g): letter vars ∪ next-z vars *)
  winning : Bdd.t;                  (* over current-z vars *)
  winning_next : Bdd.t;             (* winning renamed to next-z vars *)
  initial_indices : int list;
      (* the top-level conjuncts pending at step 0 *)
  num_props : int;
  rounds : int;
}

type verdict =
  | Realizable of strategy
  | Unrealizable

(* Variable layout, which is also the BDD variable order (a manager
   keeps its order fixed): inputs, then outputs, then interleaved
   (z_j, z'_j) pairs.  Inputs sit root-most so strategy extraction can
   cofactor on them first, and each z'_j sits right below its z_j so
   the current-to-next renaming is monotone. *)
let z_var ~num_props j = num_props + (2 * j)
let z_next_var ~num_props j = num_props + (2 * j) + 1

exception Not_safety of Ltl.t

(* Obligation closure: formulas that may become pending.  The root is
   always included. *)
(* Top-level conjunctions are split into separate obligations: a
   specification is usually a conjunction of tens of requirements, and
   a single root obligation would need the monolithic conjunction of
   all their progressions as one BDD — exactly the blow-up the
   partitioned transition relation avoids. *)
let rec flatten_conjunction = function
  | Ltl.And (g, h) -> flatten_conjunction g @ flatten_conjunction h
  | Ltl.True -> []
  | f -> [ f ]

let closure_of roots =
  let rec refs acc f =
    match f with
    | Ltl.True | Ltl.False | Ltl.Prop _ | Ltl.Not (Ltl.Prop _) -> acc
    | Ltl.And (g, h) | Ltl.Or (g, h) -> refs (refs acc g) h
    | Ltl.Next g -> add acc g
    | Ltl.Always g -> refs (add_self acc f) g
    | Ltl.Release (g, h) -> refs (refs (add_self acc f) g) h
    | Ltl.Weak_until _ | Ltl.Until _ | Ltl.Eventually _ | Ltl.Implies _
    | Ltl.Iff _ | Ltl.Not _ ->
      raise (Not_safety f)
  and add acc g = if Ltl.Set.mem g acc then acc else refs (Ltl.Set.add g acc) g
  and add_self acc f = Ltl.Set.add f acc
  in
  let acc =
    List.fold_left (fun acc root -> add acc root) Ltl.Set.empty roots
  in
  Ltl.Set.elements
    (List.fold_left (fun acc root -> Ltl.Set.add root acc) acc roots)

let solve ?budget ?snapshot_base ~inputs ~outputs spec =
  Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.engine_symbolic;
  let spec = Nnf.of_formula spec in
  let roots = flatten_conjunction spec in
  let closure =
    try Array.of_list (closure_of roots)
    with Not_safety offending ->
      invalid_arg
        (Printf.sprintf
           "Obligation.solve: not a syntactic safety formula (offending \
            subformula: %s); bound liveness first"
           (Ltl_print.to_string offending))
  in
  (* Obligation-variable ordering matters for the winning region's BDD:
     obligations over related propositions should sit next to each
     other, so sort the closure by proposition support (lexicographic
     over sorted prop lists), ties broken structurally. *)
  let closure =
    let key f = (Ltl.props f, Ltl.size f, f) in
    let sorted = Array.copy closure in
    Array.sort (fun a b -> compare (key a) (key b)) sorted;
    sorted
  in
  let manager = Bdd.manager () in
  (* The manager is private to this solve, so installing the budget
     governs every BDD built below — including the strategy object's
     later steps, which reuse the manager but do bounded work. *)
  Bdd.set_budget manager budget;
  let props = inputs @ outputs in
  let num_props = List.length props in
  let prop_var =
    let table = Hashtbl.create 16 in
    List.iteri (fun i p -> Hashtbl.add table p i) props;
    fun p ->
      match Hashtbl.find_opt table p with
      | Some i -> i
      | None ->
        invalid_arg
          (Printf.sprintf
             "Obligation.solve: proposition %s is neither input nor output" p)
  in
  let index_of =
    let table = Hashtbl.create 64 in
    Array.iteri (fun j g -> Hashtbl.add table g j) closure;
    fun g -> Hashtbl.find table g
  in
  (* V(g): the letter-level requirement of obligation g, over letter
     variables and next-obligation variables. *)
  let rec progression f =
    match f with
    | Ltl.True -> Bdd.one manager
    | Ltl.False -> Bdd.zero manager
    | Ltl.Prop p -> Bdd.var manager (prop_var p)
    | Ltl.Not (Ltl.Prop p) -> Bdd.nvar manager (prop_var p)
    | Ltl.And (g, h) -> Bdd.and_ manager (progression g) (progression h)
    | Ltl.Or (g, h) -> Bdd.or_ manager (progression g) (progression h)
    | Ltl.Next g -> Bdd.var manager (z_next_var ~num_props (index_of g))
    | Ltl.Always g ->
      Bdd.and_ manager (progression g)
        (Bdd.var manager (z_next_var ~num_props (index_of f)))
    | Ltl.Release (g, h) ->
      Bdd.and_ manager (progression h)
        (Bdd.or_ manager (progression g)
           (Bdd.var manager (z_next_var ~num_props (index_of f))))
    | Ltl.Weak_until _ | Ltl.Until _ | Ltl.Eventually _ | Ltl.Implies _
    | Ltl.Iff _ | Ltl.Not _ ->
      assert false
  in
  let progression_bdds = Array.map progression closure in
  let num_obligations = Array.length closure in
  let input_vars = List.mapi (fun i _ -> i) inputs in
  (* The transition relation stays partitioned: one conjunct
     [z_j → V_j] per obligation.  Conjoining them into a monolithic
     BDD blows up (millions of nodes on Table-I-sized specs), so the
     controllable-predecessor below eliminates next-state variables by
     bucket order instead. *)
  let conjuncts =
    List.init num_obligations (fun j ->
        Bdd.imp manager
          (Bdd.var manager (z_var ~num_props j))
          progression_bdds.(j))
  in
  let is_next_var v = v >= num_props && (v - num_props) mod 2 = 1 in
  let num_inputs = List.length inputs in
  (* Variables eliminated inside the controllable predecessor: the
     system's choices — outputs and next obligations.  Inputs (∀) and
     current obligations (the state) remain. *)
  let is_quantifiable v =
    is_next_var v || (v >= num_inputs && v < num_props)
  in
  let max_quantifiable = z_next_var ~num_props (num_obligations - 1) in
  (* z and z' interleave (z'_j immediately below z_j), so the
     current→next renaming is order-preserving and runs in one
     traversal. *)
  let rename_to_next w =
    Bdd.rename_monotone manager
      (List.init num_obligations (fun j ->
           (z_var ~num_props j, z_next_var ~num_props j)))
      w
  in
  (* Controllable predecessor ∀ inputs ∃ outputs, next obligations, by
     bucket elimination over the partitioned relation (as in symbolic
     model checkers): the loop walks the buckets by decreasing variable
     index, eliminating each variable with one relational product
     ([Bdd.and_exists]) over its bucket, so independent requirement
     clusters stay factored and no monolithic relation is built.

     Placement invariant: a diagram waits in bucket b only if b is at
     least the highest index among its quantifiable variables (outputs
     and next-state bits).  A higher bucket is sound — ∃v (A ∧ B) =
     (∃v A) ∧ B when v ∉ supp B — but in a lower one the diagram would
     miss the bucket of a variable it still mentions, that variable
     would never be quantified, and the fixpoint would converge on a
     region no strategy can stay in.

     Each diagram carries a tracked quantifiable support, highest index
     first, whose head is its bucket.  The fixed conjuncts [z_j → V_j]
     and what remains of the round's target once its cube is peeled
     (below) get theirs from one exact [Bdd.support]; a bucket's
     result gets the union of its inputs' tracked supports minus the
     eliminated variable.  That union is a superset of the result's
     true support, so its head is at least the true highest variable,
     and it is lower than the bucket being eliminated. *)
  let quantifiable_support bdd =
    List.sort (fun a b -> compare b a)
      (List.filter is_quantifiable (Bdd.support bdd))
  in
  let rec union a b =
    match a, b with
    | [], l | l, [] -> l
    | x :: a', y :: b' ->
      if x > y then x :: union a' b
      else if y > x then y :: union a b'
      else x :: union a' b'
  in
  let place buckets residual ((bdd, support) as item) =
    if Bdd.is_zero bdd then residual := [ bdd ]
    else if not (Bdd.is_one bdd) then
      match support with
      | v :: _ -> buckets.(v) <- item :: buckets.(v)
      | [] -> residual := bdd :: !residual
  in
  (* The conjuncts do not change between rounds, so their placement is
     computed once per solve. *)
  let fixed_buckets, fixed_residual =
    let buckets = Array.make (max_quantifiable + 1) [] in
    let residual = ref [] in
    List.iter
      (fun c -> place buckets residual (c, quantifiable_support c))
      conjuncts;
    (buckets, !residual)
  in
  (* ∃v over a bucket: conjoin all but the last item, and fuse the last
     conjunction with the quantification. *)
  let rec eliminate v acc = function
    | [ (last, _) ] -> Bdd.and_exists manager [ v ] acc last
    | (bdd, _) :: rest -> eliminate v (Bdd.and_ manager acc bdd) rest
    | [] -> acc
  in
  (* The target's root path may be a cube: a node with a [Zero] child
     forces its variable.  The target ranges over next-state bits only,
     so each forced literal is on some z'_j and mentions exactly one
     quantifiable variable; it is placed alone in bucket z'_j, which
     keeps the placement invariant, and the walk continues down the
     other child.  Placed whole, the cube of an X^k chain's target
     would sit in its top bucket and be conjoined into every bucket
     below it; peeled, each literal meets only its own bucket's
     conjunct.  The literals conjoined with the remainder are the
     target, so the predecessor is unchanged. *)
  let rec place_target buckets residual t =
    match Bdd.top_var t with
    | Some v when Bdd.is_zero (Bdd.low t) ->
      place buckets residual (Bdd.var manager v, [ v ]);
      place_target buckets residual (Bdd.high t)
    | Some v when Bdd.is_zero (Bdd.high t) ->
      place buckets residual (Bdd.nvar manager v, [ v ]);
      place_target buckets residual (Bdd.low t)
    | _ -> place buckets residual (t, quantifiable_support t)
  in
  let cpre w =
    let target = rename_to_next w in
    let buckets = Array.copy fixed_buckets in
    let residual = ref fixed_residual in
    place_target buckets residual target;
    for v = max_quantifiable downto 0 do
      match buckets.(v) with
      | [] -> ()
      | items ->
        let support =
          List.fold_left (fun acc (_, s) -> union acc (List.tl s)) [] items
        in
        place buckets residual (eliminate v (Bdd.one manager) items, support)
    done;
    Bdd.forall manager input_vars (Bdd.and_list manager !residual)
  in
  let rec fixpoint w rounds =
    Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.bdd_fixpoint;
    (match budget with
     | Some budget ->
       (* Publish the fixpoint layer index before the checkpoint that
          might preempt this round: the BDDs themselves are rebuilt on
          resume, but the supervisor's partial verdict can report how
          deep the iteration got. *)
       (match snapshot_base with
        | Some base ->
          Speccc_runtime.Budget.publish budget
            (Speccc_runtime.Snapshot.with_field base "round"
               (string_of_int rounds))
        | None -> ());
       Speccc_runtime.Budget.checkpoint budget ~stage:"symbolic"
     | None -> ());
    let w' = Bdd.and_ manager w (cpre w) in
    if Bdd.equal w w' then (w, rounds) else fixpoint w' (rounds + 1)
  in
  let winning, rounds = fixpoint (Bdd.one manager) 1 in
  let initial_indices = List.map index_of roots in
  let initial_assignment =
    List.init num_obligations (fun j ->
        (z_var ~num_props j, List.mem j initial_indices))
  in
  let at_init = Bdd.restrict manager initial_assignment winning in
  if Bdd.is_zero at_init then Unrealizable
  else
    Realizable
      {
        manager;
        inputs;
        outputs;
        closure;
        progression = progression_bdds;
        winning;
        winning_next = rename_to_next winning;
        initial_indices;
        num_props;
        rounds;
      }

(* Controller enumeration over the implicit product.

   A naive extraction would step the strategy once per input valuation:
   2^|inputs| restrict+any_sat passes per state, each over a per-state
   constraint BDD that conjoins every pending progression.  Building
   those conjunctions dominates extraction — tens of thousands of fresh
   nodes per state even with memoized balanced conjunction trees,
   because each state's pending set differs near the root of every
   conjunction tree.

   This version never materializes the conjunction:

   - The whole progression family (every obligation plus the
     winning-next region) is cofactored by the input variables ONCE,
     in a shared DFS over the input cube — states only differ in which
     factors they keep, so per state and input cube the relevant
     factors are a filter over a precomputed leaf.
   - Each (state, leaf) pair is then a satisfiability question on the
     product of the remaining factors, solved by a backtracking search
     that branches high first at the shallowest live root — the same
     preference [Bdd.any_sat] has.  Factors reduced to [one] drop out,
     so the active list shrinks as the search deepens.
   - Next-obligation variables occur purely positively (progressions
     never negate them), so once the letters are gone the high path of
     each factor is a satisfying assignment — the suffix needs no
     search at all.  A step counter catches pathological backtracking
     and falls back to the exact conjunction for that subproblem.

   The produced machine can differ from the conjunction-based one only
   in don't-care variables (a variable that cancels out of the
   conjunction is unconstrained there, while the product search still
   assigns it), so it is deterministic and satisfies the same pending
   obligations. *)
let to_mealy ?(max_states = 4096) strategy =
  let num_inputs = List.length strategy.inputs in
  if num_inputs > 20 then None
  else begin
    let manager = strategy.manager in
    let num_imasks = 1 lsl num_inputs in
    let num_obligations = Array.length strategy.closure in
    let num_props = strategy.num_props in
    let num_vars = num_props + (2 * num_obligations) in
    let lose () =
      (* Should not happen from a winning state; fail loudly. *)
      invalid_arg "Obligation.to_mealy: no move from winning state"
    in
    (* Active factor cells: (obligation, root var, diagram), lists
       sorted by root variable so the variable to branch on is always
       the head's root and cofactoring touches only the head run. *)
    let cell j d = (j, Bdd.top d, d) in
    let rec insert ((_, v, _) as c) list =
      match list with
      | [] -> [ c ]
      | ((_, v', _) as c') :: rest ->
        if v <= v' then c :: list else c' :: insert c rest
    in
    (* Shared input phase: cofactor the whole factor family by every
       input cube.  Leaves are deduplicated — an input no factor
       mentions never splits — and [leaf_of_imask] maps each input
       valuation to its leaf.  A factor that dies under some cube is
       recorded in [leaf_dead]: fatal later only if its obligation is
       pending. *)
    let leaf_cells = ref [] and leaf_dead = ref [] and leaf_count = ref 0 in
    let leaf_of_imask = Array.make num_imasks 0 in
    let () =
      let family =
        List.filter
          (fun (_, _, d) -> not (Bdd.is_one d))
          (cell (-1) strategy.winning_next
          :: List.init num_obligations (fun j -> cell j strategy.progression.(j)))
      in
      if List.exists (fun (_, _, d) -> Bdd.is_zero d) family then lose ();
      let family =
        List.sort (fun (_, v, _) (_, v', _) -> compare v v') family
      in
      let rec build active dead fixed_mask fixed_value =
        match active with
        | (_, v, _) :: _ when v < num_inputs ->
          let rec split run rest =
            match rest with
            | ((_, v', _) as c) :: tail when v' = v ->
              split (c :: run) tail
            | _ -> (run, rest)
          in
          let run, rest = split [] active in
          let branch b =
            let active, dead =
              List.fold_left
                (fun (active, dead) (j, _, d) ->
                   let c = if b then Bdd.high d else Bdd.low d in
                   if Bdd.is_zero c then (active, j :: dead)
                   else if Bdd.is_one c then (active, dead)
                   else (insert (cell j c) active, dead))
                (rest, dead) run
            in
            build active dead
              (fixed_mask lor (1 lsl v))
              (if b then fixed_value lor (1 lsl v) else fixed_value)
          in
          branch false;
          branch true
        | _ ->
          let id = !leaf_count in
          incr leaf_count;
          leaf_cells := active :: !leaf_cells;
          leaf_dead := dead :: !leaf_dead;
          (* Spread this leaf over every imask extending the fixed
             input bits. *)
          let free = ref [] in
          for v = num_inputs - 1 downto 0 do
            if fixed_mask land (1 lsl v) = 0 then free := v :: !free
          done;
          let free = Array.of_list !free in
          let num_free = Array.length free in
          for k = 0 to (1 lsl num_free) - 1 do
            let imask = ref fixed_value in
            for b = 0 to num_free - 1 do
              if k land (1 lsl b) <> 0 then imask := !imask lor (1 lsl free.(b))
            done;
            leaf_of_imask.(!imask) <- id
          done
      in
      build family [] 0 0
    in
    let num_leaves = !leaf_count in
    let leaf_cells = Array.of_list (List.rev !leaf_cells) in
    let leaf_dead = Array.of_list (List.rev !leaf_dead) in
    (* Assignment marks, epoch-cleared: [mark_epoch.(v) = epoch] means
       variable [v] carries [mark_val.(v)] in the current search. *)
    let mark_epoch = Array.make num_vars 0 in
    let mark_val = Array.make num_vars false in
    let epoch = ref 0 in
    let exception Bail in
    (* Fast path for the next-obligation tail: variables there occur
       purely positively (progressions never negate them), so the high
       path of each factor is a satisfying assignment — no search.  A
       next-rooted factor mentions no letter variable, since letters
       precede next-obligation variables in the order.  Bails if a
       variable was already branched to false, or if positivity is ever
       violated; the caller then falls back to the exact conjunction. *)
    (* A bail aborts the whole search ([Exit] → exact fallback), and
       the fallback starts a fresh mark epoch, so marks set before the
       bail need no undoing. *)
    let try_pure_next zs =
      match
        List.iter
          (fun d ->
             let rec follow d =
               let v = Bdd.top d in
               if v < 0 then (if Bdd.is_zero d then raise Bail)
               else if mark_epoch.(v) = !epoch then
                 if mark_val.(v) then follow (Bdd.high d) else raise Bail
               else begin
                 let h = Bdd.high d in
                 if Bdd.is_zero h then raise Bail;
                 mark_epoch.(v) <- !epoch;
                 mark_val.(v) <- true;
                 follow h
               end
             in
             follow d)
          zs
      with
      | () -> true
      | exception Bail -> raise Exit
    in
    let solve_budget = 200_000 in
    (* Backtracking search below the input prefix.  The active factors
       are split: [letters] holds the factors rooted at output
       variables (few — most factors lose their letter part to the
       input cofactor), sorted by root variable and branched high first,
       the same preference [Bdd.any_sat] has; [zs] holds the factors
       rooted at next-obligation variables, which are never branched —
       once the letters are gone they are solved in one pass by
       [try_pure_next].  Setting a factor aside is O(1), so the sorted
       insertions only ever walk the short letter list. *)
    let rec solve_product letters zs steps =
      if !steps <= 0 then raise Exit;
      decr steps;
      match letters with
      | [] -> try_pure_next zs
      | (_, v, _) :: _ ->
        let branch b =
          let rec cofactor list zs_acc =
            match list with
            | (j, v', d) :: rest when v' = v ->
              let c = if b then Bdd.high d else Bdd.low d in
              if Bdd.is_zero c then None
              else begin
                match cofactor rest zs_acc with
                | None -> None
                | Some (lets, zacc) ->
                  if Bdd.is_one c then Some (lets, zacc)
                  else if Bdd.top c >= num_props then Some (lets, c :: zacc)
                  else Some (insert (cell j c) lets, zacc)
              end
            | _ -> Some (list, zs_acc)
          in
          match cofactor letters zs with
          | None -> false
          | Some (lets, zs) ->
            mark_epoch.(v) <- !epoch;
            mark_val.(v) <- b;
            if solve_product lets zs steps then true
            else begin
              mark_epoch.(v) <- 0;
              false
            end
        in
        branch true || branch false
    in
    (* One decoded move per (state, leaf): run the product search with
       fresh marks, then read the outputs and next obligations straight
       out of the mark arrays.  Falls back to the exact conjunction if
       the search budget trips or the fast path bails. *)
    let solve_leaf state cells =
      incr epoch;
      (* One pass filters the pending factors and splits them:
         letter-rooted cells keep their sorted order, next-rooted
         diagrams are set aside (order irrelevant). *)
      let zs = ref [] in
      let rec split = function
        | [] -> []
        | ((j, v, d) as c) :: rest ->
          if j >= 0 && not state.(j) then split rest
          else if v >= num_props then begin
            zs := d :: !zs;
            split rest
          end
          else c :: split rest
      in
      let letters = split cells in
      let zs = !zs in
      let ok =
        match solve_product letters zs (ref solve_budget) with
        | ok -> ok
        | exception Exit ->
          incr epoch;
          (match
             Bdd.any_sat
               (Bdd.and_list manager
                  (List.filter_map
                     (fun (j, _, d) ->
                        if j < 0 || state.(j) then Some d else None)
                     cells))
           with
           | None -> false
           | Some assignment ->
             List.iter
               (fun (v, b) ->
                  mark_epoch.(v) <- !epoch;
                  mark_val.(v) <- b)
               assignment;
             true)
      in
      if not ok then lose ();
      let omask = ref 0 in
      for v = num_inputs to num_props - 1 do
        if mark_epoch.(v) = !epoch && mark_val.(v) then
          omask := !omask lor (1 lsl (v - num_inputs))
      done;
      let next = Array.make num_obligations false in
      for j = 0 to num_obligations - 1 do
        let v = num_props + (2 * j) + 1 in
        if mark_epoch.(v) = !epoch && mark_val.(v) then next.(j) <- true
      done;
      (!omask, next)
    in
    (* One move per leaf; the per-imask row is assembled from the
       leaf map at interning time. *)
    let moves_of state =
      Array.init num_leaves (fun leaf ->
          if List.exists (fun j -> j >= 0 && state.(j)) leaf_dead.(leaf)
          then lose ();
          solve_leaf state leaf_cells.(leaf))
    in
    (* States are interned by their pending bitset, packed into a few
       machine words. *)
    let key_words = (num_obligations + 62) / 63 in
    let key state =
      let k = Array.make (max key_words 1) 0 in
      for j = 0 to num_obligations - 1 do
        if state.(j) then k.(j / 63) <- k.(j / 63) lor (1 lsl (j mod 63))
      done;
      k
    in
    let ids = Hashtbl.create 64 in
    let table = ref (Array.make 64 [||]) in
    let overflow = ref false in
    let rec intern state =
      let k = key state in
      match Hashtbl.find_opt ids k with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ids in
        if id >= max_states then begin
          overflow := true;
          id
        end
        else begin
          Hashtbl.add ids k id;
          let moves = moves_of state in
          let encoded = Array.make num_imasks (0, 0) in
          if id >= Array.length !table then begin
            let bigger = Array.make (2 * Array.length !table) [||] in
            Array.blit !table 0 bigger 0 (Array.length !table);
            table := bigger
          end;
          !table.(id) <- encoded;
          (* Successors interned once per leaf, not once per imask. *)
          let next_ids =
            Array.map
              (fun (_, next) -> if !overflow then 0 else intern next)
              moves
          in
          if not !overflow then
            for imask = 0 to num_imasks - 1 do
              let leaf = leaf_of_imask.(imask) in
              encoded.(imask) <- (fst moves.(leaf), next_ids.(leaf))
            done;
          id
        end
    in
    let initial =
      let pending = Array.make num_obligations false in
      List.iter (fun j -> pending.(j) <- true) strategy.initial_indices;
      intern pending
    in
    if !overflow then None
    else begin
      let num_states = Hashtbl.length ids in
      let table = !table in
      Some
        {
          Mealy.inputs = strategy.inputs;
          outputs = strategy.outputs;
          num_states;
          initial;
          step =
            (fun state imask ->
               if state >= 0 && state < num_states then table.(state).(imask)
               else (0, state));
        }
    end
  end

let stats strategy =
  Printf.sprintf "obligations=%d winning_nodes=%d rounds=%d"
    (Array.length strategy.closure)
    (Bdd.size strategy.winning)
    strategy.rounds
