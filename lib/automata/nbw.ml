open Speccc_logic

type guard = (string * bool) list

type t = {
  num_states : int;
  initial : int list;
  accepting : bool array;
  transitions : (int * guard * int) list;
  atoms : string list;
}

(* --- normalization to the tableau core: literals, ∧, ∨, X, U, R --- *)

let rec to_core f =
  match Nnf.of_formula f with
  | Ltl.True -> Ltl.True
  | Ltl.False -> Ltl.False
  | (Ltl.Prop _ | Ltl.Not (Ltl.Prop _)) as literal -> literal
  | Ltl.And (g, h) -> Ltl.And (to_core g, to_core h)
  | Ltl.Or (g, h) -> Ltl.Or (to_core g, to_core h)
  | Ltl.Next g -> Ltl.Next (to_core g)
  | Ltl.Eventually g -> Ltl.Until (Ltl.True, to_core g)
  | Ltl.Always g -> Ltl.Release (Ltl.False, to_core g)
  | Ltl.Until (g, h) -> Ltl.Until (to_core g, to_core h)
  | Ltl.Release (g, h) -> Ltl.Release (to_core g, to_core h)
  | Ltl.Weak_until (g, h) ->
    let g = to_core g and h = to_core h in
    Ltl.Release (h, Ltl.Or (g, h))
  | Ltl.Not _ | Ltl.Implies _ | Ltl.Iff _ ->
    (* NNF leaves none of these except Not on props, handled above. *)
    assert false

(* --- GPVW tableau --- *)

type node = {
  id : int;
  mutable incoming : int list;  (* -1 stands for the init pseudo-state *)
  mutable to_process : Ltl.Set.t;
  mutable old : Ltl.Set.t;
  mutable next : Ltl.Set.t;
}

let init_id = -1

let build_tableau ?budget formula =
  let counter = ref 0 in
  let fresh_id () =
    (* One fuel unit per tableau node: the expansion is exponential in
       the formula, and node creation dominates its cost. *)
    (match budget with
     | Some budget ->
       Speccc_runtime.Budget.checkpoint budget ~stage:"tableau"
     | None -> ());
    Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.tableau_expand;
    incr counter; !counter
  in
  let completed : node list ref = ref [] in
  (* Completed nodes are unique on (old, next), so a table keyed by the
     sorted formula ids of both sets finds the one merge target without
     scanning every completed node. *)
  let by_sets = Hashtbl.create 64 in
  let sets_key node =
    let ids set =
      List.sort Int.compare (List.map Ltl.id (Ltl.Set.elements set))
    in
    (ids node.old, ids node.next)
  in
  let rec expand node =
    match Ltl.Set.choose_opt node.to_process with
    | None ->
      (* Node fully processed: merge with an equivalent completed node
         or record it and start its successor. *)
      let key = sets_key node in
      (match Hashtbl.find_opt by_sets key with
       | Some other -> other.incoming <- node.incoming @ other.incoming
       | None ->
         Hashtbl.add by_sets key node;
         completed := node :: !completed;
         let successor = {
           id = fresh_id ();
           incoming = [ node.id ];
           to_process = node.next;
           old = Ltl.Set.empty;
           next = Ltl.Set.empty;
         }
         in
         expand successor)
    | Some f ->
      node.to_process <- Ltl.Set.remove f node.to_process;
      let contradicts literal = Ltl.Set.mem (Nnf.of_formula (Ltl.Not literal)) node.old in
      (match f with
       | Ltl.False -> ()  (* inconsistent: drop this node *)
       | Ltl.True -> expand node
       | Ltl.Prop _ | Ltl.Not (Ltl.Prop _) ->
         if contradicts f then ()
         else begin
           node.old <- Ltl.Set.add f node.old;
           expand node
         end
       | Ltl.And (g, h) ->
         let missing =
           Ltl.Set.diff (Ltl.Set.of_list [ g; h ]) node.old
         in
         node.to_process <- Ltl.Set.union missing node.to_process;
         node.old <- Ltl.Set.add f node.old;
         expand node
       | Ltl.Or (g, h) ->
         let clone extra = {
           id = fresh_id ();
           incoming = node.incoming;
           to_process =
             (if Ltl.Set.mem extra node.old then node.to_process
              else Ltl.Set.add extra node.to_process);
           old = Ltl.Set.add f node.old;
           next = node.next;
         }
         in
         expand (clone g);
         expand (clone h)
       | Ltl.Next g ->
         node.old <- Ltl.Set.add f node.old;
         node.next <- Ltl.Set.add g node.next;
         expand node
       | Ltl.Until (g, h) ->
         (* child 1: g now and the until carried over; child 2: h now *)
         let child1 = {
           id = fresh_id ();
           incoming = node.incoming;
           to_process =
             (if Ltl.Set.mem g node.old then node.to_process
              else Ltl.Set.add g node.to_process);
           old = Ltl.Set.add f node.old;
           next = Ltl.Set.add f node.next;
         }
         in
         let child2 = {
           id = fresh_id ();
           incoming = node.incoming;
           to_process =
             (if Ltl.Set.mem h node.old then node.to_process
              else Ltl.Set.add h node.to_process);
           old = Ltl.Set.add f node.old;
           next = node.next;
         }
         in
         expand child1;
         expand child2
       | Ltl.Release (g, h) ->
         (* child 1: h now and the release carried over; child 2: g∧h *)
         let child1 = {
           id = fresh_id ();
           incoming = node.incoming;
           to_process =
             (if Ltl.Set.mem h node.old then node.to_process
              else Ltl.Set.add h node.to_process);
           old = Ltl.Set.add f node.old;
           next = Ltl.Set.add f node.next;
         }
         in
         let child2 = {
           id = fresh_id ();
           incoming = node.incoming;
           to_process =
             Ltl.Set.union
               (Ltl.Set.diff (Ltl.Set.of_list [ g; h ]) node.old)
               node.to_process;
           old = Ltl.Set.add f node.old;
           next = node.next;
         }
         in
         expand child1;
         expand child2
       | Ltl.Implies _ | Ltl.Iff _ | Ltl.Eventually _ | Ltl.Always _
       | Ltl.Weak_until _ | Ltl.Not _ ->
         (* not part of the tableau core *)
         assert false)
  in
  let root = {
    id = fresh_id ();
    incoming = [ init_id ];
    to_process = Ltl.Set.singleton formula;
    old = Ltl.Set.empty;
    next = Ltl.Set.empty;
  }
  in
  expand root;
  (!completed, !counter)

let literals_of_old old =
  Ltl.Set.fold
    (fun f acc ->
       match f with
       | Ltl.Prop p -> (p, true) :: acc
       | Ltl.Not (Ltl.Prop p) -> (p, false) :: acc
       | Ltl.True | Ltl.False | Ltl.Not _ | Ltl.And _ | Ltl.Or _
       | Ltl.Implies _ | Ltl.Iff _ | Ltl.Next _ | Ltl.Eventually _
       | Ltl.Always _ | Ltl.Until _ | Ltl.Weak_until _ | Ltl.Release _ ->
         acc)
    old []

let until_subformulas formula =
  List.filter
    (fun f -> match f with Ltl.Until _ -> true | _ -> false)
    (Ltl.subformulas formula)

(* Build the generalized Büchi automaton, then degeneralize with the
   usual acceptance counter.  Returns the automaton with its fuel cost:
   the number of tableau nodes, one fuel unit each. *)
let build ?budget formula =
  (* Interning the core makes the tableau's many [Ltl.Set] operations
     short-circuit on physical equality of shared subterms. *)
  let core = Ltl.intern (to_core formula) in
  let nodes, cost = build_tableau ?budget core in
  let untils = until_subformulas core in
  (* Map tableau ids to dense indices; index 0 is the dedicated initial
     state (GPVW's "init" pseudo-node). *)
  let index_of = Hashtbl.create 64 in
  Hashtbl.add index_of init_id 0;
  List.iteri (fun i node -> Hashtbl.add index_of node.id (i + 1)) nodes;
  let num_gba_states = List.length nodes + 1 in
  let gba_transitions =
    List.concat_map
      (fun node ->
         let guard = literals_of_old node.old in
         let dst = Hashtbl.find index_of node.id in
         List.filter_map
           (fun src_id ->
              match Hashtbl.find_opt index_of src_id with
              | Some src -> Some (src, guard, dst)
              | None -> None)
           node.incoming)
      nodes
  in
  (* Acceptance sets: one per Until; node accepting for (g U h) when
     h ∈ old or (g U h) ∉ old.  The init state belongs to every set
     vacuously (it is visited once). *)
  let acceptance_sets =
    List.map
      (fun u ->
         let target =
           match u with Ltl.Until (_, h) -> h | _ -> assert false
         in
         let member = Array.make num_gba_states false in
         member.(0) <- true;
         List.iter
           (fun node ->
              let idx = Hashtbl.find index_of node.id in
              if Ltl.Set.mem target node.old || not (Ltl.Set.mem u node.old)
              then member.(idx) <- true)
           nodes;
         member)
      untils
  in
  let sets =
    match acceptance_sets with
    | [] -> [| Array.make num_gba_states true |]
    | _ -> Array.of_list acceptance_sets
  in
  let num_sets = Array.length sets in
  (* Textbook source-credited degeneralization (Baier–Katoen): states
     (q, j); a transition leaving (q, j) advances the counter exactly
     when q ∈ sets.(j); accepting states are (q, 0) with q ∈ sets.(0).
     Visiting them infinitely often forces every set to recur. *)
  let state_index q j = (q * num_sets) + j in
  let num_states = num_gba_states * num_sets in
  let accepting = Array.make num_states false in
  for q = 0 to num_gba_states - 1 do
    if sets.(0).(q) then accepting.(state_index q 0) <- true
  done;
  let transitions =
    List.concat_map
      (fun (src, guard, dst) ->
         let transition_at j =
           let j' = if sets.(j).(src) then (j + 1) mod num_sets else j in
           (state_index src j, guard, state_index dst j')
         in
         List.init num_sets transition_at)
      gba_transitions
  in
  let module String_set = Set.Make (String) in
  let atoms =
    List.fold_left
      (fun acc (_, guard, _) ->
         List.fold_left (fun acc (p, _) -> String_set.add p acc) acc guard)
      String_set.empty transitions
    |> String_set.elements
  in
  ( {
      num_states;
      initial = [ state_index 0 0 ];
      accepting;
      transitions;
      atoms;
    },
    cost )

(* The automaton for a formula is deterministic in the formula alone,
   so construction is memoized by formula id, together with its fuel
   cost (the tableau nodes the cold build charged).  Under a budget a
   hit charges that cost again, one unit per node, so fuel accounting
   — and the point where an exhausted run fails — is the same with a
   warm or a cold cache.  An armed fault plan bypasses the cache:
   checkpoint hit counts must see every expansion. *)

module C = Speccc_cache.Cache.Make (Speccc_cache.Cache.Int_key)

let table =
  C.create_dls ~name:"nbw.of_ltl"
    ~capacity:(Speccc_cache.Cache.capacity ~name:"nbw.of_ltl" ~default:256)
    ()

(* Template-compiled automata: formulas that instantiate a catalogue
   template shape ([Template.abstract]) share one compiled automaton
   per shape; an instance is served by renaming the compiled guards,
   which is linear in the automaton instead of exponential in the
   formula.  The shape cache ["nbw.template"] keys on the canonical
   formula's id; its hits count instantiations that bypassed the
   tableau, its misses count shape compilations. *)

let template_table =
  C.create_dls ~name:"nbw.template"
    ~capacity:(Speccc_cache.Cache.capacity ~name:"nbw.template" ~default:1024)
    ()

let memo ?budget table key compute =
  match C.find_opt (Domain.DLS.get table) key with
  | Some ((_, cost) as entry) ->
    Option.iter
      (fun budget ->
         for _ = 1 to cost do
           Speccc_runtime.Budget.checkpoint budget ~stage:"tableau"
         done)
      budget;
    entry
  | None ->
    let entry = compute () in
    C.add (Domain.DLS.get table) key entry;
    entry

let rename_atoms mapping auto =
  let rename a =
    match List.assoc_opt a mapping with Some b -> b | None -> a
  in
  {
    auto with
    transitions =
      List.map
        (fun (src, guard, dst) ->
           (src, List.map (fun (a, b) -> (rename a, b)) guard, dst))
        auto.transitions;
    atoms = List.sort_uniq compare (List.map rename auto.atoms);
  }

let of_template ?budget formula =
  match Template.abstract formula with
  | None -> None
  | Some { Template.canonical; mapping; _ } ->
    let compiled, cost =
      memo ?budget template_table (Ltl.id canonical) (fun () ->
          build ?budget canonical)
    in
    Some (rename_atoms mapping compiled, cost)

let of_ltl ?budget formula =
  if Speccc_runtime.Fault.active () then fst (build ?budget formula)
  else
    fst
      (memo ?budget table (Ltl.id formula) (fun () ->
           match of_template ?budget formula with
           | Some entry -> entry
           | None -> build ?budget formula))

let guard_holds guard assignment =
  List.for_all
    (fun (p, expected) ->
       let actual =
         match List.assoc_opt p assignment with Some b -> b | None -> false
       in
       actual = expected)
    guard

let successors auto state letter =
  List.filter_map
    (fun (src, guard, dst) ->
       if src = state && guard_holds guard letter then Some dst else None)
    auto.transitions

let accepts_lasso auto word =
  let n = Trace.length word in
  let loop_start = Trace.loop_start word in
  let succ_pos i = if i + 1 < n then i + 1 else loop_start in
  let product_index q pos = (q * n) + pos in
  let num_product = auto.num_states * n in
  (* adjacency of the product graph *)
  let adjacency = Array.make num_product [] in
  List.iter
    (fun (src, guard, dst) ->
       for pos = 0 to n - 1 do
         if guard_holds guard (Trace.letter_at word pos) then
           adjacency.(product_index src pos) <-
             product_index dst (succ_pos pos)
             :: adjacency.(product_index src pos)
       done)
    auto.transitions;
  let reachable_from sources =
    let visited = Array.make num_product false in
    let queue = Queue.create () in
    List.iter
      (fun s ->
         if not visited.(s) then begin
           visited.(s) <- true;
           Queue.add s queue
         end)
      sources;
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      List.iter
        (fun next ->
           if not visited.(next) then begin
             visited.(next) <- true;
             Queue.add next queue
           end)
        adjacency.(s)
    done;
    visited
  in
  let from_init =
    reachable_from (List.map (fun q -> product_index q 0) auto.initial)
  in
  (* Iterative Tarjan SCC over the product graph; the word is accepted
     iff a reachable non-trivial SCC (or a self-loop) contains an
     accepting product state. *)
  let index = Array.make num_product (-1) in
  let lowlink = Array.make num_product 0 in
  let on_stack = Array.make num_product false in
  let stack = ref [] in
  let next_index = ref 0 in
  let accepted = ref false in
  let is_accepting s = auto.accepting.(s / n) in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
         if index.(w) = -1 then begin
           strongconnect w;
           lowlink.(v) <- min lowlink.(v) lowlink.(w)
         end
         else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      adjacency.(v);
    if lowlink.(v) = index.(v) then begin
      (* Pop the SCC rooted at v. *)
      let rec pop members =
        match !stack with
        | [] -> members
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: members else pop (w :: members)
      in
      let members = pop [] in
      let non_trivial =
        match members with
        | [ single ] -> List.mem single adjacency.(single)
        | _ -> true
      in
      if non_trivial && List.exists is_accepting members then
        accepted := true
    end
  in
  for s = 0 to num_product - 1 do
    if from_init.(s) && index.(s) = -1 then strongconnect s
  done;
  !accepted

(* Witness search: BFS to a reachable accepting state, then BFS back to
   it (at least one step).  Guards along the way are instantiated into
   letters, unconstrained atoms defaulting to false. *)
let find_word auto =
  let adjacency = Array.make auto.num_states [] in
  List.iter
    (fun (src, guard, dst) ->
       adjacency.(src) <- (guard, dst) :: adjacency.(src))
    auto.transitions;
  let letter_of_guard guard =
    List.map
      (fun atom ->
         ( atom,
           match List.assoc_opt atom guard with
           | Some b -> b
           | None -> false ))
      auto.atoms
  in
  (* BFS from [sources]; returns the guard-labelled path to [target]
     (None when unreachable).  [min_one_step] forces a non-empty
     path. *)
  let bfs_path sources target ~min_one_step =
    let parent = Array.make auto.num_states None in
    let visited = Array.make auto.num_states false in
    let queue = Queue.create () in
    List.iter
      (fun s ->
         if not visited.(s) then begin
           visited.(s) <- true;
           Queue.add s queue
         end)
      sources;
    let found = ref None in
    if (not min_one_step) && List.mem target sources then found := Some target;
    while !found = None && not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      List.iter
        (fun (guard, dst) ->
           if !found = None then
             if dst = target then begin
               parent.(dst) <- Some (s, guard);
               found := Some dst
             end
             else if not visited.(dst) then begin
               visited.(dst) <- true;
               parent.(dst) <- Some (s, guard);
               Queue.add dst queue
             end)
        adjacency.(s)
    done;
    match !found with
    | None -> None
    | Some _ ->
      let rec rebuild s acc =
        match parent.(s) with
        | None -> acc
        | Some (prev, guard) ->
          if List.mem prev sources then guard :: acc
          else rebuild prev (guard :: acc)
      in
      Some (rebuild target [])
  in
  let rec try_accepting q =
    if q >= auto.num_states then None
    else if not auto.accepting.(q) then try_accepting (q + 1)
    else
      match bfs_path auto.initial q ~min_one_step:false with
      | None -> try_accepting (q + 1)
      | Some prefix_guards ->
        (* a cycle back to q, at least one step *)
        (match bfs_path [ q ] q ~min_one_step:true with
         | None -> try_accepting (q + 1)
         | Some loop_guards ->
           let prefix = List.map letter_of_guard prefix_guards in
           let loop = List.map letter_of_guard loop_guards in
           let loop = if loop = [] then [ letter_of_guard [] ] else loop in
           Some (Trace.make ~prefix ~loop))
  in
  try_accepting 0

let is_empty auto = find_word auto = None

let size_report auto =
  Printf.sprintf "states=%d transitions=%d atoms=%d" auto.num_states
    (List.length auto.transitions)
    (List.length auto.atoms)

let pp_dot ppf auto =
  Format.fprintf ppf "digraph nbw {@\n";
  List.iter
    (fun q -> Format.fprintf ppf "  s%d [style=bold];@\n" q)
    auto.initial;
  Array.iteri
    (fun q acc ->
       if acc then Format.fprintf ppf "  s%d [shape=doublecircle];@\n" q)
    auto.accepting;
  List.iter
    (fun (src, guard, dst) ->
       let label =
         String.concat " & "
           (List.map (fun (p, b) -> if b then p else "!" ^ p) guard)
       in
       Format.fprintf ppf "  s%d -> s%d [label=\"%s\"];@\n" src dst label)
    auto.transitions;
  Format.fprintf ppf "}@\n"
