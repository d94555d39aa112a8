open Speccc_logic
open Speccc_automata
module Budget = Speccc_runtime.Budget
module Snapshot = Speccc_runtime.Snapshot

type counterstrategy = {
  cs_inputs : string list;
  cs_outputs : string list;
  cs_num_states : int;
  cs_initial : int;
  cs_move : int -> int;
  cs_next : int -> int -> int;
}

type verdict =
  | Realizable of Mealy.t
  | Unrealizable of counterstrategy
  | Unknown of int

(* One fuel unit per fixpoint round, input valuation and extracted
   state. *)
let tick budget =
  match budget with
  | Some budget -> Budget.checkpoint budget ~stage:"explicit"
  | None -> ()

(* Transitions of the UCW, with guards compiled to (mask, value) pairs
   over the combined input-then-output bit layout. *)
type compiled_transition = {
  dst : int;
  guard_mask : int;
  guard_value : int;
}

let compile_automaton auto ~inputs ~outputs =
  let bit_of =
    let table = Hashtbl.create 16 in
    List.iteri (fun i p -> Hashtbl.add table p i) inputs;
    let base = List.length inputs in
    List.iteri (fun i p -> Hashtbl.add table p (base + i)) outputs;
    fun p -> Hashtbl.find_opt table p
  in
  let by_src = Array.make auto.Nbw.num_states [] in
  List.iter
    (fun (src, guard, dst) ->
       let compiled =
         List.fold_left
           (fun acc (p, value) ->
              match acc with
              | None -> None
              | Some t ->
                (match bit_of p with
                 | Some bit ->
                   Some
                     {
                       t with
                       guard_mask = t.guard_mask lor (1 lsl bit);
                       guard_value =
                         (if value then t.guard_value lor (1 lsl bit)
                          else t.guard_value);
                     }
                 | None ->
                   (* Unknown propositions are constant false. *)
                   if value then None else Some t))
           (Some { dst; guard_mask = 0; guard_value = 0 })
           guard
       in
       match compiled with
       | Some t -> by_src.(src) <- t :: by_src.(src)
       | None -> ())
    auto.Nbw.transitions;
  by_src

(* Counting functions are arrays over UCW states: -1 inactive,
   otherwise the maximal number of accepting states seen on a run
   reaching this state.  Keys for hashing are byte strings. *)
let key_of_counts counts =
  let bytes = Bytes.create (Array.length counts) in
  Array.iteri (fun i c -> Bytes.set bytes i (Char.chr (c + 1))) counts;
  Bytes.to_string bytes

let successor_counts auto by_src ~bound counts letter =
  let n = Array.length counts in
  let next = Array.make n (-1) in
  let overflow = ref false in
  for q = 0 to n - 1 do
    if counts.(q) >= 0 then
      List.iter
        (fun t ->
           if letter land t.guard_mask = t.guard_value then begin
             let credit = if auto.Nbw.accepting.(t.dst) then 1 else 0 in
             let value = counts.(q) + credit in
             if value > bound then overflow := true
             else if value > next.(t.dst) then next.(t.dst) <- value
           end)
        by_src.(q)
  done;
  if !overflow then None else Some next

let initial_counts_of auto =
  let counts = Array.make auto.Nbw.num_states (-1) in
  List.iter
    (fun q -> counts.(q) <- (if auto.Nbw.accepting.(q) then 1 else 0))
    auto.Nbw.initial;
  counts

(* ---------- antichain game solving ----------

   Counting functions are ordered pointwise ([-1] inactive is bottom);
   the transition function is monotone in that order and overflow is
   upward-closed, so the system's safety winning region is downward
   closed and is represented exactly by its ⊑-maximal elements
   (Acacia-style).  The fixpoint works backward on antichains: one
   controllable-predecessor step maps the current frontier to the
   maximal positions from which the mover can stay inside it, and the
   iteration stops as soon as the initial position falls out (early
   exit) or the frontier stabilizes.  Independent requirements then
   cost a few antichain elements instead of a product state space. *)

(* f ⊑ g, pointwise on counts with -1 (inactive) as bottom. *)
let dominated f g =
  let n = Array.length f in
  let rec go q = q >= n || (f.(q) <= g.(q) && go (q + 1)) in
  go 0

let insert_maximal f antichain =
  if List.exists (fun g -> dominated f g) antichain then antichain
  else f :: List.filter (fun g -> not (dominated g f)) antichain

let meet f g = Array.init (Array.length f) (fun q -> min f.(q) g.(q))

let meet_antichains a b =
  List.fold_left
    (fun acc f ->
       List.fold_left (fun acc g -> insert_maximal (meet f g) acc) acc b)
    [] a

(* Largest f with succ(f, letter) ⊑ w and no overflow:
   f(q) = min over enabled edges q→q' of w(q') − credit(q'), clamped to
   [-1, bound]; states with no enabled edge are unconstrained. *)
let pre_max auto by_src ~bound w letter =
  let n = Array.length w in
  Array.init n (fun q ->
      let c = ref bound in
      List.iter
        (fun t ->
           if letter land t.guard_mask = t.guard_value then begin
             let credit = if auto.Nbw.accepting.(t.dst) then 1 else 0 in
             let allow = w.(t.dst) - credit in
             if allow < !c then c := allow
           end)
        by_src.(q);
      if !c < 0 then -1 else !c)

(* One controllable-predecessor step on antichains.
   System game (∀input ∃output): meet over inputs of the union over
   (output, frontier element) of maximal predecessors.
   Dual game (∃input ∀output): union over inputs of the meet over
   outputs of the per-output predecessor antichains. *)
let cpre_antichain ?budget auto by_src ~bound ~num_input_bits
    ~num_output_bits ~system_moves_second frontier =
  let num_inputs = 1 lsl num_input_bits in
  let num_outputs = 1 lsl num_output_bits in
  let combined imask omask = imask lor (omask lsl num_input_bits) in
  if system_moves_second then begin
    let per_input imask =
      let acc = ref [] in
      for omask = 0 to num_outputs - 1 do
        List.iter
          (fun w ->
             acc :=
               insert_maximal
                 (pre_max auto by_src ~bound w (combined imask omask))
                 !acc)
          frontier
      done;
      !acc
    in
    let result = ref (per_input 0) in
    for imask = 1 to num_inputs - 1 do
      tick budget;
      result := meet_antichains !result (per_input imask)
    done;
    !result
  end
  else begin
    let per_input imask =
      let per_output omask =
        List.fold_left
          (fun acc w ->
             insert_maximal
               (pre_max auto by_src ~bound w (combined imask omask))
               acc)
          [] frontier
      in
      let acc = ref (per_output 0) in
      for omask = 1 to num_outputs - 1 do
        acc := meet_antichains !acc (per_output omask)
      done;
      !acc
    in
    let result = ref [] in
    for imask = 0 to num_inputs - 1 do
      tick budget;
      List.iter (fun f -> result := insert_maximal f !result)
        (per_input imask)
    done;
    !result
  end

(* A resumable frontier travels as an explicit-engine snapshot tagged
   with its counting bound and game side.  The decoder is strict: a payload
   for another bound or game, or with a cell out of shape, is refused. *)
let frontier_snapshot ~bound ~game frontier =
  Snapshot.make ~engine:"explicit"
    [
      ("bound", string_of_int bound);
      ("game", game);
      ("frontier", Snapshot.counts_to_field frontier);
    ]

let frontier_of_snapshot ~bound ~game ~num_states snap =
  if Snapshot.int_field snap "bound" <> Some bound
  || Snapshot.field snap "game" <> Some game
  then None
  else
    match Option.bind (Snapshot.field snap "frontier") Snapshot.counts_of_field
    with
    | Some (_ :: _ as frontier)
      when List.for_all
             (fun w ->
                Array.length w = num_states
                && Array.for_all (fun c -> c >= -1 && c <= bound) w)
             frontier ->
      Some frontier
    | Some _ | None -> None

(* Greatest fixpoint on antichains, started from [trusted]: a frontier
   known to be ⊒ the exact winning region (⊤, or the meet of lifted
   solo frontiers — see the block-decomposition note below).  Every
   iterate then stays ⊒ the winning region, so an early-exit loss is
   genuine and the iteration converges to the same canonical maximal-
   element frontier whatever trusted start it took.

   With [anytime] set and a snapshot slot on the budget, each round
   publishes its frontier, and a run whose slot is armed with a
   frontier for this bound and game resumes from it instead.  A resumed
   frontier is not trusted: a loss under it is re-checked from
   [trusted], so a stale or forged snapshot can cost time, never flip a
   verdict.  (A win is self-certifying — a converged frontier satisfies
   W ⊑ CPre(W), so ↓W is a winning invariant wherever the iteration
   started.) *)
let antichain_gfp ?budget ~anytime auto by_src ~bound ~num_input_bits
    ~num_output_bits ~system_moves_second trusted =
  let initial = initial_counts_of auto in
  let game = if system_moves_second then "system" else "dual" in
  let slotted =
    match budget with
    | Some b when anytime && Option.is_some (Budget.slot b) -> Some b
    | Some _ | None -> None
  in
  let publish frontier =
    Option.iter
      (fun b -> Budget.publish b (frontier_snapshot ~bound ~game frontier))
      slotted
  in
  let cpre frontier =
    cpre_antichain ?budget auto by_src ~bound ~num_input_bits ~num_output_bits
      ~system_moves_second frontier
  in
  let holds_initial = List.exists (dominated initial) in
  let rec enter ~resumed frontier =
    if holds_initial frontier then iterate ~resumed frontier
    else lost ~resumed
  and iterate ~resumed frontier =
    tick budget;
    let frontier' = meet_antichains frontier (cpre frontier) in
    if not (holds_initial frontier') then lost ~resumed
    else if
      List.for_all (fun f -> List.exists (dominated f) frontier') frontier
    then Some frontier'
    else begin
      publish frontier';
      iterate ~resumed frontier'
    end
  and lost ~resumed =
    if resumed then enter ~resumed:false trusted else None
  in
  let resumed =
    Option.bind slotted (fun b ->
        Option.bind (Budget.resume_for b ~engine:"explicit")
          (frontier_of_snapshot ~bound ~game ~num_states:auto.Nbw.num_states))
  in
  match resumed with
  | Some frontier -> enter ~resumed:true frontier
  | None -> enter ~resumed:false trusted

(* ---------- witness extraction ---------- *)

(* Controller from a winning antichain: forward walk over the counting
   functions actually reached under the strategy "first output whose
   successor stays dominated". *)
let controller_of_frontier ?budget auto by_src ~bound frontier ~inputs
    ~outputs =
  let num_input_bits = List.length inputs in
  let num_inputs = 1 lsl num_input_bits in
  let num_outputs = 1 lsl List.length outputs in
  let combined imask omask = imask lor (omask lsl num_input_bits) in
  let winning f = List.exists (fun w -> dominated f w) frontier in
  let ids = Hashtbl.create 64 in
  let rows = ref [] in
  let rec intern counts =
    let key = key_of_counts counts in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      tick budget;
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      let row = Array.make num_inputs (0, 0) in
      rows := row :: !rows;
      for imask = 0 to num_inputs - 1 do
        let rec first omask =
          if omask >= num_outputs then
            assert false (* dominated positions always have a move *)
          else
            match
              successor_counts auto by_src ~bound counts
                (combined imask omask)
            with
            | Some next when winning next -> (omask, next)
            | Some _ | None -> first (omask + 1)
        in
        let omask, next = first 0 in
        row.(imask) <- (omask, intern next)
      done;
      id
  in
  let initial = intern (initial_counts_of auto) in
  let step_table = Array.of_list (List.rev !rows) in
  {
    Mealy.inputs;
    outputs;
    num_states = Array.length step_table;
    initial;
    step = (fun state imask -> step_table.(state).(imask));
  }

(* Environment counterstrategy from a won dual game: first input under
   which every system answer stays dominated. *)
let counterstrategy_of_frontier ?budget auto by_src ~bound frontier ~inputs
    ~outputs =
  let num_input_bits = List.length inputs in
  let num_inputs = 1 lsl num_input_bits in
  let num_outputs = 1 lsl List.length outputs in
  let combined imask omask = imask lor (omask lsl num_input_bits) in
  let winning f = List.exists (fun w -> dominated f w) frontier in
  let successors counts imask =
    let rec collect omask acc =
      if omask < 0 then Some acc
      else
        match
          successor_counts auto by_src ~bound counts (combined imask omask)
        with
        | Some next when winning next -> collect (omask - 1) (next :: acc)
        | Some _ | None -> None
    in
    collect (num_outputs - 1) []
  in
  let winning_move counts =
    let rec first imask =
      if imask >= num_inputs then assert false
      else
        match successors counts imask with
        | Some nexts -> (imask, nexts)
        | None -> first (imask + 1)
    in
    first 0
  in
  let ids = Hashtbl.create 64 in
  let moves = ref [] in
  let nexts_table = ref [] in
  let rec intern counts =
    let key = key_of_counts counts in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      tick budget;
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      let imask, nexts = winning_move counts in
      moves := (id, imask) :: !moves;
      let row = Array.make num_outputs 0 in
      nexts_table := (id, row) :: !nexts_table;
      List.iteri (fun omask next -> row.(omask) <- intern next) nexts;
      id
  in
  let initial = intern (initial_counts_of auto) in
  let num_states = Hashtbl.length ids in
  let move_arr = Array.make num_states 0 in
  List.iter (fun (id, imask) -> move_arr.(id) <- imask) !moves;
  let next_arr = Array.make num_states [||] in
  List.iter (fun (id, row) -> next_arr.(id) <- row) !nexts_table;
  {
    cs_inputs = inputs;
    cs_outputs = outputs;
    cs_num_states = num_states;
    cs_initial = initial;
    cs_move = (fun state -> move_arr.(state));
    cs_next = (fun state omask -> next_arr.(state).(omask));
  }

let refute counterstrategy machine =
  if counterstrategy.cs_inputs <> machine.Mealy.inputs
  || counterstrategy.cs_outputs <> machine.Mealy.outputs
  then invalid_arg "Bounded.refute: interface mismatch";
  let combined_letter imask omask =
    Mealy.assignment_of_mask counterstrategy.cs_inputs imask
    @ Mealy.assignment_of_mask counterstrategy.cs_outputs omask
  in
  let seen = Hashtbl.create 64 in
  let rec play cs_state mealy_state acc step_index =
    match Hashtbl.find_opt seen (cs_state, mealy_state) with
    | Some first_index ->
      let letters = List.rev acc in
      let prefix = List.filteri (fun i _ -> i < first_index) letters in
      let loop = List.filteri (fun i _ -> i >= first_index) letters in
      Speccc_logic.Trace.make ~prefix ~loop
    | None ->
      Hashtbl.add seen (cs_state, mealy_state) step_index;
      let imask = counterstrategy.cs_move cs_state in
      let omask, mealy' = machine.Mealy.step mealy_state imask in
      let cs' = counterstrategy.cs_next cs_state omask in
      play cs' mealy' (combined_letter imask omask :: acc) (step_index + 1)
  in
  play counterstrategy.cs_initial machine.Mealy.initial [] 0

(* Bit [k] of a component's own mask is bit [positions.(k)] of the
   whole alphabet's mask. *)
let lift cs ~inputs ~outputs =
  let positions own wide =
    Array.of_list
      (List.map
         (fun p ->
            match List.find_index (String.equal p) wide with
            | Some i -> i
            | None ->
              invalid_arg ("Bounded.lift: " ^ p ^ " is not in the alphabet"))
         own)
  in
  let input_bits = positions cs.cs_inputs inputs in
  let output_bits = positions cs.cs_outputs outputs in
  let widen mask =
    let wide = ref 0 in
    Array.iteri
      (fun k bit ->
         if mask land (1 lsl k) <> 0 then wide := !wide lor (1 lsl bit))
      input_bits;
    !wide
  in
  let narrow wide =
    let mask = ref 0 in
    Array.iteri
      (fun k bit ->
         if wide land (1 lsl bit) <> 0 then mask := !mask lor (1 lsl k))
      output_bits;
    !mask
  in
  {
    cs with
    cs_inputs = inputs;
    cs_outputs = outputs;
    cs_move = (fun state -> widen (cs.cs_move state));
    cs_next = (fun state omask -> cs.cs_next state (narrow omask));
  }

let fits ?(max_letters = 4096) ~inputs ~outputs () =
  let bits = List.length inputs + List.length outputs in
  bits <= 24 && 1 lsl bits <= max_letters

(* ---------- block decomposition ----------

   The UCW of ¬(f1 ∧ ... ∧ fm) is the disjoint union of the per-
   conjunct automata NBW(¬fi), so the joint counting-function game
   decomposes block-wise: a counting function over the union is the
   concatenation of per-block counting functions, and a joint winning
   strategy wins every per-block "solo" game (a joint play restricted
   to block i is a valid solo play).  Hence

       W*_joint  ⊆  ⋂i lift_i(W*_i)

   where lift_i extends a block-i counting function with ⊤ (the bound)
   everywhere else.  The joint gfp is seeded with the meet of the
   lifted solo frontiers instead of ⊤; by the note on [antichain_gfp]
   this is verdict- and witness-exact.  One formula is a one-block
   union: its solo game would be the joint game itself, so it is
   seeded at ⊤ directly — the plain antichain run on NBW(¬f).

   A [session] caches, per formula id, the compiled block and its
   converged solo frontier per counting bound, so after a one-sentence
   edit only the edited conjunct's block is re-compiled and re-solved
   solo.  The automaton itself always comes from [Nbw.of_ltl], whose
   cache charges a budget the same on a hit as on a cold build, so the
   fuel a check spends does not depend on which blocks the session
   held. *)

type block = {
  b_auto : Nbw.t;
  b_by_src : compiled_transition list array;
  b_solo : (int, int array list option) Hashtbl.t;
      (* bound -> converged solo frontier, None = solo lost *)
}

type session = {
  mutable io_tag : string;
      (* compiled guards and solo regions are relative to the in/out
         alphabets; a partition change invalidates everything *)
  s_blocks : (int, block) Hashtbl.t;           (* formula id -> block *)
  mutable s_built_blocks : int;
  mutable s_reused_blocks : int;
  mutable s_solved_solo : int;
  mutable s_reused_solo : int;
}

type session_stats = {
  cached_blocks : int;
  cached_solo : int;
  built_blocks : int;
  reused_blocks : int;
  solved_solo : int;
  reused_solo : int;
}

let create_session () = {
  io_tag = "";
  s_blocks = Hashtbl.create 64;
  s_built_blocks = 0;
  s_reused_blocks = 0;
  s_solved_solo = 0;
  s_reused_solo = 0;
}

let session_stats s = {
  cached_blocks = Hashtbl.length s.s_blocks;
  cached_solo =
    Hashtbl.fold (fun _ b n -> n + Hashtbl.length b.b_solo) s.s_blocks 0;
  built_blocks = s.s_built_blocks;
  reused_blocks = s.s_reused_blocks;
  solved_solo = s.s_solved_solo;
  reused_solo = s.s_reused_solo;
}

let prune_session s ~retain =
  Hashtbl.filter_map_inplace
    (fun id block -> if retain id then Some block else None)
    s.s_blocks

let ensure_io session ~inputs ~outputs =
  let tag =
    String.concat "\x1f" inputs ^ "\x1e" ^ String.concat "\x1f" outputs
  in
  if session.io_tag <> tag then begin
    Hashtbl.reset session.s_blocks;
    session.io_tag <- tag
  end

(* The cached block is reused while [Nbw.of_ltl] hands back the very
   automaton it was compiled from; a rebuilt automaton (cache eviction,
   fault injection) gets a fresh block and drops its solo frontiers. *)
let block_of session ?budget ~inputs ~outputs formula =
  let auto = Nbw.of_ltl ?budget (Ltl.neg formula) in
  let id = Ltl.id formula in
  match Hashtbl.find_opt session.s_blocks id with
  | Some block when block.b_auto == auto ->
    session.s_reused_blocks <- session.s_reused_blocks + 1;
    block
  | Some _ | None ->
    let block =
      { b_auto = auto;
        b_by_src = compile_automaton auto ~inputs ~outputs;
        b_solo = Hashtbl.create 4 }
    in
    Hashtbl.replace session.s_blocks id block;
    session.s_built_blocks <- session.s_built_blocks + 1;
    block

(* Converged solo frontier of one block's system game, or [None] when
   the system cannot even win that conjunct alone (which settles the
   joint system game at this bound: a joint win restricts to a solo
   win).  Solo games neither publish nor resume. *)
let solo_of session ?budget ~bound ~num_input_bits ~num_output_bits block =
  match Hashtbl.find_opt block.b_solo bound with
  | Some frontier ->
    session.s_reused_solo <- session.s_reused_solo + 1;
    frontier
  | None ->
    let frontier =
      antichain_gfp ?budget ~anytime:false block.b_auto block.b_by_src ~bound
        ~num_input_bits ~num_output_bits ~system_moves_second:true
        [ Array.make block.b_auto.Nbw.num_states bound ]
    in
    session.s_solved_solo <- session.s_solved_solo + 1;
    Hashtbl.replace block.b_solo bound frontier;
    frontier

(* Disjoint union of the blocks, with per-block state offsets; the
   [transitions]/[atoms] fields are dead weight for the game solvers
   (they read [accepting]/[initial] plus the compiled guards), so the
   union leaves them empty.  A single block is its own union. *)
let union_of_blocks = function
  | [ b ] -> (b.b_auto, b.b_by_src, [ 0 ])
  | blocks ->
    let total =
      List.fold_left (fun n b -> n + b.b_auto.Nbw.num_states) 0 blocks
    in
    let accepting = Array.make total false in
    let by_src = Array.make total [] in
    let initial = ref [] in
    let offset = ref 0 in
    let offsets =
      List.map
        (fun b ->
           let off = !offset in
           Array.blit b.b_auto.Nbw.accepting 0 accepting off
             b.b_auto.Nbw.num_states;
           Array.iteri
             (fun src ts ->
                by_src.(off + src) <-
                  List.map (fun t -> { t with dst = t.dst + off }) ts)
             b.b_by_src;
           List.iter (fun q -> initial := (q + off) :: !initial)
             b.b_auto.Nbw.initial;
           offset := off + b.b_auto.Nbw.num_states;
           off)
        blocks
    in
    let auto = {
      Nbw.num_states = total;
      initial = List.rev !initial;
      accepting;
      transitions = [];
      atoms = [];
    }
    in
    (auto, by_src, offsets)

(* The meet of the lifted solo frontiers.  Worst case the meet is the
   product of the per-block frontiers, so the accumulation is capped:
   blocks beyond the cap keep their lift at ⊤ — dropping a constraint
   only loosens the seed, which stays an upper bound of the joint
   winning region. *)
let seed_cap = 64

let seeded_frontier ~bound ~total solos_with_offsets =
  let lift off w =
    let a = Array.make total bound in
    Array.blit w 0 a off (Array.length w);
    a
  in
  List.fold_left
    (fun seed (frontier, off) ->
       let lifted = List.map (lift off) frontier in
       if List.length seed * List.length lifted > seed_cap then seed
       else meet_antichains seed lifted)
    [ Array.make total bound ]
    solos_with_offsets

(* The trusted start of the joint system game: ⊤ for one block, the
   seeded meet otherwise; [None] when some conjunct is lost solo. *)
let trusted_start session ?budget ~bound ~num_input_bits ~num_output_bits
    ~total blocks offsets =
  match blocks with
  | [ _ ] -> Some [ Array.make total bound ]
  | _ ->
    let solos =
      List.map
        (solo_of session ?budget ~bound ~num_input_bits ~num_output_bits)
        blocks
    in
    if List.exists Option.is_none solos then None
    else
      Some
        (seeded_frontier ~bound ~total
           (List.combine (List.map Option.get solos) offsets))

let solve_at_bound ?budget session ~bound ~inputs ~outputs formulas =
  Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.engine_explicit;
  let num_input_bits = List.length inputs in
  let num_output_bits = List.length outputs in
  let blocks = List.map (block_of session ?budget ~inputs ~outputs) formulas in
  let auto, by_src, offsets = union_of_blocks blocks in
  let system_frontier =
    Option.bind
      (trusted_start session ?budget ~bound ~num_input_bits ~num_output_bits
         ~total:auto.Nbw.num_states blocks offsets)
      (antichain_gfp ?budget ~anytime:true auto by_src ~bound ~num_input_bits
         ~num_output_bits ~system_moves_second:true)
  in
  match system_frontier with
  | Some frontier ->
    Realizable
      (controller_of_frontier ?budget auto by_src ~bound frontier ~inputs
         ~outputs)
  | None ->
    (* The dual game: the environment realizes the negation, moving
       first (Moore).  Winning it proves unrealizability exactly.  Its
       UCW is the automaton of the conjunction itself, which does not
       decompose as a union. *)
    let ucw_dual = Nbw.of_ltl ?budget (Ltl.conj_list formulas) in
    let by_src_dual = compile_automaton ucw_dual ~inputs ~outputs in
    (match
       antichain_gfp ?budget ~anytime:true ucw_dual by_src_dual ~bound
         ~num_input_bits ~num_output_bits ~system_moves_second:false
         [ Array.make ucw_dual.Nbw.num_states bound ]
     with
     | Some frontier ->
       Unrealizable
         (counterstrategy_of_frontier ?budget ucw_dual by_src_dual ~bound
            frontier ~inputs ~outputs)
     | None -> Unknown bound)

let solve ?budget ?session ?(max_bound = 8) ?(max_letters = 4096) ~inputs
    ~outputs formulas =
  if not (fits ~max_letters ~inputs ~outputs ()) then
    invalid_arg
      (Printf.sprintf
         "Bounded.solve: %d propositions exceed the explicit engine's \
          letter budget (max_letters = %d); use the symbolic engine"
         (List.length inputs + List.length outputs) max_letters);
  let session = match session with Some s -> s | None -> create_session () in
  ensure_io session ~inputs ~outputs;
  (* Anytime resume across bounds: a bare-bound snapshot records a
     bound that completed with Unknown, so a preempted-then-retried
     search escalates past it; a snapshot carrying a frontier marks a
     bound preempted mid-fixpoint, so the search restarts at that bound
     and the game resumes from the frontier.  The escalation tail is a
     cold run's, so the final verdict cannot differ. *)
  let start =
    match Option.bind budget (Budget.resume_for ~engine:"explicit") with
    | Some snap ->
      (match Snapshot.int_field snap "bound" with
       | Some k when k >= 1 ->
         if Snapshot.field snap "frontier" <> None then min k max_bound
         else min (2 * k) max_bound
       | Some _ | None -> 1)
    | None -> 1
  in
  let publish_bound bound =
    Option.iter
      (fun b ->
         Budget.publish b
           (Snapshot.make ~engine:"explicit"
              [ ("bound", string_of_int bound) ]))
      budget
  in
  let rec escalate bound =
    match solve_at_bound ?budget session ~bound ~inputs ~outputs formulas with
    | (Realizable _ | Unrealizable _) as verdict -> verdict
    | Unknown _ ->
      publish_bound bound;
      if 2 * bound <= max_bound then escalate (2 * bound) else Unknown bound
  in
  escalate (max 1 start)
