type action =
  | Fail of string
  | Timeout_now
  | Exhaust
  | Delay of float
  | Corrupt

type trigger = {
  checkpoint : string;
  after : int;
  action : action;
}

type armed = {
  resolved_after : int;
  trigger_action : action;
  mutable fired : bool;
}

type plan = {
  triggers : (string, armed) Hashtbl.t;   (* may hold several per name *)
  counts : (string, int) Hashtbl.t;
}

(* Plans are process-global (one installed plan covers every domain,
   so a parallel batch sees the same drill as a sequential one), which
   makes the mutable state here shared across domains.  Every access
   goes through [lock]; the actions themselves — raising, sleeping —
   are performed *outside* the critical section so a [Delay] cannot
   stall other domains' checkpoints and a raise cannot leak a held
   mutex. *)
let state : plan option ref = ref None
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* A tiny deterministic LCG so negative [after] fields resolve
   reproducibly from the seed, independent of any global RNG state. *)
let lcg x = (x * 1103515245) + 12345

let install ?(seed = 0) triggers =
  let plan = { triggers = Hashtbl.create 8; counts = Hashtbl.create 8 } in
  List.iteri
    (fun i { checkpoint; after; action } ->
       let resolved_after =
         if after >= 0 then after
         else abs (lcg (seed + i)) mod 8
       in
       Hashtbl.add plan.triggers checkpoint
         { resolved_after; trigger_action = action; fired = false })
    triggers;
  locked (fun () -> state := Some plan)

let clear () = locked (fun () -> state := None)

let active () = locked (fun () -> !state <> None)

let hits name =
  locked (fun () ->
      match !state with
      | None -> 0
      | Some plan ->
        (match Hashtbl.find_opt plan.counts name with
         | Some n -> n
         | None -> 0))

let perform name = function
  | Fail message ->
    raise (Runtime.Interrupt (Runtime.Engine_failure (name, message)))
  | Timeout_now -> raise (Runtime.Interrupt (Runtime.Timeout name))
  | Exhaust -> raise (Runtime.Interrupt (Runtime.Fuel_exhausted name))
  | Delay seconds -> if seconds > 0.0 then Unix.sleepf seconds
  | Corrupt -> ()

(* ------------------------------------------------------------------ *)
(* Trace observer.  The chaos explorer installs one to record the
   ordered checkpoint stream of a clean run; it sees every announce,
   with or without an installed plan, before any trigger fires. *)

let observer : (string -> unit) option Atomic.t = Atomic.make None
let set_observer f = Atomic.set observer f

(* ------------------------------------------------------------------ *)
(* Checkpoint scopes and the strict-I/O lint.  A scope is pushed for
   the dynamic extent of a guarded I/O path (store append, journal
   line, socket write); [io_event] records a violation when a raw
   write runs with no enclosing scope while the lint is armed.  The
   scope stack is domain-local so worker domains lint independently. *)

let scope_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let in_scope name f =
  let stack = Domain.DLS.get scope_key in
  stack := name :: !stack;
  Fun.protect ~finally:(fun () -> stack := List.tl !stack) f

let current_scope () =
  match !(Domain.DLS.get scope_key) with
  | [] -> None
  | name :: _ -> Some name

let strict = Atomic.make false
let unguarded : (string, int) Hashtbl.t = Hashtbl.create 8

let strict_io enabled =
  locked (fun () -> Hashtbl.reset unguarded);
  Atomic.set strict enabled

let io_event kind =
  if Atomic.get strict && current_scope () = None then
    locked (fun () ->
        let n = Option.value ~default:0 (Hashtbl.find_opt unguarded kind) in
        Hashtbl.replace unguarded kind (n + 1))

let unguarded_io () =
  locked (fun () ->
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) unguarded []
      |> List.sort compare)

(* Count the hit and collect matching triggers under the lock, then
   fire them unlocked.  [Corrupt] triggers fire only when
   [allow_corrupt]; the return value says whether one did. *)
let announce ~allow_corrupt name =
  (match Atomic.get observer with
   | None -> ()
   | Some notify -> notify name);
  let corrupted, to_perform =
    locked (fun () ->
        match !state with
        | None -> (false, [])
        | Some plan ->
          let count =
            match Hashtbl.find_opt plan.counts name with
            | Some n -> n
            | None -> 0
          in
          Hashtbl.replace plan.counts name (count + 1);
          let corrupted = ref false in
          let actions = ref [] in
          List.iter
            (fun armed ->
               if (not armed.fired) && armed.resolved_after = count then
                 match armed.trigger_action with
                 | Corrupt ->
                   if allow_corrupt then begin
                     armed.fired <- true;
                     corrupted := true
                   end
                 | action ->
                   armed.fired <- true;
                   actions := action :: !actions)
            (Hashtbl.find_all plan.triggers name);
          (!corrupted, List.rev !actions))
  in
  List.iter (perform name) to_perform;
  corrupted

let hit name = ignore (announce ~allow_corrupt:false name)
let corrupt name = announce ~allow_corrupt:true name

module Checkpoint = struct
  (* The registry is dynamic: announcing modules register their sites
     at init, so [--list-faults] and the chaos explorer enumerate the
     live vocabulary instead of a hand-maintained list going stale.
     Registration order is link order, which is stable for a given
     binary. *)
  type entry = { name : string; desc : string; corrupt_site : bool }

  let registry : entry list ref = ref []

  let register ?(corruptible = false) name desc =
    locked (fun () ->
        if not (List.exists (fun e -> e.name = name) !registry) then
          registry :=
            !registry @ [ { name; desc; corrupt_site = corruptible } ]);
    name

  let all () =
    locked (fun () -> List.map (fun e -> (e.name, e.desc)) !registry)

  let mem name =
    locked (fun () -> List.exists (fun e -> e.name = name) !registry)

  let corruptible name =
    locked (fun () ->
        List.exists (fun e -> e.name = name && e.corrupt_site) !registry)

  let sat_solve = register "sat.solve" "CDCL solver entry (lib/sat)"
  let timeabs_solve =
    register "timeabs.solve"
      "Sec. IV-E time-abstraction solve, once per timed document \
       checked under a time budget (lib/core)"
  let tableau_expand =
    register "tableau.expand"
      "each GPVW tableau node expansion (lib/automata)"
  let bdd_fixpoint =
    register "bdd.fixpoint" "each symbolic obligation-game fixpoint round"
  let engine_symbolic =
    register "engine.symbolic" "BDD obligation-game engine entry"
  let engine_explicit =
    register "engine.explicit" "explicit bounded-synthesis engine entry"
  let pipeline_lint =
    register "pipeline.lint" "lint pass entry (the ladder's floor)"
  let witness_controller =
    register ~corruptible:true "witness.controller"
      "controller emission; Corrupt flips the controller's output bits"
  let witness_counterstrategy =
    register ~corruptible:true "witness.counterstrategy"
      "counterstrategy emission; Corrupt zeroes the environment moves"
  let witness_core =
    register ~corruptible:true "witness.core"
      "unsat-core emission; Corrupt empties the core"
  let harness_document =
    register "harness.document"
      "batch harness, before each document and outside its confinement \
       (a raising trigger simulates a crash)"
  let server_request =
    register "server.request"
      "serve mode, inside a worker just before it starts a request \
       (a Delay models an engine stalled between checkpoints)"
  let store_append =
    register ~corruptible:true "store.append"
      "verdict store, before a record is appended to the log (a \
       raising trigger models the process dying mid-write; Corrupt \
       leaves a torn half-frame that recovery truncates on the next \
       open)"
end
