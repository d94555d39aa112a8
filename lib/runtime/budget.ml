type t = {
  mutable fuel : int;          (* steps remaining; ignored if infinite *)
  infinite : bool;
  deadline : float option;     (* absolute Unix time *)
  cancel : Cancellation.token option;
  poll_every : int;
  mutable until_poll : int;
  mutable steps : int;
  snapshot : Snapshot.slot option;  (* anytime-progress rendezvous *)
}

let max_poll_interval = 1024

let create ?fuel ?deadline_in ?cancel ?(poll_every = 256) ?snapshot () =
  let poll_every = max 1 (min poll_every max_poll_interval) in
  {
    fuel = (match fuel with Some f -> max 0 f | None -> 0);
    infinite = fuel = None;
    deadline =
      Option.map (fun seconds -> Unix.gettimeofday () +. seconds) deadline_in;
    cancel;
    poll_every;
    until_poll = poll_every;
    steps = 0;
    snapshot;
  }

let unlimited () = create ()

let spent budget = budget.steps
let remaining budget = if budget.infinite then None else Some budget.fuel
let exhausted budget = (not budget.infinite) && budget.fuel <= 0

let poll budget ~stage =
  budget.until_poll <- budget.poll_every;
  (match budget.cancel with
   | Some token when Cancellation.is_cancelled token ->
     raise (Runtime.Interrupt (Runtime.Cancelled stage))
   | Some _ | None -> ());
  match budget.deadline with
  | Some deadline when Unix.gettimeofday () > deadline ->
    raise (Runtime.Interrupt (Runtime.Timeout stage))
  | Some _ | None -> ()

let checkpoint budget ~stage =
  (* A refused step is not spent: a budget never reports more steps
     than the fuel it was given. *)
  if not budget.infinite then begin
    if budget.fuel <= 0 then
      raise (Runtime.Interrupt (Runtime.Fuel_exhausted stage));
    budget.fuel <- budget.fuel - 1
  end;
  budget.steps <- budget.steps + 1;
  budget.until_poll <- budget.until_poll - 1;
  if budget.until_poll <= 0 then poll budget ~stage

let check budget ~stage =
  Runtime.guard ~stage (fun () ->
      if exhausted budget then
        raise (Runtime.Interrupt (Runtime.Fuel_exhausted stage));
      poll budget ~stage)

let reserve parent ~fuel =
  {
    parent with
    fuel = max 0 fuel;
    infinite = false;
    until_poll = parent.poll_every;
    steps = 0;
  }

let child parent ~fuel =
  reserve parent
    ~fuel:(if parent.infinite then fuel else min fuel parent.fuel)

let slot budget = budget.snapshot

let publish budget snap =
  match budget.snapshot with
  | None -> ()
  | Some slot -> Snapshot.publish slot snap

let resume_for budget ~engine =
  match budget.snapshot with
  | None -> None
  | Some slot -> Snapshot.resume_for slot ~engine

let absorb parent c =
  parent.steps <- parent.steps + c.steps;
  if not parent.infinite then parent.fuel <- max 0 (parent.fuel - c.steps)
