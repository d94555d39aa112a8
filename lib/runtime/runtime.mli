(** Structured error taxonomy for resource-governed execution.

    Every worst-case-exponential engine in the pipeline (tableau,
    counting-function games, CDCL, BDD fixpoints) can exhaust a
    resource or fail outright; this module gives those outcomes one
    typed vocabulary so callers can distinguish {e inconsistent},
    {e consistent} and {e unknown-with-diagnostics} instead of
    catching ad-hoc [Failure _] strings.

    The conventions:
    - engines raise {!Interrupt} internally (cheap to throw out of a
      deep recursion) and convert it to [Error] at their boundary via
      {!guard};
    - [Error] values never escape as exceptions past a {!guard}. *)

type error =
  | Timeout of string
      (** wall-clock deadline passed while running the named stage *)
  | Fuel_exhausted of string
      (** step budget ran out in the named stage *)
  | Cancelled of string
      (** the {!Cancellation.token} was triggered *)
  | Engine_failure of string * string
      (** stage * human-readable cause: the engine cannot handle the
          instance (alphabet too large, formula outside its fragment,
          an injected fault, an unexpected exception) *)
  | Invalid_input of { stage : string; message : string; line : int option }
      (** malformed user input, with a 1-based source line when the
          input is textual *)
  | Degraded of string * error
      (** the named stage fell back to a weaker engine; the payload is
          the error that forced the degradation *)

exception Interrupt of error
(** Raised by {!Budget.checkpoint} and {!Fault.hit}; confined by
    {!guard}. *)

val stage_of : error -> string
(** The stage the error originated in (outermost for [Degraded]). *)

val is_resource : error -> bool
(** [true] for [Timeout], [Fuel_exhausted] and [Cancelled] (including
    under [Degraded]): retrying with a larger budget could succeed. *)

val invalid_input : stage:string -> ?line:int -> string -> error

val to_string : error -> string
val pp : Format.formatter -> error -> unit

val guard : stage:string -> (unit -> 'a) -> ('a, error) result
(** [guard ~stage f] confines every escape of [f]: {!Interrupt} maps
    to its payload, and any other exception (except [Out_of_memory],
    [Stack_overflow] and asynchronous exits, which are re-raised) maps
    to [Engine_failure (stage, Printexc.to_string exn)]. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] and pairs its result with the wall-clock
    seconds it took — the one stage timer shared by the ladder, the
    pipeline and watch sessions. *)
