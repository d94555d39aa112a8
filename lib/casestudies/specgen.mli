(** Generator of structured-English component specifications.

    The CARA component documents and the TELEPROMISE functional
    specification are not public; per the reproduction plan (DESIGN.md)
    we synthesize specifications with the same observable scale —
    requirement count, input count, output count — as each row of the
    paper's Table I, written in the same structured English the
    translator accepts, with the same structural mix (guarded
    responses, multi-sensor guards, timing deadlines, eventualities).

    The generated specifications are consistent (realizable) by
    construction: every response drives a distinct output proposition
    positively.  Inconsistencies, when a case study needs one, are
    seeded explicitly on top (see {!Telepromise}). *)

type profile = {
  prefix : string;   (** token prefix for the synthetic signal names *)
  lines : int;       (** number of requirement sentences *)
  inputs : int;      (** number of sensor (input) propositions *)
  outputs : int;     (** number of actuator (output) propositions *)
}

val sentences : profile -> string list
(** Structured-English requirements meeting the profile.  Raises
    [Invalid_argument] if the profile is infeasible
    ([lines < 1], [inputs < 1], [outputs < 1], or
    [outputs > 2 * lines]). *)

val sensor_name : profile -> int -> string

