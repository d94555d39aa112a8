type error =
  | Timeout of string
  | Fuel_exhausted of string
  | Cancelled of string
  | Engine_failure of string * string
  | Invalid_input of { stage : string; message : string; line : int option }
  | Degraded of string * error

exception Interrupt of error

let stage_of = function
  | Timeout stage
  | Fuel_exhausted stage
  | Cancelled stage
  | Engine_failure (stage, _)
  | Invalid_input { stage; _ }
  | Degraded (stage, _) ->
    stage

let rec is_resource = function
  | Timeout _ | Fuel_exhausted _ | Cancelled _ -> true
  | Engine_failure _ | Invalid_input _ -> false
  | Degraded (_, cause) -> is_resource cause

let invalid_input ~stage ?line message = Invalid_input { stage; message; line }

let rec to_string = function
  | Timeout stage -> Printf.sprintf "%s: wall-clock deadline exceeded" stage
  | Fuel_exhausted stage -> Printf.sprintf "%s: step budget exhausted" stage
  | Cancelled stage -> Printf.sprintf "%s: cancelled" stage
  | Engine_failure (stage, cause) -> Printf.sprintf "%s: %s" stage cause
  | Invalid_input { stage; message; line } ->
    (match line with
     | Some line -> Printf.sprintf "%s: line %d: %s" stage line message
     | None -> Printf.sprintf "%s: %s" stage message)
  | Degraded (stage, cause) ->
    Printf.sprintf "%s: degraded (%s)" stage (to_string cause)

let pp ppf error = Format.pp_print_string ppf (to_string error)

let guard ~stage f =
  match f () with
  | value -> Ok value
  | exception Interrupt error -> Error error
  | exception ((Out_of_memory | Stack_overflow) as exn) -> raise exn
  | exception exn -> Error (Engine_failure (stage, Printexc.to_string exn))

let timed f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)
