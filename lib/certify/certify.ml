open Speccc_logic
open Speccc_synthesis
module Runtime = Speccc_runtime.Runtime
module Budget = Speccc_runtime.Budget
module Monitor = Speccc_monitor.Monitor

type outcome =
  | Certified of string
  | Rejected of string
  | No_witness of string

let pp_outcome ppf = function
  | Certified how -> Format.fprintf ppf "certified (%s)" how
  | Rejected why -> Format.fprintf ppf "rejected: %s" why
  | No_witness why -> Format.fprintf ppf "no witness: %s" why

(* ---------- deterministic input-word generation ---------- *)

(* A controller certificate must not depend on the machine under test,
   so randomness is a plain LCG (Numerical Recipes constants), not the
   engines' exploration order and not [Random]. *)
let lcg state = (state * 1664525 + 1013904223) land 0x3FFFFFFF

let random_lasso ~inputs state =
  let next = ref state in
  let draw bound =
    next := lcg !next;
    !next mod bound
  in
  let letter () = Mealy.assignment_of_mask inputs (draw (1 lsl List.length inputs)) in
  let letters n = List.init n (fun _ -> letter ()) in
  let prefix = letters (draw 3) in
  let loop = letters (1 + draw 3) in
  ((prefix, loop), !next)

(* ---------- controller replay ---------- *)

let check_controller ?budget ~trials ~seed ~spec machine =
  let monitor_rejects trace =
    match Monitor.run_trace (Monitor.create spec) trace with
    | Monitor.Violated at -> Some at
    | Monitor.Satisfied _ | Monitor.Running _ -> None
  in
  let rec go i state =
    Option.iter (fun b -> Budget.checkpoint b ~stage:"certify") budget;
    if i >= trials then
      Certified
        (Printf.sprintf "controller replay: %d/%d input lassos satisfy the spec"
           trials trials)
    else
      let (prefix, loop), state = random_lasso ~inputs:machine.Mealy.inputs state in
      let trace = Mealy.lasso machine ~prefix ~loop in
      if not (Trace.holds trace spec) then
        Rejected
          (Format.asprintf
             "controller violates the spec on input lasso %d/%d: %a" (i + 1)
             trials Trace.pp trace)
      else
        match monitor_rejects trace with
        | Some at ->
          Rejected
            (Printf.sprintf
               "progression monitor reports a violation at step %d of replay %d"
               at (i + 1))
        | None -> go (i + 1) state
  in
  go 0 seed

(* ---------- counterstrategy validation ---------- *)

(* A sound counterstrategy beats EVERY controller, so it must beat each
   member of a fixed candidate panel: the all-low and all-high constant
   machines plus an echo machine that copies input bits onto outputs.
   Any play that ends up satisfying the spec convicts the witness. *)
let candidate_panel ~inputs ~outputs =
  let constant mask =
    {
      Mealy.inputs;
      outputs;
      num_states = 1;
      initial = 0;
      step = (fun _ _ -> (mask, 0));
    }
  in
  let width = List.length outputs in
  let echo =
    {
      Mealy.inputs;
      outputs;
      num_states = 1;
      initial = 0;
      step = (fun _ input -> (input land ((1 lsl width) - 1), 0));
    }
  in
  [ ("all-low", constant 0); ("all-high", constant ((1 lsl width) - 1));
    ("echo", echo) ]

let check_counterstrategy ?budget ~spec cs =
  let inputs = cs.Bounded.cs_inputs and outputs = cs.Bounded.cs_outputs in
  let rec go = function
    | [] ->
      Certified
        "counterstrategy defeats the whole candidate-controller panel"
    | (name, candidate) :: rest ->
      Option.iter (fun b -> Budget.checkpoint b ~stage:"certify") budget;
      (match Bounded.refute cs candidate with
       | trace ->
         if Trace.holds trace spec then
           Rejected
             (Format.asprintf
                "play against the %s controller satisfies the spec: %a" name
                Trace.pp trace)
         else go rest
       | exception Invalid_argument msg ->
         Rejected
           (Printf.sprintf "counterstrategy cannot be played (%s)" msg))
  in
  go (candidate_panel ~inputs ~outputs)

(* ---------- unsat-core re-check ---------- *)

let check_core ?budget ~assumptions ~formulas core =
  let n = List.length formulas in
  match List.find_opt (fun i -> i < 0 || i >= n) core with
  | Some i ->
    Rejected
      (Printf.sprintf "core names requirement %d of a %d-requirement document"
         i n)
  | None ->
    (* The lint floor's claim: the core requirements alone admit no
       behaviour (under the environment assumptions).  Re-derive it
       with a fresh tableau. *)
    let conjunction =
      Ltl.conj_list
        (assumptions @ List.map (fun i -> List.nth formulas i) core)
    in
    (match Speccc_lint.Lint.satisfiable ?budget conjunction with
     | None ->
       Certified
         (Printf.sprintf
            "fresh tableau confirms the %d-requirement core is unsatisfiable"
            (List.length core))
     | Some trace ->
       Rejected
         (Format.asprintf "the claimed unsat core has a model: %a" Trace.pp
            trace))

(* ---------- entry points ---------- *)

let certificate ?budget ?(trials = 32) ?(seed = 1) ~assumptions guarantees
    (report : Realizability.report) =
  let spec = Realizability.spec_of ~assumptions guarantees in
  match report.Realizability.verdict with
  | Realizability.Inconclusive _ ->
    No_witness "verdict is inconclusive; there is nothing to certify"
  | Realizability.Consistent ->
    (match report.Realizability.controller with
     | None -> No_witness "engine reported Consistent without a controller"
     | Some machine -> check_controller ?budget ~trials ~seed ~spec machine)
  | Realizability.Inconsistent ->
    (match report.Realizability.unsat_core, report.Realizability.counterstrategy
     with
     | Some core, _ -> check_core ?budget ~assumptions ~formulas:guarantees core
     | None, Some cs -> check_counterstrategy ?budget ~spec cs
     | None, None ->
       No_witness "engine reported Inconsistent without a witness")

let certify_rung ~wall outcome error =
  {
    Realizability.rung_engine = "certify";
    rung_outcome = outcome;
    rung_error = error;
    rung_wall = wall;
  }

let apply ?budget ?trials ?seed ~assumptions guarantees
    (report : Realizability.report) =
  let started = Unix.gettimeofday () in
  let result =
    Runtime.guard ~stage:"certify" (fun () ->
        certificate ?budget ?trials ?seed ~assumptions guarantees report)
  in
  let wall = Unix.gettimeofday () -. started in
  match result with
  | Ok (Certified _ as outcome) -> (report, outcome)
  | Ok (No_witness why as outcome) ->
    (match report.Realizability.verdict with
     | Realizability.Inconclusive _ -> (report, outcome)
     | Realizability.Consistent | Realizability.Inconsistent ->
       ( {
           report with
           Realizability.degradation =
             report.Realizability.degradation
             @ [ certify_rung ~wall ("uncertified: " ^ why) None ];
         },
         outcome ))
  | Ok (Rejected why as outcome) ->
    let error = Runtime.Engine_failure ("certify", why) in
    ( {
        report with
        Realizability.verdict =
          Realizability.Inconclusive ("certificate rejected: " ^ why);
        degradation =
          report.Realizability.degradation
          @ [ certify_rung ~wall ("certificate rejected: " ^ why) (Some error) ];
      },
      outcome )
  | Error error ->
    let why = Runtime.to_string error in
    ( {
        report with
        Realizability.degradation =
          report.Realizability.degradation
          @ [ certify_rung ~wall ("certification aborted: " ^ why) (Some error) ];
      },
      No_witness ("certification aborted: " ^ why) )
