(* SpecCC — Specification Consistency Checking.

   Subcommands:
     translate   requirements -> LTL (stage 1)
     tree        print the syntax tree of one sentence (Fig. 2)
     lint        exact per-requirement sanity checks (SCR-style)
     check       full pipeline: translate, abstract, partition, check
     watch       incremental re-checking for a live document
     localize    locate the inconsistent requirements (Sec. V-B)
     synth       extract the controller / counterstrategy
     testgen     conformance test suite from the controller
     patterns    Dwyer-pattern classification of the requirements
     table       reproduce Table I *)

open Cmdliner
open Speccc_logic
open Speccc_core
open Speccc_synthesis
open Speccc_casestudies

(* ---------- shared helpers ---------- *)

let builtin_spec = function
  | "cara" | "cara:0" ->
    Some
      (List.mapi
         (fun line (id, text) -> { Document.id; text; line = line + 1 })
         Cara.working_modes)
  | "cara:modes" ->
    Some
      (List.mapi
         (fun line (id, text) -> { Document.id; text; line = line + 1 })
         Cara.mode_description)
  | name ->
    (match String.index_opt name ':' with
     | Some i ->
       let group = String.sub name 0 i in
       let row = String.sub name (i + 1) (String.length name - i - 1) in
       (match group with
        | "cara" ->
          List.find_opt (fun c -> c.Cara.row = row) Cara.components
          |> Option.map (fun c -> Document.of_texts (Cara.component_sentences c))
        | "tele" ->
          List.find_opt (fun a -> a.Telepromise.row = row)
            Telepromise.applications
          |> Option.map (fun a ->
              Document.of_texts (Telepromise.application_sentences a))
        | "arbiter" ->
          (match int_of_string_opt row with
           | Some masters when masters >= 1 && masters <= 4 ->
             Some
               (List.mapi
                  (fun line (id, text) -> { Document.id; text; line = line + 1 })
                  (Arbiter.instance ~masters).Arbiter.document)
           | Some _ | None -> None)
        | _ -> None)
     | None -> None)

(* Formal built-ins ("robot:RxK"): specifications produced directly in
   LTL with their partition, so they bypass translation. *)
let robot_spec name =
  match String.index_opt name ':' with
  | Some i when String.sub name 0 i = "robot" ->
    let rest = String.sub name (i + 1) (String.length name - i - 1) in
    (match String.split_on_char 'x' rest with
     | [ robots; rooms ] ->
       (match int_of_string_opt robots, int_of_string_opt rooms with
        | Some robots, Some rooms -> Some (Robot.scenario ~robots ~rooms)
        | _ -> None)
     | _ -> None)
  | _ -> None

let load_document source =
  match builtin_spec source with
  | Some document -> document
  | None ->
    if Sys.file_exists source then Document.of_file source
    else
      failwith
        (Printf.sprintf
           "unknown specification %S (expected a file, \"cara\", \
            \"cara:ROW\" or \"tele:ROW\"; \"robot:RxK\" is for check \
            only)"
           source)

let spec_arg =
  let doc =
    "Specification: a file with one requirement sentence per line \
     ('#' comments allowed), or a built-in: $(b,cara), $(b,cara:2.1.1), \
     $(b,tele:4), $(b,robot:2x5), ..."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)

let engine_arg =
  let parse = function
    | "auto" -> Ok Realizability.Auto
    | "explicit" -> Ok Realizability.Explicit
    | "symbolic" -> Ok Realizability.Symbolic
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  let print ppf e =
    Format.pp_print_string ppf
      (match e with
       | Realizability.Auto -> "auto"
       | Realizability.Explicit -> "explicit"
       | Realizability.Symbolic -> "symbolic")
  in
  Arg.(value & opt (conv (parse, print)) Realizability.Auto
       & info [ "engine" ] ~doc:"Synthesis engine: auto, explicit, symbolic.")

let lookahead_arg =
  Arg.(value & opt int 6
       & info [ "lookahead" ]
         ~doc:"Bounded-eventuality depth for the symbolic engine.")

let time_budget_arg =
  Arg.(value & opt int 5
       & info [ "time-budget" ]
         ~doc:"Arrival-error budget B for time abstraction (Sec. IV-E).")

let fuel_arg =
  Arg.(value & opt (some int) None
       & info [ "budget" ]
         ~doc:"Deterministic step budget (fuel) for the synthesis \
               stage.  Exhaustion degrades down the engine fallback \
               ladder (symbolic, explicit, then the lint floor) instead \
               of hanging; the degradation steps are reported.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ]
         ~doc:"Wall-clock seconds allowed for the synthesis stage.")

let options_of ?fuel ?deadline ~engine ~lookahead ~time_budget () =
  if time_budget < 0 then
    failwith (Printf.sprintf "--time-budget must be >= 0 (got %d)" time_budget);
  (match fuel with
   | Some f when f <= 0 ->
     failwith (Printf.sprintf "--budget must be positive (got %d)" f)
   | _ -> ());
  (match deadline with
   | Some d when d <= 0.0 ->
     failwith (Printf.sprintf "--deadline must be positive (got %g)" d)
   | _ -> ());
  let defaults = Pipeline.default_options () in
  { defaults with
    Pipeline.engine; lookahead; time_budget; fuel; deadline }

(* ---------- translate ---------- *)

let translate_cmd =
  let syntax_arg =
    Arg.(value & flag & info [ "paper" ] ~doc:"Print in the appendix style.")
  in
  let run source paper =
    let document = load_document source in
    let config = Speccc_translate.Translate.default_config () in
    let result =
      Speccc_translate.Translate.specification config
        (Document.texts document)
    in
    let syntax =
      if paper then Ltl_print.Paper else Ltl_print.Ascii
    in
    List.iteri
      (fun i r ->
         Format.printf "%% %s: %s@.%s@.@."
           (Document.id_at document i)
           r.Speccc_translate.Translate.text
           (Ltl_print.to_string ~syntax r.Speccc_translate.Translate.formula))
      result.Speccc_translate.Translate.requirements
  in
  Cmd.v (Cmd.info "translate" ~doc:"Translate requirements to LTL")
    Term.(const run $ spec_arg $ syntax_arg)

(* ---------- tree ---------- *)

let tree_cmd =
  let sentence_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE")
  in
  let run text =
    let tree = Speccc_nlp.Parser.sentence text in
    Format.printf "%a@." Speccc_nlp.Syntax.pp_sentence tree
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Print the syntax tree of one sentence (Fig. 2)")
    Term.(const run $ sentence_arg)

(* ---------- check ---------- *)

let exit_of_verdict = function
  | Realizability.Consistent -> ()
  | Realizability.Inconsistent -> exit 1
  | Realizability.Inconclusive _ -> exit 2

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
         ~doc:"After the run, print hash-consing and memoization \
               cache counters (hits, misses, evictions, sizes).")

(* Printed to stderr so piped verdict output stays clean. *)
let print_stats () =
  let h = Ltl.hashcons_stats () in
  Format.eprintf "== caches ==@.";
  Format.eprintf "ltl.unique-table  nodes=%d hits=%d misses=%d@."
    h.Ltl.nodes h.Ltl.hc_hits h.Ltl.hc_misses;
  Format.eprintf "%a" Speccc_cache.Cache.pp_stats
    (Speccc_cache.Cache.stats ());
  let b = Speccc_bdd.Bdd.counters () in
  Format.eprintf
    "== bdd ==@.bdd               nodes=%d op_hits=%d op_misses=%d@."
    b.Speccc_bdd.Bdd.nodes b.Speccc_bdd.Bdd.op_hits
    b.Speccc_bdd.Bdd.op_misses;
  let module Memwatch = Speccc_runtime.Memwatch in
  let m = Memwatch.stats () in
  Format.eprintf
    "== memory ==@.gc                major_words=%.0f heap_words=%d \
     compactions=%d@.watermark         level=%s soft_trips=%d hard_trips=%d \
     sheds=%d@.@?"
    m.Memwatch.major_words m.Memwatch.heap_words m.Memwatch.compactions
    (Memwatch.level_name m.Memwatch.watermark)
    m.Memwatch.soft_trips m.Memwatch.hard_trips m.Memwatch.sheds

let print_store_stats store =
  let module Store = Speccc_store.Store in
  let s = Store.stats store in
  Format.eprintf
    "== store ==@.verdict-store     live=%d snapshots=%d appends=%d hits=%d \
     misses=%d compactions=%d recovered_bytes=%d crc_failures=%d \
     file_bytes=%d@."
    s.Store.live s.Store.snapshots s.Store.appends s.Store.hits s.Store.misses
    s.Store.compactions s.Store.recovered_bytes s.Store.crc_failures
    s.Store.file_bytes

(* --mem-soft / --mem-hard arm the Gc-alarm watermark monitor: soft
   sheds the memo caches (entries only; the counters survive), hard
   makes the fallback ladder collapse to its last rung, explicit, with
   a typed Degraded("memory", _).  Off by default: fuel determinism
   must not depend on allocator behaviour. *)
let mem_soft_arg =
  Arg.(value & opt (some int) None
       & info [ "mem-soft" ] ~docv:"MB"
         ~doc:"Soft memory watermark in MB of major heap: crossing it \
               sheds the memoization caches (entries only) so memory \
               comes back before the OS takes it.")

let mem_hard_arg =
  Arg.(value & opt (some int) None
       & info [ "mem-hard" ] ~docv:"MB"
         ~doc:"Hard memory watermark in MB of major heap: while above \
               it the engine fallback ladder skips straight to its last \
               rung, the explicit game (documents too wide for it fall \
               to the lint floor), reporting the skipped rungs as \
               $(i,Degraded(memory, ...)).")

let setup_memwatch soft hard =
  let module Memwatch = Speccc_runtime.Memwatch in
  (match soft, hard with
   | Some s, _ when s <= 0 ->
     failwith (Printf.sprintf "--mem-soft must be positive (got %d)" s)
   | _, Some h when h <= 0 ->
     failwith (Printf.sprintf "--mem-hard must be positive (got %d)" h)
   | Some s, Some h when h < s ->
     failwith
       (Printf.sprintf "--mem-hard (%d) must be >= --mem-soft (%d)" h s)
   | _ -> ());
  if soft <> None || hard <> None then begin
    Memwatch.on_soft Speccc_cache.Cache.shed;
    Memwatch.configure ?soft_mb:soft ?hard_mb:hard ()
  end

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"PATH"
         ~doc:"Persistent content-addressed verdict store.  Definite \
               verdicts (consistent/inconsistent) are looked up before \
               any engine runs and appended after; the file survives \
               crashes (checksummed records, torn tails truncated on \
               open), so repeated specs are answered without burning \
               engine fuel in any later run.")

let fsync_arg =
  Arg.(value & flag
       & info [ "fsync" ]
         ~doc:"fsync journal and verdict-store appends, so records \
               survive the machine dying, not just the process.")

(* --inject CHECKPOINT[@AFTER]=ACTION[:ARG] — install a deterministic
   fault plan before the run (chaos drills from the command line).
   Examples: engine.symbolic=fail:boom, timeabs.solve=exhaust,
   server.request@1=delay:0.5, witness.controller=corrupt. *)
let inject_arg =
  Arg.(value & opt_all string []
       & info [ "inject" ] ~docv:"TRIGGER"
         ~doc:"Install a deterministic fault trigger before the run: \
               $(b,CHECKPOINT[@AFTER]=ACTION[:ARG]) with actions \
               $(b,fail[:msg]), $(b,timeout), $(b,exhaust), \
               $(b,delay:seconds), $(b,corrupt).  Repeatable; see \
               $(b,--list-faults) for checkpoint names.")

let seed_arg =
  Arg.(value & opt int 0
       & info [ "seed" ]
         ~doc:"Seed resolving negative $(b,--inject) hit counts.")

let parse_inject spec =
  let module Fault = Speccc_runtime.Fault in
  match String.index_opt spec '=' with
  | None ->
    failwith
      (Printf.sprintf
         "--inject %S: expected CHECKPOINT[@AFTER]=ACTION[:ARG]" spec)
  | Some eq ->
    let target = String.sub spec 0 eq in
    let action = String.sub spec (eq + 1) (String.length spec - eq - 1) in
    let checkpoint, after =
      match String.index_opt target '@' with
      | None -> (target, 0)
      | Some at ->
        let name = String.sub target 0 at in
        let count = String.sub target (at + 1) (String.length target - at - 1) in
        (match int_of_string_opt count with
         | Some n -> (name, n)
         | None ->
           failwith
             (Printf.sprintf "--inject %S: bad hit count %S" spec count))
    in
    if not (Fault.Checkpoint.mem checkpoint) then
      failwith
        (Printf.sprintf
           "--inject %S: unknown checkpoint %S (see --list-faults)" spec
           checkpoint);
    let action =
      let arg_of s =
        match String.index_opt s ':' with
        | None -> (s, None)
        | Some i ->
          (String.sub s 0 i,
           Some (String.sub s (i + 1) (String.length s - i - 1)))
      in
      match arg_of action with
      | "fail", message -> Fault.Fail (Option.value message ~default:"injected")
      | "timeout", None -> Fault.Timeout_now
      | "exhaust", None -> Fault.Exhaust
      | "delay", Some seconds ->
        (match float_of_string_opt seconds with
         | Some s when s >= 0. -> Fault.Delay s
         | _ ->
           failwith
             (Printf.sprintf "--inject %S: bad delay %S" spec seconds))
      | "corrupt", None -> Fault.Corrupt
      | _ ->
        failwith
          (Printf.sprintf
             "--inject %S: unknown action %S (fail[:msg], timeout, \
              exhaust, delay:seconds, corrupt)"
             spec action)
    in
    { Fault.checkpoint; after; action }

let install_faults specs seed =
  if specs <> [] then
    Speccc_runtime.Fault.install ~seed (List.map parse_inject specs)

let certify_arg =
  Arg.(value & flag
       & info [ "certify" ]
         ~doc:"Validate the verdict's witness (controller, \
               counterstrategy or unsat core) with independent \
               machinery before reporting; a rejected certificate \
               downgrades the verdict to unknown.")

let recover_arg =
  Arg.(value & flag
       & info [ "recover" ]
         ~doc:"Keep going past ungrammatical requirements: each one \
               is reported with its line and column span and the \
               remaining requirements are checked.")

let print_certificate = function
  | None -> ()
  | Some certificate ->
    Format.printf "certificate: %a@." Speccc_certify.Certify.pp_outcome
      certificate

let check_cmd =
  let run source engine lookahead time_budget fuel deadline certify recover
      mem_soft mem_hard stats =
    setup_memwatch mem_soft mem_hard;
    let options =
      options_of ?fuel ?deadline ~engine ~lookahead ~time_budget ()
    in
    let options = { options with Pipeline.certify; recover } in
    let report =
      match robot_spec source with
      | Some scenario ->
        (* formal built-in: already LTL, with a fixed partition *)
        let partition =
          {
            Speccc_partition.Partition.inputs = scenario.Robot.inputs;
            outputs = scenario.Robot.outputs;
          }
        in
        Format.printf
          "formal built-in: %d robot(s), %d room(s), %d formulas@."
          scenario.Robot.robots scenario.Robot.rooms
          (List.length scenario.Robot.formulas);
        let report, certificate =
          Pipeline.decide options ~partition scenario.Robot.formulas
        in
        Format.printf "@[<v>%a@]@." (Pipeline.pp_verdict []) report;
        print_certificate certificate;
        report
      | None ->
        let outcome = Pipeline.run_document ~options (load_document source) in
        let num_assumptions = List.length outcome.Pipeline.assumptions in
        if num_assumptions > 0 then
          Format.printf "environment assumptions: %d@." num_assumptions;
        Format.printf "%a@." Pipeline.pp_outcome outcome;
        print_certificate outcome.Pipeline.certificate;
        outcome.Pipeline.report
    in
    if stats then print_stats ();
    exit_of_verdict report.Realizability.verdict
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the full consistency pipeline (Fig. 1)")
    Term.(const run $ spec_arg $ engine_arg $ lookahead_arg
          $ time_budget_arg $ fuel_arg $ deadline_arg $ certify_arg
          $ recover_arg $ mem_soft_arg $ mem_hard_arg $ stats_arg)

(* ---------- batch ---------- *)

let batch_cmd =
  let files_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"FILE"
           ~doc:"Requirement documents (one sentence per line).")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
           ~doc:"JSON-Lines run journal, appended and flushed after \
                 every document so an interrupted run loses at most \
                 the document in flight.")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
           ~doc:"Skip documents whose verdict is already in the \
                 journal (requires $(b,--journal)).")
  in
  let retries_arg =
    Arg.(value & opt int 2
         & info [ "retries" ]
           ~doc:"Extra attempts per document after a failure outside \
                 the engine ladder, each under the same budget with \
                 exponential backoff in between.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains checking documents in parallel \
                 (default 1 = sequential).  Results and journal lines \
                 are merged in input order, so verdict output matches \
                 the sequential run.")
  in
  let run files engine lookahead time_budget fuel deadline certify recover
      journal resume retries jobs stats inject seed store_path fsync
      mem_soft mem_hard =
    if resume && journal = None then
      failwith "--resume requires --journal PATH";
    install_faults inject seed;
    setup_memwatch mem_soft mem_hard;
    if retries < 0 then
      failwith (Printf.sprintf "--retries must be >= 0 (got %d)" retries);
    if jobs < 1 then
      failwith (Printf.sprintf "--jobs must be >= 1 (got %d)" jobs);
    let options =
      options_of ?fuel ?deadline ~engine ~lookahead ~time_budget ()
    in
    let options = { options with Pipeline.certify; recover } in
    (* SIGINT requests a clean stop: the document in flight finishes
       (its journal line is flushed), the rest are skipped, and the
       run exits 130 over a resumable journal prefix. *)
    let interrupted = Atomic.make false in
    let previous =
      try
        Some
          (Sys.signal Sys.sigint
             (Sys.Signal_handle (fun _ -> Atomic.set interrupted true)))
      with Invalid_argument _ | Sys_error _ -> None
    in
    let store =
      Option.map (fun path -> Speccc_store.Store.open_ ~fsync path) store_path
    in
    let config =
      { (Speccc_harness.Harness.default_config ()) with
        Speccc_harness.Harness.options; retries; journal; resume; jobs;
        journal_fsync = fsync;
        stop = (fun () -> Atomic.get interrupted) }
    in
    let config =
      Option.fold ~none:config
        ~some:(fun st -> Speccc_store.Store.wire_harness st config)
        store
    in
    let summary = Speccc_harness.Harness.run_files config files in
    Option.iter (Sys.set_signal Sys.sigint) previous;
    Format.printf "%a@." Speccc_harness.Harness.pp_summary summary;
    if stats then begin
      print_stats ();
      Option.iter print_store_stats store
    end;
    Option.iter Speccc_store.Store.close store;
    if summary.Speccc_harness.Harness.interrupted then exit 130
    else if summary.Speccc_harness.Harness.exit_code <> 0 then
      exit summary.Speccc_harness.Harness.exit_code
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Check many requirement documents under one crash-safe \
             supervisor: per-document error confinement, degraded-\
             budget retries, a resumable run journal, and an optional \
             parallel worker pool")
    Term.(const run $ files_arg $ engine_arg $ lookahead_arg
          $ time_budget_arg $ fuel_arg $ deadline_arg $ certify_arg
          $ recover_arg $ journal_arg $ resume_arg $ retries_arg
          $ jobs_arg $ stats_arg $ inject_arg $ seed_arg $ store_arg
          $ fsync_arg $ mem_soft_arg $ mem_hard_arg)

(* ---------- serve ---------- *)

let serve_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve over a Unix-domain socket at $(docv) instead of \
                 stdin/stdout.")
  in
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains checking requests concurrently.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
           ~doc:"Bounded request queue capacity; the reader blocks \
                 (backpressure) when it is full.")
  in
  let high_water_arg =
    Arg.(value & opt (some int) None
         & info [ "high-water" ] ~docv:"N"
           ~doc:"Shed load with a typed $(i,overloaded) response once \
                 the queue holds $(docv) requests (default: the queue \
                 capacity).  Pass 0 to never shed and rely on \
                 backpressure only.")
  in
  let serve_deadline_arg =
    Arg.(value & opt float 5.0
         & info [ "request-deadline" ] ~docv:"SECONDS"
           ~doc:"Default wall-clock deadline per request (a request \
                 may lower or raise its own via \
                 $(i,options.deadline)).")
  in
  let grace_arg =
    Arg.(value & opt float 1.0
         & info [ "grace" ] ~docv:"SECONDS"
           ~doc:"Extra seconds after a request's deadline before the \
                 watchdog hard-preempts the worker (clamped to the \
                 deadline, so a stuck request is answered within 2x \
                 its deadline).")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
           ~doc:"JSON-Lines verdict journal, appended and flushed per \
                 response.")
  in
  let breaker_threshold_arg =
    Arg.(value & opt int 3
         & info [ "breaker-threshold" ] ~docv:"K"
           ~doc:"Consecutive engine failures that open a ladder \
                 rung's circuit breaker.")
  in
  let breaker_cooldown_arg =
    Arg.(value & opt float 5.0
         & info [ "breaker-cooldown" ] ~docv:"SECONDS"
           ~doc:"How long an open breaker skips its rung before a \
                 half-open probe is admitted.")
  in
  let retries_arg =
    Arg.(value & opt int 2
         & info [ "retries" ]
           ~doc:"Extra attempts per request after a failure outside \
                 the engine ladder, each under the same budget \
                 (abandoned once the request's watchdog trips).")
  in
  let run socket workers queue high_water deadline grace journal
      breaker_threshold breaker_cooldown engine lookahead time_budget fuel
      certify recover retries stats inject seed store_path fsync
      mem_soft mem_hard =
    install_faults inject seed;
    setup_memwatch mem_soft mem_hard;
    if workers < 1 then
      failwith (Printf.sprintf "--workers must be >= 1 (got %d)" workers);
    if queue < 1 then
      failwith (Printf.sprintf "--queue must be >= 1 (got %d)" queue);
    if deadline <= 0. then
      failwith
        (Printf.sprintf "--request-deadline must be positive (got %g)"
           deadline);
    if grace < 0. then
      failwith (Printf.sprintf "--grace must be >= 0 (got %g)" grace);
    if retries < 0 then
      failwith (Printf.sprintf "--retries must be >= 0 (got %d)" retries);
    let options = options_of ?fuel ~engine ~lookahead ~time_budget () in
    let options = { options with Pipeline.certify; recover } in
    let store =
      Option.map (fun path -> Speccc_store.Store.open_ ~fsync path) store_path
    in
    let harness =
      { (Speccc_harness.Harness.default_config ()) with
        Speccc_harness.Harness.options; retries; journal;
        journal_fsync = fsync }
    in
    let config =
      { (Speccc_server.Server.default_config ()) with
        Speccc_server.Server.harness; workers; queue_capacity = queue;
        high_water =
          (match high_water with
           | Some 0 -> None
           | Some n -> Some n
           | None -> Some queue);
        deadline; grace;
        breaker_threshold; breaker_cooldown; store }
    in
    (* SIGTERM/SIGINT request a graceful drain: finish in-flight
       requests, flush the journal, exit 0. *)
    let stopping = Atomic.make false in
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stopping true) in
    (try Sys.set_signal Sys.sigterm handler
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint handler
     with Invalid_argument _ | Sys_error _ -> ());
    let stop () = Atomic.get stopping in
    let server_stats =
      match socket with
      | Some path -> Speccc_server.Server.run_socket ~stop config ~path
      | None ->
        Speccc_server.Server.run ~stop config ~input:Unix.stdin
          ~output:stdout
    in
    if stats then begin
      Format.eprintf "%a@." Speccc_server.Server.pp_stats server_stats;
      print_stats ();
      Option.iter print_store_stats store
    end;
    Option.iter Speccc_store.Store.close store
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running supervised checking service: JSONL requests \
             on stdin or a Unix socket, a pool of worker domains with \
             wall-clock watchdog preemption, bounded-queue \
             backpressure and load shedding, per-engine circuit \
             breakers, and graceful drain on SIGTERM/SIGINT")
    Term.(const run $ socket_arg $ workers_arg $ queue_arg $ high_water_arg
          $ serve_deadline_arg $ grace_arg $ journal_arg
          $ breaker_threshold_arg $ breaker_cooldown_arg $ engine_arg
          $ lookahead_arg $ time_budget_arg $ fuel_arg $ certify_arg
          $ recover_arg $ retries_arg $ stats_arg $ inject_arg $ seed_arg
          $ store_arg $ fsync_arg $ mem_soft_arg $ mem_hard_arg)

(* ---------- route ---------- *)

let route_cmd =
  let shards_arg =
    Arg.(value & opt int 3
         & info [ "shards" ] ~docv:"N"
           ~doc:"Worker processes to spawn and route across.")
  in
  let replicas_arg =
    Arg.(value & opt int 32
         & info [ "replicas" ] ~docv:"N"
           ~doc:"Virtual ring points per shard (more points smooth \
                 the load split).")
  in
  let route_retries_arg =
    Arg.(value & opt int 2
         & info [ "failover-retries" ] ~docv:"N"
           ~doc:"Extra shards a request is re-dispatched to after its \
                 home shard fails.")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "request-timeout" ] ~docv:"SECONDS"
           ~doc:"Seconds to wait for a worker's response before \
                 declaring it wedged, killing it and failing over; \
                 keep it above the workers' watchdog ceiling \
                 (request deadline + grace), which answers first in \
                 every non-crash case.")
  in
  let socket_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "socket-dir" ] ~docv:"DIR"
           ~doc:"Directory for the per-shard Unix sockets (default: a \
                 fresh directory under the system temp dir).")
  in
  let store_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "store-dir" ] ~docv:"DIR"
           ~doc:"Directory for per-shard verdict stores \
                 ($(b,shard-<i>.store)).  Workers warm-start from \
                 them: a respawned or restarted worker replays its \
                 store and answers repeated specs without re-running \
                 any engine.")
  in
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains inside each shard process.")
  in
  let route_deadline_arg =
    Arg.(value & opt float 5.0
         & info [ "request-deadline" ] ~docv:"SECONDS"
           ~doc:"Per-request wall-clock deadline forwarded to the \
                 workers.")
  in
  let grace_arg =
    Arg.(value & opt float 1.0
         & info [ "grace" ] ~docv:"SECONDS"
           ~doc:"Watchdog grace forwarded to the workers.")
  in
  let worker_args_arg =
    Arg.(value & opt_all string []
         & info [ "worker-arg" ] ~docv:"ARG"
           ~doc:"Extra argument appended verbatim to every worker's \
                 $(b,speccc serve) command line (repeatable) — e.g. \
                 $(b,--worker-arg=--inject) \
                 $(b,--worker-arg=server.request\\@0=delay:1.5) for \
                 crash drills.")
  in
  let run shards replicas retries timeout socket_dir store_dir fsync workers
      deadline grace worker_args stats mem_soft mem_hard =
    if shards < 1 then
      failwith (Printf.sprintf "--shards must be >= 1 (got %d)" shards);
    if retries < 0 then
      failwith
        (Printf.sprintf "--failover-retries must be >= 0 (got %d)" retries);
    if timeout <= 0. then
      failwith
        (Printf.sprintf "--request-timeout must be positive (got %g)" timeout);
    let socket_dir =
      match socket_dir with
      | Some dir -> dir
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "speccc-route-%d" (Unix.getpid ()))
    in
    (match store_dir with
     | Some dir when not (Sys.file_exists dir) ->
       (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
     | _ -> ());
    let worker_argv ~shard ~socket =
      Array.of_list
        ([ Sys.executable_name; "serve"; "--socket"; socket;
           "--workers"; string_of_int workers;
           "--request-deadline"; Printf.sprintf "%g" deadline;
           "--grace"; Printf.sprintf "%g" grace ]
         @ (match store_dir with
            | Some dir ->
              [ "--store";
                Filename.concat dir (Printf.sprintf "shard-%d.store" shard) ]
            | None -> [])
         @ (if fsync then [ "--fsync" ] else [])
         (* watermarks apply inside the engine processes, not the router *)
         @ (match mem_soft with
            | Some mb -> [ "--mem-soft"; string_of_int mb ]
            | None -> [])
         @ (match mem_hard with
            | Some mb -> [ "--mem-hard"; string_of_int mb ]
            | None -> [])
         @ worker_args)
    in
    let config =
      { (Speccc_shard.Shard.default_config ~socket_dir ~worker_argv) with
        Speccc_shard.Shard.shards; replicas; request_retries = retries;
        request_timeout = timeout }
    in
    (* SIGTERM/SIGINT drain the router: in-flight requests finish,
       workers are shut down and reaped. *)
    let stopping = Atomic.make false in
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stopping true) in
    (try Sys.set_signal Sys.sigterm handler
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint handler
     with Invalid_argument _ | Sys_error _ -> ());
    let stop () = Atomic.get stopping in
    let route_stats =
      Speccc_shard.Shard.run ~stop config ~input:Unix.stdin ~output:stdout
    in
    if stats then Format.eprintf "%a@." Speccc_shard.Shard.pp_stats route_stats
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Crash-recoverable sharded checking service: consistent-\
             hash routing of JSONL requests across a pool of spawned \
             $(b,speccc serve) worker processes, with per-shard health \
             and circuit breakers, bounded retry-with-failover, \
             automatic respawn of crashed workers, and per-shard \
             persistent verdict stores that survive both worker \
             crashes and full restarts")
    Term.(const run $ shards_arg $ replicas_arg $ route_retries_arg
          $ timeout_arg $ socket_dir_arg $ store_dir_arg $ fsync_arg
          $ workers_arg $ route_deadline_arg $ grace_arg $ worker_args_arg
          $ stats_arg $ mem_soft_arg $ mem_hard_arg)

(* ---------- localize ---------- *)

let localize_cmd =
  let run source engine lookahead time_budget =
    let options = options_of ~engine ~lookahead ~time_budget () in
    let outcome = Pipeline.run_document ~options (load_document source) in
    match outcome.Pipeline.report.Realizability.verdict with
    | Realizability.Consistent ->
      Format.printf "specification is consistent; nothing to localize@."
    | Realizability.Inconsistent | Realizability.Inconclusive _ ->
      let suggestion = Refine.run options outcome in
      (match suggestion.Refine.localization with
       | Some localization ->
         Format.printf "%a@." Localize.pp localization;
         List.iteri
           (fun i r ->
              if i = localization.Localize.culprit
              || List.mem i localization.Localize.partners then
                Format.printf "  [%d = %s] %s@." i
                  (Document.id_at outcome.Pipeline.document i)
                  r.Speccc_translate.Translate.text)
           outcome.Pipeline.requirements
       | None -> ());
      Format.printf "advice: %s@." suggestion.Refine.advice
  in
  Cmd.v
    (Cmd.info "localize"
       ~doc:"Locate inconsistent requirements and suggest refinements")
    Term.(const run $ spec_arg $ engine_arg $ lookahead_arg $ time_budget_arg)

(* ---------- synth ---------- *)

let synth_cmd =
  let dot_arg =
    Arg.(value & flag
         & info [ "dot" ] ~doc:"Print the controller as a Graphviz digraph.")
  in
  let st_arg =
    Arg.(value & flag
         & info [ "st" ]
           ~doc:"Print the controller as an IEC 61131-3 Structured Text \
                 function block (the G4LTL-ST output format).")
  in
  let verilog_arg =
    Arg.(value & flag
         & info [ "verilog" ]
           ~doc:"Print the controller as a synthesizable Verilog module.")
  in
  let run source engine lookahead time_budget dot st verilog =
    (* the verb prints the witness, so the ladder must produce one
       (and certification validates it before it is shown) *)
    let options =
      { (options_of ~engine ~lookahead ~time_budget ()) with
        Pipeline.certify = true }
    in
    let outcome = Pipeline.run_document ~options (load_document source) in
    match outcome.Pipeline.report.Realizability.verdict with
    | Realizability.Consistent ->
      (match outcome.Pipeline.report.Realizability.controller with
       | Some machine ->
         Format.printf
           "consistent: controller with %d state(s), %d input(s), %d \
            output(s)@."
           machine.Mealy.num_states
           (List.length machine.Mealy.inputs)
           (List.length machine.Mealy.outputs);
         if dot then Format.printf "%a@." Mealy.pp_dot machine;
         if st then
           Format.printf "%s@." (Codegen.to_structured_text machine);
         if verilog then Format.printf "%s@." (Codegen.to_verilog machine)
       | None ->
         Format.printf
           "consistent (symbolic strategy; controller too large to \
            enumerate)@.")
    | Realizability.Inconsistent ->
      Format.printf "INCONSISTENT@.";
      (match outcome.Pipeline.report.Realizability.counterstrategy with
       | Some cs ->
         (* demonstrate against a trivial candidate *)
         let machine = {
           Mealy.inputs = cs.Bounded.cs_inputs;
           outputs = cs.Bounded.cs_outputs;
           num_states = 1;
           initial = 0;
           step = (fun _ _ -> (0, 0));
         }
         in
         let word = Bounded.refute cs machine in
         Format.printf
           "environment counterstrategy found; e.g. against the \
            all-low implementation it forces:@.  %a@."
           Speccc_logic.Trace.pp word
       | None -> ());
      exit 1
    | Realizability.Inconclusive why ->
      Format.printf "inconclusive: %s@." why;
      exit 2
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesize a controller (or a counterstrategy) from the \
             specification")
    Term.(const run $ spec_arg $ engine_arg $ lookahead_arg $ time_budget_arg
          $ dot_arg $ st_arg $ verilog_arg)

(* ---------- testgen ---------- *)

let testgen_cmd =
  let run source engine lookahead time_budget =
    (* the suite is generated from the witness, so ask for it as synth
       does *)
    let options =
      { (options_of ~engine ~lookahead ~time_budget ()) with
        Pipeline.certify = true }
    in
    let outcome = Pipeline.run_document ~options (load_document source) in
    match outcome.Pipeline.report.Realizability.controller with
    | None ->
      Format.printf
        "no controller available (verdict: %s); cannot generate tests@."
        (match outcome.Pipeline.report.Realizability.verdict with
         | Realizability.Consistent -> "consistent, strategy not enumerable"
         | Realizability.Inconsistent -> "inconsistent"
         | Realizability.Inconclusive why -> why);
      exit 2
    | Some machine ->
      let suite = Testgen.transition_cover machine in
      let covered, total = Testgen.coverage machine suite in
      Format.printf
        "reference controller: %d state(s); %d test case(s) covering \
         %d/%d transitions@.@."
        machine.Mealy.num_states (List.length suite) covered total;
      List.iteri
        (fun i test ->
           Format.printf "test %d:@.%a@." i Testgen.pp_test_case test)
        suite
  in
  Cmd.v
    (Cmd.info "testgen"
       ~doc:"Derive a conformance test suite from the synthesized \
             controller")
    Term.(const run $ spec_arg $ engine_arg $ lookahead_arg $ time_budget_arg)

(* ---------- patterns ---------- *)

let patterns_cmd =
  let run source =
    let document = load_document source in
    let texts = Document.texts document in
    let config = Speccc_translate.Translate.default_config () in
    let result = Speccc_translate.Translate.specification config texts in
    let formulas =
      List.map
        (fun r -> r.Speccc_translate.Translate.formula)
        result.Speccc_translate.Translate.requirements
    in
    List.iter
      (fun (i, instance) ->
         let text = List.nth texts i in
         match instance with
         | Some instance ->
           Format.printf "[%d] %a@.    %s@." i
             Speccc_patterns.Patterns.pp_instance instance text
         | None -> Format.printf "[%d] (no pattern) %s@." i text)
      (Speccc_patterns.Patterns.classify formulas)
  in
  Cmd.v
    (Cmd.info "patterns"
       ~doc:"Classify each requirement by its specification pattern \
             (Dwyer et al.)")
    Term.(const run $ spec_arg)

(* ---------- lint ---------- *)

(* Lint runs after time abstraction: the tableau-based checks degrade
   on hundreds-deep X chains, exactly the chains Sec. IV-E removes.
   A sound compression (θ' ≥ 1) cannot shorten a chain below
   θ / θ_min, so a spec mixing a 3 s and a 180 s deadline keeps X^60
   chains — intractable for the tableau.  Lint is a pre-filter
   producing findings, not a consistency verdict, so here (and only
   here) the legacy θ' = 0 collapse is acceptable: it keeps the
   checks fast at the cost of approximating relative timing.  The
   verdict-bearing pipeline never sets [allow_zero_theta]. *)
let lintable_formulas formulas =
  match Speccc_timeabs.Timeabs.thetas_of_formulas formulas with
  | [] -> formulas
  | thetas ->
    let solution =
      Speccc_timeabs.Timeabs.solve_analytic ~allow_zero_theta:true
        (Speccc_timeabs.Timeabs.problem ~budget:5 thetas)
    in
    List.map (Speccc_timeabs.Timeabs.apply solution) formulas

let lint_cmd =
  let run source =
    let document = load_document source in
    let texts = Document.texts document in
    let config = Speccc_translate.Translate.default_config () in
    let result = Speccc_translate.Translate.specification config texts in
    let formulas =
      List.map
        (fun r -> r.Speccc_translate.Translate.formula)
        result.Speccc_translate.Translate.requirements
    in
    let findings = Speccc_lint.Lint.check (lintable_formulas formulas) in
    if findings = [] then
      Format.printf "no findings: every requirement is satisfiable, \
                     non-trivial, pairwise compatible and fireable@."
    else begin
      List.iter
        (fun finding ->
           Format.printf "%a@."
             (Speccc_lint.Lint.pp_finding ~requirement_text:(fun i ->
                  Some (Document.id_at document i)))
             finding)
        findings;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Cheap exact checks before synthesis: unsatisfiable or \
             tautological requirements, pairwise conflicts, guards \
             that can never fire")
    Term.(const run $ spec_arg)

(* ---------- report ---------- *)

let report_cmd =
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the markdown report to $(docv) instead of stdout.")
  in
  let run source engine lookahead time_budget output =
    let document = load_document source in
    (* the verdict section prints the controller's size, so ask for the
       witness as synth does *)
    let options =
      { (options_of ~engine ~lookahead ~time_budget ()) with
        Pipeline.certify = true }
    in
    let outcome = Pipeline.run_document ~options document in
    let buffer = Buffer.create 8192 in
    let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
    add "# Consistency report: %s\n\n" source;
    (* 1. requirements and their translations *)
    add "## Requirements and translations\n\n";
    add "| id | kind | requirement | LTL |\n|---|---|---|---|\n";
    List.iteri
      (fun i r ->
         let item = List.nth document i in
         add "| %s | %s | %s | `%s` |\n" item.Document.id
           (if Document.is_assumption item then "assumption" else "guarantee")
           r.Speccc_translate.Translate.text
           (Ltl_print.to_string r.Speccc_translate.Translate.formula))
      outcome.Pipeline.requirements;
    (* 2. patterns *)
    add "\n## Specification patterns\n\n";
    List.iteri
      (fun i (_, instance) ->
         match instance with
         | Some instance ->
           add "- %s: %s\n" (Document.id_at document i)
             (Format.asprintf "%a" Speccc_patterns.Patterns.pp_instance
                instance)
         | None -> add "- %s: (no pattern template)\n"
                     (Document.id_at document i))
      (Speccc_patterns.Patterns.classify outcome.Pipeline.formulas);
    (* 3. lint findings — from the raw translations re-compressed with
       the tableau-friendly legacy abstraction (see [lintable_formulas]);
       the pipeline's own formulas keep sound θ' ≥ 1 chains that the
       tableau cannot afford. *)
    add "\n## Lint findings\n\n";
    let findings =
      Speccc_lint.Lint.check
        (lintable_formulas
           (List.map
              (fun r -> r.Speccc_translate.Translate.formula)
              outcome.Pipeline.requirements))
    in
    if findings = [] then add "None.\n"
    else
      List.iter
        (fun finding ->
           add "- %s\n"
             (Format.asprintf "%a"
                (Speccc_lint.Lint.pp_finding ~requirement_text:(fun i ->
                     Some (Document.id_at document i)))
                finding))
        findings;
    (* 4. time abstraction *)
    add "\n## Time abstraction\n\n";
    (match outcome.Pipeline.time_solution with
     | Some solution ->
       add "```\n%s```\n"
         (Format.asprintf "%a" Speccc_timeabs.Timeabs.pp_solution solution)
     | None -> add "No timing constraints.\n");
    (* 5. partition *)
    add "\n## Input/output partition\n\n```\n%s\n```\n"
      (Format.asprintf "%a" Speccc_partition.Partition.pp
         outcome.Pipeline.partition.Speccc_partition.Partition.partition);
    (match outcome.Pipeline.partition.Speccc_partition.Partition.conflicts with
     | [] -> ()
     | conflicts ->
       add "\nConflicting classifications resolved to output: %s\n"
         (String.concat ", "
            (List.map
               (fun c -> c.Speccc_partition.Partition.prop)
               conflicts)));
    (* 6. verdict *)
    add "\n## Consistency verdict\n\n";
    (match outcome.Pipeline.report.Realizability.verdict with
     | Realizability.Consistent ->
       add "**CONSISTENT** — a controller exists (engine: %s, %.3fs).\n"
         outcome.Pipeline.report.Realizability.engine_used
         outcome.Pipeline.report.Realizability.wall_time;
       (match outcome.Pipeline.report.Realizability.controller with
        | Some machine ->
          add "Controller: %d state(s).\n" machine.Mealy.num_states
        | None -> ())
     | Realizability.Inconsistent ->
       add "**INCONSISTENT** — provably unrealizable (engine: %s).\n"
         outcome.Pipeline.report.Realizability.engine_used;
       Option.iter
         (fun ids -> add "refuted on: %s\n" (String.concat ", " ids))
         (Pipeline.refuted_on outcome)
     | Realizability.Inconclusive why -> add "**INCONCLUSIVE** — %s.\n" why);
    (* 7. localization on failure *)
    (match outcome.Pipeline.report.Realizability.verdict with
     | Realizability.Consistent -> ()
     | Realizability.Inconsistent | Realizability.Inconclusive _ ->
       let suggestion = Refine.run options outcome in
       add "\n## Refinement (stage 3)\n\n";
       (match suggestion.Refine.localization with
        | Some localization ->
          add "- culprit: %s\n"
            (Document.id_at document localization.Localize.culprit);
          (match localization.Localize.partners with
           | [] -> ()
           | partners ->
             add "- conflicting with: %s\n"
               (String.concat ", "
                  (List.map (Document.id_at document) partners)))
        | None -> ());
       add "- advice: %s\n" suggestion.Refine.advice);
    let text = Buffer.contents buffer in
    match output with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "report written to %s@." path
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Produce a full markdown consistency report (translations, \
             patterns, lint, abstraction, partition, verdict, \
             refinement advice)")
    Term.(const run $ spec_arg $ engine_arg $ lookahead_arg $ time_budget_arg
          $ output_arg)

(* ---------- monitor ---------- *)

let monitor_cmd =
  let trace_arg =
    let doc =
      "Trace file: one letter per line as comma-separated true \
       propositions (empty line = all false)."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let parse_trace path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line ->
        let line = String.trim line in
        if line <> "" && line.[0] = '#' then go acc
        else
          let letter =
            String.split_on_char ',' line
            |> List.map String.trim
            |> List.filter (( <> ) "")
            |> List.map (fun p -> (p, true))
          in
          go (letter :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let run source trace_path =
    let document = load_document source in
    let config = Speccc_translate.Translate.default_config () in
    let result =
      Speccc_translate.Translate.specification config
        (Document.texts document)
    in
    let letters = parse_trace trace_path in
    Format.printf "trace: %d letters@.@." (List.length letters);
    let any_violation = ref false in
    List.iteri
      (fun i r ->
         let monitor =
           Speccc_monitor.Monitor.create r.Speccc_translate.Translate.formula
         in
         let verdict = Speccc_monitor.Monitor.run monitor letters in
         let id = Document.id_at document i in
         match verdict with
         | Speccc_monitor.Monitor.Violated at ->
           any_violation := true;
           Format.printf "%-10s VIOLATED at letter %d  (%s)@." id at
             r.Speccc_translate.Translate.text
         | Speccc_monitor.Monitor.Satisfied at ->
           Format.printf "%-10s satisfied from letter %d@." id at
         | Speccc_monitor.Monitor.Running residual ->
           Format.printf "%-10s pending: %s@." id
             (Ltl_print.to_string residual))
      result.Speccc_translate.Translate.requirements;
    if !any_violation then exit 1
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Replay a recorded execution trace against every \
             requirement (runtime verification)")
    Term.(const run $ spec_arg $ trace_arg)

(* ---------- table ---------- *)

let row_sources row =
  match row.Table1.source with
  | Table1.Sentences texts -> `Nl texts
  | Table1.Formulas (formulas, inputs, outputs) ->
    `Formal (formulas, inputs, outputs)

let run_row ?(lookahead = 6) row =
  let start = Unix.gettimeofday () in
  let options =
    { (Pipeline.default_options ()) with
      Pipeline.engine = Realizability.Symbolic;
      lookahead }
  in
  let formulas, partition, report =
    match row_sources row with
    | `Nl texts ->
      let outcome = Pipeline.run ~options texts in
      ( outcome.Pipeline.formulas,
        outcome.Pipeline.partition.Speccc_partition.Partition.partition,
        outcome.Pipeline.report )
    | `Formal (formulas, inputs, outputs) ->
      let partition =
        { Speccc_partition.Partition.inputs; outputs }
      in
      let _, report = Pipeline.check_formulas ~options ~partition formulas in
      (formulas, partition, report)
  in
  let elapsed = Unix.gettimeofday () -. start in
  (formulas, partition, report, elapsed)

let verdict_string = function
  | Realizability.Consistent -> "consistent"
  | Realizability.Inconsistent -> "INCONSISTENT"
  | Realizability.Inconclusive why -> "inconclusive: " ^ why

let table_cmd =
  let rows_arg =
    Arg.(value & opt (some string) None
         & info [ "only" ]
           ~doc:"Run a single row, e.g. $(b,CARA:0) or $(b,Robot:3).")
  in
  let lookahead_arg =
    Arg.(value & opt int 6 & info [ "lookahead" ] ~doc:"Symbolic lookahead.")
  in
  let run only lookahead =
    let selected =
      match only with
      | None -> Table1.rows
      | Some key ->
        List.filter
          (fun r ->
             String.lowercase_ascii
               (r.Table1.group ^ ":" ^ r.Table1.row_id)
             = String.lowercase_ascii key)
          Table1.rows
    in
    Format.printf "%-6s %-5s %-35s %8s %4s %4s %8s  %s@." "Group" "No."
      "Specification" "formulas" "in" "out" "time(s)" "verdict";
    List.iter
      (fun row ->
         let formulas, partition, report, elapsed = run_row ~lookahead row in
         let fixed_note =
           match row.Table1.expected, report.Realizability.verdict with
           | Table1.Inconsistent_until_partition_fix prop,
             (Realizability.Inconsistent | Realizability.Inconclusive _) ->
             (* stage 3: adjust the partition and re-check *)
             let adjusted =
               Speccc_partition.Partition.adjust partition
                 ~to_output:[ prop ] ()
             in
             let options =
               { (Pipeline.default_options ()) with
                 Pipeline.engine = Realizability.Symbolic;
                 lookahead }
             in
             let _, report' =
               Pipeline.check_formulas ~options ~partition:adjusted formulas
             in
             Printf.sprintf " -> after partition fix (%s): %s" prop
               (verdict_string report'.Realizability.verdict)
           | _ -> ""
         in
         Format.printf "%-6s %-5s %-35s %8d %4d %4d %8.2f  %s%s@."
           row.Table1.group row.Table1.row_id row.Table1.name
           (List.length formulas)
           (List.length partition.Speccc_partition.Partition.inputs)
           (List.length partition.Speccc_partition.Partition.outputs)
           elapsed
           (verdict_string report.Realizability.verdict)
           fixed_note)
      selected
  in
  Cmd.v (Cmd.info "table" ~doc:"Reproduce Table I")
    Term.(const run $ rows_arg $ lookahead_arg)

(* ---------- fuzz ---------- *)

let fuzz_cmd =
  let n_arg =
    Arg.(value & opt int 200
         & info [ "n" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
           ~doc:"Generator seed; the whole campaign is deterministic in \
                 it (fuel-bounded engines, no wall-clock dependence).")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Persist every shrunk divergence as a replayable \
                 $(b,.corpus) entry under $(docv).")
  in
  let report_arg =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write the summary (cases, findings, shrunk \
                 reproducers) to $(docv).")
  in
  let buggy_arg =
    Arg.(value & flag
         & info [ "buggy-timeabs" ]
           ~doc:"Re-enable the historical θ'=0 collapse in the \
                 time-abstraction solvers without relaxing the oracle — \
                 demonstrates that the metamorphic oracle catches the \
                 pre-fix bug.  Expect divergences.")
  in
  let run n seed corpus report buggy =
    let module D = Speccc_diffcheck.Diffcheck in
    let trace = Sys.getenv_opt "SPECCC_FUZZ_TRACE" <> None in
    let progress index case =
      if trace then
        Format.eprintf "fuzz: case %d/%d (%s)@.%a@." (index + 1) n
          (D.kind_name case) Speccc_diffcheck.Case.pp case
      else if (index + 1) mod 50 = 0 || index + 1 = n then
        Format.eprintf "fuzz: case %d/%d (%s)@." (index + 1) n
          (D.kind_name case)
    in
    let summary =
      D.run ~buggy_timeabs:buggy ?corpus_dir:corpus ~progress ~n ~seed ()
    in
    Format.printf "%a@." D.pp_summary summary;
    (match report with
     | Some file ->
       let oc = open_out file in
       let ppf = Format.formatter_of_out_channel oc in
       Format.fprintf ppf "%a@." D.pp_summary summary;
       close_out oc
     | None -> ());
    if summary.D.findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential/metamorphic fuzzing of the checking pipeline"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Generates random LTL specifications, structured-English \
              documents, time-abstraction problems and partition \
              adjustments; cross-checks every realizability engine \
              against the others, against certificate replay and \
              against exact references; and checks the metamorphic \
              laws (NNF/hash-consing invariance, the antonym-merge \
              law, the time-abstraction constraint system, partition \
              disjointness).  Divergences are shrunk to minimal \
              reproducers.  Exit code 1 when any divergence is found.";
         ])
    Term.(const run $ n_arg $ seed_arg $ corpus_arg $ report_arg $ buggy_arg)

let chaos_cmd =
  let module C = Speccc_chaos.Chaos in
  let module W = Speccc_chaos.Workload in
  let workload_arg =
    Arg.(value & opt string "batch"
         & info [ "workload" ] ~docv:"KIND"
           ~doc:"Workload to explore: $(b,batch) (journalled batch run \
                 with a persistent store), $(b,serve) (closed-loop \
                 single-worker soak) or $(b,route) (2-shard routed soak \
                 with real worker processes).")
  in
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ]
           ~doc:"Phase 1 only: run the workload clean and print the \
                 ordered fault-checkpoint trace with occurrence counts.")
  in
  let explore_arg =
    Arg.(value & flag
         & info [ "explore" ]
           ~doc:"Phase 2: enumerate single-site perturbations (and \
                 seeded pairs) over the clean trace, replay each \
                 schedule, check the recovery invariants, and \
                 delta-debug minimize any failure.")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for the paired-perturbation sampler; the whole \
                 exploration is deterministic in it.")
  in
  let pairs_arg =
    Arg.(value & opt int 5
         & info [ "pairs" ] ~docv:"N"
           ~doc:"Number of seeded two-perturbation schedules to add on \
                 top of the single-site sweep.")
  in
  let occ_arg =
    Arg.(value & opt int 3
         & info [ "max-occ" ] ~docv:"N"
           ~doc:"Explore at most the first $(docv) occurrences of each \
                 site (capped sites are reported, not silently dropped).")
  in
  let sites_arg =
    Arg.(value & opt_all string []
         & info [ "site" ] ~docv:"CHECKPOINT"
           ~doc:"Restrict the sweep to this checkpoint (repeatable); \
                 see $(b,speccc --list-faults).")
  in
  let max_schedules_arg =
    Arg.(value & opt int 0
         & info [ "max-schedules" ] ~docv:"N"
           ~doc:"Replay at most $(docv) schedules (0 = no cap); the \
                 truncation is reported.")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Persist every minimized failing schedule as a \
                 replayable $(b,.chaos) entry under $(docv).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay one $(b,.chaos) corpus entry: clean oracle run, \
                 perturbed run, invariant suite and counter \
                 requirements.  Exit 0 when the entry's expectation \
                 holds.")
  in
  let run workload trace explore seed pairs occ sites max_schedules corpus
      replay =
    let binary = Sys.executable_name in
    let log s = Format.eprintf "%s@." s in
    match replay with
    | Some file -> (
        match C.load_entry file with
        | Error e ->
            Format.eprintf "chaos: %s: %s@." file e;
            exit 3
        | Ok entry -> (
            match C.replay ~binary entry with
            | Ok notes ->
                List.iter (fun n -> Format.printf "  %s@." n) notes;
                Format.printf "chaos: %s holds@." (Filename.basename file)
            | Error problems ->
                List.iter
                  (fun p -> Format.eprintf "chaos: %s: %s@." file p)
                  problems;
                exit 1))
    | None -> (
        let w =
          match W.kind_of_string workload with
          | Some kind -> W.seed ~kind ()
          | None ->
              Format.eprintf "chaos: unknown workload %S@." workload;
              exit 3
        in
        if trace then begin
          let clean, tr = C.run_clean ~binary w in
          (match clean.W.crashed with
           | Some e ->
               Format.eprintf "chaos: clean run crashed: %s@." e;
               exit 1
           | None -> ());
          Format.printf "clean %s trace (%d checkpoint hits):@." workload
            (List.length tr);
          List.iteri
            (fun i site -> Format.printf "  %4d  %s@." i site)
            tr;
          Format.printf "per-site occurrence counts:@.";
          List.iter
            (fun (site, n) -> Format.printf "  %-24s x%d@." site n)
            (C.site_counts tr)
        end
        else if explore then begin
          let report =
            C.explore ~binary ~sites ~occ_cap:occ ~pairs ~max_schedules
              ?corpus_dir:corpus ~seed ~log w
          in
          Format.printf "%a" C.pp_report report;
          if report.C.violations <> [] then exit 1
        end
        else begin
          Format.eprintf
            "chaos: nothing to do (pass --trace, --explore or --replay)@.";
          exit 3
        end)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Deterministic trace-and-perturb fault-schedule exploration"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs a workload clean while recording the ordered stream \
              of fault checkpoints it announces, then enumerates \
              perturbations of that trace (crash, stall, torn write at \
              each site occurrence; SIGKILL of route workers; seeded \
              pairs), replays each through the seeded fault plans, and \
              asserts end-to-end recovery invariants: definite verdicts \
              match the clean run, no acknowledged journal/store write \
              is lost after recovery, responses are exactly-once and \
              within the watchdog bound, and recovery counters are \
              booked consistently with the injections.  Failing \
              schedules are minimized and persisted as replayable \
              $(b,.chaos) corpus entries.  Exit code 1 when an \
              invariant is violated.";
         ])
    Term.(const run $ workload_arg $ trace_arg $ explore_arg $ seed_arg
          $ pairs_arg $ occ_arg $ sites_arg $ max_schedules_arg
          $ corpus_arg $ replay_arg)

(* ---------- watch ---------- *)

(* A long-lived incremental session over one document: re-check on
   file change (mtime polling) or on JSONL edit commands from stdin,
   answering one JSONL verdict event per check.  The heavy lifting —
   per-sentence parse caching, arena-block reuse, warm-started joint
   fixpoints, localization memoization — lives in
   [Speccc_core.Watch]. *)
let watch_cmd =
  let module J = Speccc_json.Jsonl in
  let poll_arg =
    Arg.(value & opt float 0.5
         & info [ "poll" ]
           ~doc:"Seconds between file modification-time polls (ignored \
                 for built-in specifications).")
  in
  let emit json =
    print_string (J.to_string json);
    print_newline ();
    flush stdout
  in
  let error_event seq message =
    emit (J.Obj [ ("event", J.Str "error"); ("seq", J.Num (float_of_int seq));
                  ("message", J.Str message) ])
  in
  let verdict_event (checked : Watch.checked) =
    let report = checked.Watch.outcome.Pipeline.report in
    let verdict, detail =
      match report.Realizability.verdict with
      | Realizability.Consistent -> ("consistent", None)
      | Realizability.Inconsistent -> ("inconsistent", None)
      | Realizability.Inconclusive why -> ("inconclusive", Some why)
    in
    let reuse = checked.Watch.reuse in
    emit
      (J.Obj
         ([ ("event", J.Str "verdict");
            ("seq", J.Num (float_of_int checked.Watch.seq));
            ("verdict", J.Str verdict) ]
          @ (match detail with
             | Some why -> [ ("detail", J.Str why) ]
             | None -> [])
          @ [ ("engine", J.Str report.Realizability.engine_used);
              ("wall_ms", J.Num (checked.Watch.wall_s *. 1000.)) ]
          @ (match checked.Watch.culprit_id with
             | Some id ->
               [ ("culprit", J.Str id);
                 ("partners",
                  J.Arr
                    (List.map (fun p -> J.Str p) checked.Watch.partner_ids)) ]
             | None -> [])
          @ [ ("reused",
               J.Obj
                 [ ("verdict_cached", J.Bool reuse.Watch.verdict_cached);
                   ("parse_hits", J.Num (float_of_int reuse.Watch.parse_hits));
                   ("blocks", J.Num (float_of_int reuse.Watch.blocks_reused));
                   ("solo", J.Num (float_of_int reuse.Watch.solo_reused));
                   ("invalidated",
                    J.Num (float_of_int reuse.Watch.invalidated)) ]) ]))
  in
  let stats_event session =
    let c = Watch.counters session in
    let engine = c.Watch.engine in
    let num n = J.Num (float_of_int n) in
    emit
      (J.Obj
         [ ("event", J.Str "stats");
           ("checks", num c.Watch.checks);
           ("verdict_hits", num c.Watch.verdict_hits);
           ("blocks_built", num engine.Bounded.built_blocks);
           ("blocks_reused", num engine.Bounded.reused_blocks);
           ("solo_solved", num engine.Bounded.solved_solo);
           ("solo_reused", num engine.Bounded.reused_solo);
           ("localize_entries", num c.Watch.localize_entries);
           ("invalidated", num c.Watch.invalidated_total) ])
  in
  let run source engine lookahead time_budget poll stats =
    let options = options_of ~engine ~lookahead ~time_budget () in
    let session = Watch.create ~options (load_document source) in
    let is_file = Sys.file_exists source in
    let mtime () = if is_file then (Unix.stat source).Unix.st_mtime else 0. in
    let last_mtime = ref (mtime ()) in
    let seq = ref 0 in
    let check () =
      incr seq;
      match Watch.check session with
      | checked -> verdict_event checked
      | exception Speccc_nlp.Parser.Error message ->
        error_event !seq ("parse error: " ^ message)
    in
    (* Stdin is a line protocol; between lines, a watched file is polled
       for a new mtime once per [poll] seconds. *)
    let stdin = Speccc_server.Lineio.create Unix.stdin in
    let quit = ref false in
    let on_command line =
      let trimmed = String.trim line in
      if trimmed <> "" then
        match J.parse trimmed with
        | Error message -> error_event !seq ("bad command: " ^ message)
        | Ok json ->
          let id () = J.str_member "id" json in
          let text () = J.str_member "text" json in
          (match J.str_member "cmd" json with
           | Some "edit" ->
             (match (id (), text ()) with
              | Some id, Some text ->
                (match Watch.edit session ~id ~text with
                 | Ok () -> check ()
                 | Error message -> error_event !seq message)
              | _ -> error_event !seq "edit needs \"id\" and \"text\"")
           | Some "insert" ->
             (match (id (), text ()) with
              | Some id, Some text ->
                let at = J.int_member "at" json in
                (match Watch.insert ?at session ~id ~text with
                 | Ok () -> check ()
                 | Error message -> error_event !seq message)
              | _ -> error_event !seq "insert needs \"id\" and \"text\"")
           | Some "delete" ->
             (match id () with
              | Some id ->
                (match Watch.delete session ~id with
                 | Ok () -> check ()
                 | Error message -> error_event !seq message)
              | None -> error_event !seq "delete needs \"id\"")
           | Some "check" -> check ()
           | Some "reload" ->
             if is_file then begin
               Watch.set_document session (Document.of_file source);
               last_mtime := mtime ();
               check ()
             end
             else error_event !seq "reload: not watching a file"
           | Some "stats" -> stats_event session
           | Some "quit" -> quit := true
           | Some other -> error_event !seq ("unknown command " ^ other)
           | None -> error_event !seq "missing \"cmd\"")
    in
    check ();
    while not (!quit || Speccc_server.Lineio.eof stdin) do
      let deadline =
        if is_file then Some (Unix.gettimeofday () +. poll) else None
      in
      match
        Speccc_server.Lineio.next_line ?deadline stdin ~stop:(fun () -> false)
      with
      | Some line -> on_command line
      | None ->
        if is_file && not (Speccc_server.Lineio.eof stdin) then begin
          let now = mtime () in
          if now <> !last_mtime then begin
            last_mtime := now;
            match Document.of_file source with
            | document -> Watch.set_document session document; check ()
            | exception Sys_error message -> error_event !seq message
          end
        end
    done;
    if stats then stats_event session
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Incrementally re-check a live document"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Keeps a long-lived checking session over one \
              specification and re-checks it when it changes — on \
              file modification (polled), or on JSONL commands from \
              stdin: {\"cmd\":\"edit\",\"id\":\"R3\",\"text\":\"...\"}, \
              insert (optional \"at\"), delete, check, reload, stats, \
              quit.  Each re-check reuses everything an edit did not \
              touch: sentence parses, the explicit engine's arena \
              blocks and solo game frontiers (the joint fixpoint \
              warm-starts next to its previous solution), localization \
              subset verdicts and whole-document verdicts.  Verdicts \
              are bit-identical to a cold $(b,speccc check) run.  One \
              JSONL event per check on stdout.";
         ])
    Term.(const run $ spec_arg $ engine_arg $ lookahead_arg
          $ time_budget_arg $ poll_arg $ stats_arg)

(* Exit codes: 0 consistent / success, 1 inconsistent (or lint /
   monitor findings), 2 unknown or degraded verdict, 3 usage or parse
   error.  Cmdliner reports its own CLI errors as 124; fold them into
   3, and confine user-input exceptions (unknown spec, malformed
   sentence, bad flag value) to 3 as well. *)
let () =
  let list_faults_arg =
    Arg.(value & flag
         & info [ "list-faults" ]
           ~doc:"List the registered fault-injection checkpoint names \
                 (the targets $(b,Speccc_runtime.Fault.install) trigger \
                 plans name) and exit.")
  in
  let default =
    let run list_faults =
      if list_faults then begin
        List.iter
          (fun (name, description) ->
             Format.printf "%-28s %s@." name description)
          (Speccc_runtime.Fault.Checkpoint.all ());
        `Ok ()
      end
      else `Help (`Pager, None)
    in
    Term.(ret (const run $ list_faults_arg))
  in
  let info =
    Cmd.info "speccc" ~version:"1.0.0"
      ~doc:"Formal consistency checking over specifications in natural \
            languages (SpecCC)"
  in
  let group =
    Cmd.group ~default info
      [ translate_cmd; tree_cmd; check_cmd; batch_cmd; serve_cmd;
        route_cmd; localize_cmd; synth_cmd; lint_cmd; monitor_cmd;
        report_cmd; testgen_cmd; patterns_cmd; table_cmd; fuzz_cmd;
        chaos_cmd; watch_cmd ]
  in
  (* cmdliner reserves the double dash for long names; accept the
     documented "--n" spelling anyway. *)
  let argv =
    Array.map (fun a -> if a = "--n" then "-n" else a) Sys.argv
  in
  let code =
    try Cmd.eval ~catch:false ~argv group with
    | Failure message | Sys_error message ->
      Format.eprintf "speccc: %s@." message;
      3
    | Invalid_argument message ->
      Format.eprintf "speccc: invalid argument: %s@." message;
      3
    | Speccc_nlp.Parser.Error message ->
      Format.eprintf "speccc: parse error: %s@." message;
      3
    | exn ->
      Format.eprintf "speccc: internal error: %s@." (Printexc.to_string exn);
      Cmd.Exit.internal_error
  in
  exit (if code = Cmd.Exit.cli_error then 3 else code)
