(* Deterministic trace-and-perturb chaos exploration.

   Phase 1 runs a workload clean and records the ordered stream of
   announced fault checkpoints (via {!Fault.set_observer}); phase 2
   enumerates perturbations — Crash/Corrupt/Delay at each site
   occurrence seen in the trace, Kill at each route request, plus
   seeded pairs for cross-component interactions — replays each
   schedule through the existing seeded fault plans, and asserts the
   recovery invariant suite:

     I1 verdict-identity  every document/request that got a definite
                          answer agrees with the clean run
     I2 durability        no acked journal/store write is lost after
                          recovery, and nothing wrong was persisted
     I3 service           exactly-once responses, answered within the
                          watchdog bound (plus the injected stall)
     I4 accounting        recovery counters are booked consistently
                          with what was injected

   Failing schedules are delta-debug minimized with the diffcheck
   shrinker and persisted as replayable [.chaos] corpus entries. *)

module Fault = Speccc_runtime.Fault
module Harness = Speccc_harness.Harness
module Store = Speccc_store.Store
module Document = Speccc_core.Document
module Prng = Speccc_diffcheck.Prng
module Shrink = Speccc_diffcheck.Shrink

type violation = { invariant : string; detail : string }

type run = {
  obs : Workload.obs;
  recovered : Workload.obs option;   (* batch: the resumed clean rerun *)
  fired : (Schedule.perturbation * bool) list;
  journal_definite : int;
      (* definite verdicts in the journal as the perturbed run left it,
         sampled BEFORE the recovery run appends its own lines *)
}

(* ---------- tracing ---------- *)

let with_trace f =
  let trace = ref [] in
  let lock = Mutex.create () in
  Fault.set_observer
    (Some
       (fun name ->
          Mutex.lock lock;
          trace := name :: !trace;
          Mutex.unlock lock));
  let result =
    Fun.protect ~finally:(fun () -> Fault.set_observer None) f
  in
  (result, List.rev !trace)

let site_counts trace =
  let table = Hashtbl.create 16 in
  List.iter
    (fun site ->
       Hashtbl.replace table site
         (1 + Option.value ~default:0 (Hashtbl.find_opt table site)))
    trace;
  Hashtbl.fold (fun site n acc -> (site, n) :: acc) table []
  |> List.sort compare

(* ---------- running one schedule ---------- *)

let run_perturbed ?binary ~schedule (w : Workload.t) =
  let dir = Workload.temp_dir "speccc_chaos" in
  Fault.install ~seed:0 (Schedule.triggers schedule);
  let obs =
    Fun.protect
      ~finally:(fun () -> ())
      (fun () ->
         match w.Workload.kind with
         | Workload.Batch -> Workload.run_batch ~dir ~resume:false w
         | Workload.Serve -> Workload.run_serve ~dir w
         | Workload.Route ->
             let binary =
               match binary with
               | Some b -> b
               | None -> invalid_arg "route workload needs the CLI binary"
             in
             Workload.run_route ~binary ~kills:(Schedule.kills schedule) w)
  in
  (* read the hit counters before disarming: a perturbation "fired"
     when its site was announced past its occurrence index *)
  let fired =
    List.map
      (fun (p : Schedule.perturbation) ->
         ( p,
           p.Schedule.action = Schedule.Kill
           || Fault.hits p.Schedule.site > p.Schedule.occurrence ))
      schedule
  in
  Fault.clear ();
  let journal_definite =
    match obs.Workload.journal with
    | Some journal when Sys.file_exists journal ->
        Harness.journal_read ~on_corrupt:(fun _ _ -> ()) journal
        |> List.filter (fun (_, r) ->
               Workload.definite (Harness.verdict_tag r.Harness.verdict))
        |> List.length
    | _ -> 0
  in
  (* recovery phase: a batch that crashed (or tore its store) is
     restarted clean over the same journal and store, exactly what an
     operator's --resume rerun does *)
  let recovered =
    match w.Workload.kind with
    | Workload.Batch -> Some (Workload.run_batch ~dir ~resume:true w)
    | Workload.Serve | Workload.Route -> None
  in
  (dir, { obs; recovered; fired; journal_definite })

let run_clean ?binary (w : Workload.t) =
  let dir = Workload.temp_dir "speccc_chaos" in
  let obs, trace =
    with_trace (fun () ->
        match w.Workload.kind with
        | Workload.Batch -> Workload.run_batch ~dir ~resume:false w
        | Workload.Serve -> Workload.run_serve ~dir w
        | Workload.Route ->
            let binary =
              match binary with
              | Some b -> b
              | None -> invalid_arg "route workload needs the CLI binary"
            in
            Workload.run_route ~binary ~kills:[] w)
  in
  Workload.rm_rf dir;
  (obs, trace)

(* ---------- the invariant suite ---------- *)

let fired_sites run =
  List.filter_map
    (fun ((p : Schedule.perturbation), fired) ->
       if fired then Some (p.Schedule.site, p.Schedule.action) else None)
    run.fired

let fired_corrupt_store run =
  List.exists
    (fun (site, action) ->
       site = Fault.Checkpoint.store_append && action = Schedule.Corrupt)
    (fired_sites run)

let fired_kill run =
  List.exists (fun (_, action) -> action = Schedule.Kill) (fired_sites run)

(* Sites inside the serve worker's watchdog window: the request
   computation itself.  journal.append and server.write run after
   [Watchdog.complete] — a stall there is not preemptible by design,
   so no trip may be demanded of it. *)
let watchdogged site =
  site = "server.request" || site = "harness.document"
  || List.exists
       (fun prefix ->
          String.length site > String.length prefix
          && String.sub site 0 (String.length prefix) = prefix)
       [ "engine."; "bdd."; "sat."; "tableau."; "witness."; "pipeline." ]

let fired_escalating_delay (w : Workload.t) run =
  List.exists
    (fun (site, action) ->
       match action with
       | Schedule.Delay s ->
           watchdogged site && s > w.Workload.deadline +. w.Workload.grace
       | _ -> false)
    (fired_sites run)

(* I1: verdict identity.  [final] is the observation whose verdicts
   must agree with the clean run: the recovered rerun for batch, the
   perturbed responses for serve/route. *)
let check_identity ~clean ~(final : Workload.obs) =
  List.filter_map
    (fun (name, clean_verdict) ->
       if not (Workload.definite clean_verdict) then None
       else
         match List.assoc_opt name final.Workload.verdicts with
         | Some v when v = clean_verdict -> None
         | Some v when not (Workload.definite v) ->
             (* a perturbed request may legitimately degrade to
                unknown/failed; only a *flipped* definite verdict or a
                missing recovered document is a violation *)
             None
         | Some v ->
             Some
               {
                 invariant = "verdict-identity";
                 detail =
                   Printf.sprintf "%s: clean %s, after faults %s" name
                     clean_verdict v;
               }
         | None -> None)
    clean.Workload.verdicts

(* batch recovery must answer every document, definitely *)
let check_recovered_complete ~clean ~(recovered : Workload.obs) =
  (match recovered.Workload.crashed with
   | Some e ->
       [ { invariant = "verdict-identity";
           detail = "recovery run crashed: " ^ e } ]
   | None -> [])
  @ List.filter_map
      (fun (name, clean_verdict) ->
         if not (Workload.definite clean_verdict) then None
         else
           match List.assoc_opt name recovered.Workload.verdicts with
           | None ->
               Some
                 {
                   invariant = "verdict-identity";
                   detail = name ^ ": missing from the recovery run";
                 }
           | Some v when v = clean_verdict -> None
           | Some v ->
               Some
                 {
                   invariant = "verdict-identity";
                   detail =
                     Printf.sprintf "%s: clean %s, recovered %s" name
                       clean_verdict v;
                 })
      clean.Workload.verdicts

(* I2: durability.  Reopen the store the perturbed run wrote: every
   acked write must still be there with the same verdict, nothing may
   contradict the clean verdicts, and the journal must contain no
   unparsable interior lines (no injected fault tears mid-line). *)
let check_durability ~(w : Workload.t) ~clean ~run =
  match run.obs.Workload.store_path with
  | None -> ([], 0, 0)
  | Some path ->
      let store =
        Store.open_ ~compact_threshold:1_000_000 ~on_recover:(fun _ -> ()) path
      in
      let stats = Store.stats store in
      let salt = Workload.store_salt w in
      let acked_lost =
        List.filter_map
          (fun (key, verdict) ->
             match Store.find store key with
             | Some r when Harness.verdict_tag r.Harness.verdict = verdict ->
                 None
             | Some r ->
                 Some
                   {
                     invariant = "durability";
                     detail =
                       Printf.sprintf
                         "acked store write changed verdict: %s -> %s" verdict
                         (Harness.verdict_tag r.Harness.verdict);
                   }
             | None ->
                 Some
                   {
                     invariant = "durability";
                     detail = "acked store write lost after recovery (" ^ verdict ^ ")";
                   })
          run.obs.Workload.acked
      in
      let wrong_persist =
        List.filter_map
          (fun (name, text) ->
             match List.assoc_opt name clean.Workload.verdicts with
             | Some clean_verdict when Workload.definite clean_verdict -> (
                 let key = Store.key ~salt (Document.parse text) in
                 match Store.find store key with
                 | Some r
                   when Harness.verdict_tag r.Harness.verdict <> clean_verdict
                   ->
                     Some
                       {
                         invariant = "durability";
                         detail =
                           Printf.sprintf "store holds %s for %s (clean: %s)"
                             (Harness.verdict_tag r.Harness.verdict)
                             name clean_verdict;
                       }
                 | _ -> None)
             | _ -> None)
          w.Workload.docs
      in
      Store.close store;
      let torn_journal =
        match run.obs.Workload.journal with
        | None -> []
        | Some journal when Sys.file_exists journal ->
            let corrupt = ref 0 in
            let entries =
              Harness.journal_read
                ~on_corrupt:(fun _ _ -> incr corrupt)
                journal
            in
            ignore entries;
            if !corrupt > 0 then
              [ { invariant = "durability";
                  detail =
                    Printf.sprintf
                      "%d unparsable journal line(s): no injected fault \
                       writes partial lines"
                      !corrupt } ]
            else []
        | Some _ -> []
      in
      ( acked_lost @ wrong_persist @ torn_journal,
        stats.Store.recovered_bytes,
        stats.Store.crc_failures )

(* I3: exactly-once responses within the watchdog bound. *)
let check_service ~(w : Workload.t) ~schedule ~run =
  match w.Workload.kind with
  | Workload.Batch -> []
  | Workload.Serve | Workload.Route ->
      let n = List.length w.Workload.requests in
      let crashed =
        match run.obs.Workload.crashed with
        | Some e ->
            [ { invariant = "service"; detail = "run did not finish: " ^ e } ]
        | None -> []
      in
      let by_id id =
        List.length (List.filter (fun r -> r = id) run.obs.Workload.responses)
      in
      let exactly_once =
        List.concat_map
          (fun id ->
             match by_id id with
             | 1 -> []
             | 0 ->
                 [ { invariant = "service";
                     detail = Printf.sprintf "request %d never answered" id } ]
             | k ->
                 [ { invariant = "service";
                     detail = Printf.sprintf "request %d answered %d times" id k } ])
          (List.init n (fun i -> i + 1))
      in
      let bound =
        Schedule.delay_budget schedule
        +.
        match w.Workload.kind with
        | Workload.Serve -> (2.0 *. w.Workload.deadline) +. w.Workload.grace +. 1.0
        | _ -> 25.0
      in
      let late =
        List.filter_map
          (fun (id, latency) ->
             if latency > bound then
               Some
                 {
                   invariant = "service";
                   detail =
                     Printf.sprintf
                       "request %d answered after the %.1fs watchdog bound" id
                       bound;
                 }
             else None)
          run.obs.Workload.latencies
      in
      crashed @ exactly_once @ late

(* I4: recovery counters booked consistently with what was injected. *)
let check_accounting ~(w : Workload.t) ~run ~recovered_bytes ~crc_failures =
  let obs = run.obs in
  match w.Workload.kind with
  | Workload.Batch ->
      let corrupt = fired_corrupt_store run in
      (* the recovery run's own store open is what scans (and repairs)
         the log the perturbed run left behind — its counters are the
         ones that must reflect the injection *)
      let torn =
        match run.recovered with
        | None -> []
        | Some rec_obs ->
            let rb = Workload.counter rec_obs "store.recovered_bytes" in
            let cf = Workload.counter rec_obs "store.crc_failures" in
            if corrupt && rb = 0 then
              [ { invariant = "accounting";
                  detail =
                    "a torn store write was injected but recovery booked 0 \
                     recovered bytes" } ]
            else if (not corrupt) && (rb > 0 || cf > 0) then
              [ { invariant = "accounting";
                  detail =
                    Printf.sprintf
                      "no torn write was injected, yet recovery booked \
                       recovered_bytes=%d crc_failures=%d"
                      rb cf } ]
            else []
      in
      let replay =
        match run.recovered with
        | None -> []
        | Some rec_obs ->
            let expected =
              min run.journal_definite (List.length w.Workload.docs)
            in
            if Workload.counter rec_obs "batch.replayed" < expected then
              [ { invariant = "accounting";
                  detail =
                    Printf.sprintf
                      "recovery replayed %d results but the journal held %d \
                       definite verdicts"
                      (Workload.counter rec_obs "batch.replayed")
                      expected } ]
            else []
      in
      torn @ replay
  | Workload.Serve ->
      let c name = Workload.counter obs name in
      let escalate =
        if
          fired_escalating_delay w run
          && (c "serve.preempted" < 1 || c "serve.watchdog_trips" < 1)
        then
          [ { invariant = "accounting";
              detail =
                Printf.sprintf
                  "an over-deadline stall was injected but the watchdog \
                   booked preempted=%d trips=%d"
                  (c "serve.preempted") (c "serve.watchdog_trips") } ]
        else []
      in
      let restarts =
        if c "serve.restarts" < c "serve.escalations" then
          [ { invariant = "accounting";
              detail =
                Printf.sprintf "escalations=%d outnumber worker restarts=%d"
                  (c "serve.escalations") (c "serve.restarts") } ]
        else []
      in
      let shed =
        if c "serve.shed" > 0 || c "serve.bad_requests" > 0 then
          [ { invariant = "accounting";
              detail =
                Printf.sprintf
                  "closed-loop soak shed %d / rejected %d requests"
                  (c "serve.shed") (c "serve.bad_requests") } ]
        else []
      in
      (* serve never reopens its store during the run, so the post-run
         reopen performed by the durability check is where a torn tail
         must surface *)
      let torn =
        let corrupt = fired_corrupt_store run in
        if corrupt && recovered_bytes = 0 then
          [ { invariant = "accounting";
              detail =
                "a torn store write was injected but the reopen booked 0 \
                 recovered bytes" } ]
        else if (not corrupt) && (recovered_bytes > 0 || crc_failures > 0)
        then
          [ { invariant = "accounting";
              detail =
                Printf.sprintf
                  "no torn write was injected, yet the reopen booked \
                   recovered_bytes=%d crc_failures=%d"
                  recovered_bytes crc_failures } ]
        else []
      in
      escalate @ restarts @ shed @ torn
  | Workload.Route ->
      let c name = Workload.counter obs name in
      let killed = fired_kill run in
      let respawn =
        if killed && (c "route.respawns" < 1 || c "route.failovers" < 1) then
          [ { invariant = "accounting";
              detail =
                Printf.sprintf
                  "a worker was SIGKILLed but the router booked respawns=%d \
                   failovers=%d"
                  (c "route.respawns") (c "route.failovers") } ]
        else []
      in
      let unavailable =
        if c "route.unavailable" > 0 then
          [ { invariant = "accounting";
              detail =
                Printf.sprintf "%d request(s) exhausted every shard"
                  (c "route.unavailable") } ]
        else []
      in
      respawn @ unavailable

let check_invariants ~(w : Workload.t) ~schedule ~clean ~run =
  let identity =
    match (w.Workload.kind, run.recovered) with
    | Workload.Batch, Some recovered ->
        check_recovered_complete ~clean ~recovered
    | Workload.Batch, None -> []
    | (Workload.Serve | Workload.Route), _ ->
        check_identity ~clean ~final:run.obs
  in
  let durability, recovered_bytes, crc_failures =
    check_durability ~w ~clean ~run
  in
  let service = check_service ~w ~schedule ~run in
  let accounting = check_accounting ~w ~run ~recovered_bytes ~crc_failures in
  identity @ durability @ service @ accounting

(* one schedule end to end: run, check, clean up the scratch dir *)
let try_schedule ?binary ~clean (w : Workload.t) schedule =
  let dir, run = run_perturbed ?binary ~schedule w in
  let violations = check_invariants ~w ~schedule ~clean ~run in
  Workload.rm_rf dir;
  (run, violations)

(* ---------- delta-debug minimization ---------- *)

let invariants_of violations =
  List.sort_uniq compare (List.map (fun v -> v.invariant) violations)

(* Shrink the schedule while the *same invariant* keeps failing: the
   ddmin list ladder (halves + single deletions) plus occurrence
   lowering.  Each probe is a full replay, so the depth is bounded. *)
let minimize ?binary ~clean ~w ~schedule violations =
  let target = invariants_of violations in
  let still_fails candidate =
    if candidate = [] then None
    else
      let _, vs = try_schedule ?binary ~clean w candidate in
      if List.exists (fun v -> List.mem v.invariant target) vs then Some vs
      else None
  in
  let occurrence_shrinks schedule =
    List.concat_map
      (fun (i, (p : Schedule.perturbation)) ->
         if p.Schedule.occurrence > 0 then
           [ List.mapi
               (fun j q ->
                  if j = i then { p with Schedule.occurrence = 0 } else q)
               schedule ]
         else [])
      (List.mapi (fun i p -> (i, p)) schedule)
  in
  let rec go schedule violations budget =
    if budget <= 0 then (schedule, violations)
    else
      let candidates =
        Shrink.list_shrinks schedule @ occurrence_shrinks schedule
      in
      let rec first = function
        | [] -> None
        | c :: rest -> (
            match still_fails c with
            | Some vs -> Some (c, vs)
            | None -> first rest)
      in
      match first candidates with
      | Some (smaller, vs) -> go smaller vs (budget - 1)
      | None -> (schedule, violations)
  in
  go schedule violations 12

(* ---------- corpus entries (.chaos) ---------- *)

type expect = Pass | Expect_violation of string

type entry = {
  workload : Workload.t;
  schedule : Schedule.t;
  seed : int;
  expect : expect;
  requires : (string * int) list;
      (* counter >= n over the perturbed run (batch recovery counters
         are exposed with a "recovered." prefix) *)
}

let entry_to_string e =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "workload: %s" (Workload.kind_to_string e.workload.Workload.kind);
  List.iter
    (fun (name, text) ->
       line "doc: %s" name;
       List.iter (fun s -> line "text: %s" s) (String.split_on_char '\n' text))
    e.workload.Workload.docs;
  line "requests: %s" (String.concat " " e.workload.Workload.requests);
  line "deadline: %g" e.workload.Workload.deadline;
  line "grace: %g" e.workload.Workload.grace;
  line "shards: %d" e.workload.Workload.shards;
  line "worker-delay: %g" e.workload.Workload.worker_delay;
  line "fuel: %d" e.workload.Workload.fuel;
  line "seed: %d" e.seed;
  List.iter
    (fun p -> line "perturb: %s" (Schedule.perturbation_to_string p))
    e.schedule;
  List.iter (fun (name, n) -> line "require: %s>=%d" name n) e.requires;
  (match e.expect with
   | Pass -> line "expect: pass"
   | Expect_violation inv -> line "expect: violation %s" inv);
  Buffer.contents b

let entry_of_string text =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lines = String.split_on_char '\n' text in
  let base = Workload.seed () in
  let workload = ref { base with Workload.docs = []; requests = [] } in
  let docs = ref [] in
  let schedule = ref [] in
  let requires = ref [] in
  let expect = ref Pass in
  let seed = ref 0 in
  let result =
    List.fold_left
      (fun acc raw ->
         match acc with
         | Error _ -> acc
         | Ok () -> (
             let line = String.trim raw in
             if line = "" || line.[0] = '#' then Ok ()
             else
               match String.index_opt line ':' with
               | None -> err "unparsable line %S" line
               | Some i -> (
                   let key = String.sub line 0 i in
                   let value =
                     String.trim
                       (String.sub line (i + 1) (String.length line - i - 1))
                   in
                   match key with
                   | "workload" -> (
                       match Workload.kind_of_string value with
                       | Some kind ->
                           workload := { !workload with Workload.kind };
                           Ok ()
                       | None -> err "unknown workload %S" value)
                   | "doc" ->
                       docs := (value, []) :: !docs;
                       Ok ()
                   | "text" -> (
                       match !docs with
                       | [] -> err "text: before any doc:"
                       | (name, texts) :: rest ->
                           docs := (name, value :: texts) :: rest;
                           Ok ())
                   | "requests" ->
                       workload :=
                         { !workload with
                           Workload.requests =
                             List.filter
                               (fun s -> s <> "")
                               (String.split_on_char ' ' value) };
                       Ok ()
                   | "deadline" | "grace" | "worker-delay" -> (
                       match float_of_string_opt value with
                       | None -> err "bad float for %s: %S" key value
                       | Some f ->
                           (workload :=
                              match key with
                              | "deadline" -> { !workload with Workload.deadline = f }
                              | "grace" -> { !workload with Workload.grace = f }
                              | _ -> { !workload with Workload.worker_delay = f });
                           Ok ())
                   | "shards" | "fuel" | "seed" -> (
                       match int_of_string_opt value with
                       | None -> err "bad int for %s: %S" key value
                       | Some n ->
                           (match key with
                            | "shards" ->
                                workload := { !workload with Workload.shards = n }
                            | "fuel" ->
                                workload := { !workload with Workload.fuel = n }
                            | _ -> seed := n);
                           Ok ())
                   | "perturb" -> (
                       match Schedule.perturbation_of_string value with
                       | Some p ->
                           schedule := p :: !schedule;
                           Ok ()
                       | None -> err "unparsable perturbation %S" value)
                   | "require" -> (
                       match String.index_opt value '>' with
                       | Some j
                         when j + 1 < String.length value && value.[j + 1] = '=' -> (
                           let name = String.trim (String.sub value 0 j) in
                           let n =
                             String.sub value (j + 2) (String.length value - j - 2)
                           in
                           match int_of_string_opt (String.trim n) with
                           | Some n ->
                               requires := (name, n) :: !requires;
                               Ok ()
                           | None -> err "bad require %S" value)
                       | _ -> err "bad require %S (want counter>=n)" value)
                   | "expect" -> (
                       match String.split_on_char ' ' value with
                       | [ "pass" ] ->
                           expect := Pass;
                           Ok ()
                       | [ "violation"; inv ] ->
                           expect := Expect_violation inv;
                           Ok ()
                       | _ -> err "bad expect %S" value)
                   | _ -> err "unknown key %S" key)))
      (Ok ()) lines
  in
  match result with
  | Error _ as e -> e
  | Ok () ->
      let docs =
        List.rev_map
          (fun (name, texts) -> (name, String.concat "\n" (List.rev texts)))
          !docs
      in
      let requests =
        if !workload.Workload.requests = [] then List.map fst docs
        else !workload.Workload.requests
      in
      Ok
        {
          workload = { !workload with Workload.docs = docs; requests };
          schedule = List.rev !schedule;
          seed = !seed;
          expect = !expect;
          requires = List.rev !requires;
        }

let write_entry ~dir ~name entry =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  let path = Filename.concat dir (name ^ ".chaos") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (entry_to_string entry));
  path

let load_entry path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  entry_of_string text

(* ---------- replay ---------- *)

(* Replay one corpus entry: clean run, perturbed run (plus recovery
   for batch), invariant suite, counter requirements.  [Ok] when the
   entry's expectation holds. *)
let replay ?binary entry =
  let w = entry.workload in
  let clean, _trace = run_clean ?binary w in
  match clean.Workload.crashed with
  | Some e -> Error [ "clean run crashed: " ^ e ]
  | None -> (
      let dir, run = run_perturbed ?binary ~schedule:entry.schedule w in
      let violations =
        check_invariants ~w ~schedule:entry.schedule ~clean ~run
      in
      Workload.rm_rf dir;
      let counters =
        run.obs.Workload.counters
        @ (match run.recovered with
           | None -> []
           | Some rec_obs ->
               List.map
                 (fun (k, v) -> ("recovered." ^ k, v))
                 rec_obs.Workload.counters)
      in
      let missing_requires =
        List.filter_map
          (fun (name, n) ->
             let have =
               Option.value ~default:0 (List.assoc_opt name counters)
             in
             if have >= n then None
             else Some (Printf.sprintf "require %s>=%d, got %d" name n have))
          entry.requires
      in
      let describe vs =
        List.map (fun v -> v.invariant ^ ": " ^ v.detail) vs
      in
      match entry.expect with
      | Pass ->
          if violations = [] && missing_requires = [] then Ok []
          else Error (describe violations @ missing_requires)
      | Expect_violation inv ->
          if List.exists (fun v -> v.invariant = inv) violations then
            Ok (describe violations)
          else
            Error
              (Printf.sprintf "expected a %s violation, got none" inv
               :: describe violations
               @ missing_requires))

(* ---------- enumeration and exploration ---------- *)

type report = {
  workload : string;
  sites : (string * int) list;        (* clean-trace occurrence counts *)
  schedules_run : int;
  capped : (string * int) list;       (* site -> occurrences not explored *)
  skipped : string list;              (* excluded combos, with reasons *)
  violations : (Schedule.t * violation) list;   (* minimized *)
  corpus_files : string list;
}

(* Crash at a response-write site drops the answer by design — the
   model for a vanished client, indistinguishable from a violated
   exactly-once invariant from outside.  Excluded, and logged. *)
let crash_excluded site = site = "server.write" || site = "route.write"

let delay_for (w : Workload.t) =
  match w.Workload.kind with
  | Workload.Batch -> 0.05
  | Workload.Serve -> w.Workload.deadline +. w.Workload.grace +. 0.5
  | Workload.Route -> 0.5

let single_site_schedules ~sites ~occ_cap (w : Workload.t) counts =
  let capped = ref [] in
  let skipped = ref [] in
  let schedules =
    List.concat_map
      (fun (site, count) ->
         if sites <> [] && not (List.mem site sites) then []
         else begin
           let explored = min count occ_cap in
           if count > explored then
             capped := (site, count - explored) :: !capped;
           List.concat_map
             (fun occurrence ->
                let actions =
                  (if crash_excluded site then begin
                     skipped :=
                       (site ^ ": crash (response-write site, dropped \
                                 answers are by design)")
                       :: !skipped;
                     []
                   end
                   else [ Schedule.Crash ])
                  @ [ Schedule.Delay (delay_for w) ]
                  @ (if Fault.Checkpoint.corruptible site then
                       [ Schedule.Corrupt ]
                     else [])
                in
                List.map
                  (fun action -> [ { Schedule.site; occurrence; action } ])
                  actions)
             (List.init explored Fun.id)
         end)
      counts
  in
  let kill_schedules =
    match w.Workload.kind with
    | Workload.Route ->
        List.mapi
          (fun i _ ->
             [ { Schedule.site = Schedule.kill_site;
                 occurrence = i;
                 action = Schedule.Kill } ])
          w.Workload.requests
    | _ -> []
  in
  ( schedules @ kill_schedules,
    List.sort_uniq compare !capped,
    List.sort_uniq compare !skipped )

let pair_schedules ~seed ~pairs singles =
  if pairs <= 0 || List.length singles < 2 then []
  else begin
    let rng = Prng.make seed in
    List.init pairs (fun _ ->
        let a = Prng.pick rng singles in
        let b = Prng.pick rng singles in
        a @ b)
    |> List.filter (fun s ->
           match s with
           | [ a; b ] ->
               not
                 (a.Schedule.site = b.Schedule.site
                  && a.Schedule.occurrence = b.Schedule.occurrence)
           | _ -> true)
    |> List.sort_uniq compare
  end

let explore ?binary ?(sites = []) ?(occ_cap = 3) ?(pairs = 5)
    ?(max_schedules = 0) ?corpus_dir ~seed ~log (w : Workload.t) =
  log (Printf.sprintf "chaos: tracing a clean %s run"
         (Workload.kind_to_string w.Workload.kind));
  let clean, trace = run_clean ?binary w in
  (match clean.Workload.crashed with
   | Some e -> failwith ("chaos: clean run crashed: " ^ e)
   | None -> ());
  let counts = site_counts trace in
  let singles, capped, skipped = single_site_schedules ~sites ~occ_cap w counts in
  let paired = pair_schedules ~seed ~pairs singles in
  let all = singles @ paired in
  let all, truncated =
    if max_schedules > 0 && List.length all > max_schedules then
      (List.filteri (fun i _ -> i < max_schedules) all,
       List.length all - max_schedules)
    else (all, 0)
  in
  let skipped =
    skipped
    @ (if truncated > 0 then
         [ Printf.sprintf "%d schedule(s) beyond --max-schedules" truncated ]
       else [])
  in
  log (Printf.sprintf "chaos: %d sites in trace, %d schedules to replay"
         (List.length counts) (List.length all));
  let violations = ref [] in
  let corpus_files = ref [] in
  List.iteri
    (fun i schedule ->
       if i mod 10 = 0 && i > 0 then
         log (Printf.sprintf "chaos: %d/%d schedules replayed" i
                (List.length all));
       let _, vs = try_schedule ?binary ~clean w schedule in
       match vs with
       | [] -> ()
       | vs ->
           log (Printf.sprintf "chaos: violation at [%s], minimizing"
                  (Schedule.to_string schedule));
           let minimized, vs = minimize ?binary ~clean ~w ~schedule vs in
           List.iter
             (fun v ->
                violations := (minimized, v) :: !violations;
                match corpus_dir with
                | None -> ()
                | Some dir ->
                    let name =
                      Printf.sprintf "chaos-%s-%03d"
                        (Workload.kind_to_string w.Workload.kind)
                        (List.length !corpus_files)
                    in
                    let entry =
                      {
                        workload = w;
                        schedule = minimized;
                        seed;
                        expect = Expect_violation v.invariant;
                        requires = [];
                      }
                    in
                    corpus_files := write_entry ~dir ~name entry :: !corpus_files)
             (List.sort_uniq compare vs))
       all;
  {
    workload = Workload.kind_to_string w.Workload.kind;
    sites = counts;
    schedules_run = List.length all;
    capped;
    skipped;
    violations = List.rev !violations;
    corpus_files = List.rev !corpus_files;
  }

let pp_report fmt r =
  Format.fprintf fmt "chaos exploration over the %s workload@." r.workload;
  Format.fprintf fmt "  sites traced:@.";
  List.iter
    (fun (site, n) -> Format.fprintf fmt "    %-24s x%d@." site n)
    r.sites;
  List.iter
    (fun (site, dropped) ->
       Format.fprintf fmt "  capped: %s (%d occurrence(s) not explored)@."
         site dropped)
    r.capped;
  List.iter (fun s -> Format.fprintf fmt "  skipped: %s@." s) r.skipped;
  Format.fprintf fmt "  schedules replayed: %d@." r.schedules_run;
  if r.violations = [] then
    Format.fprintf fmt "  invariants: all held (0 violations)@."
  else
    List.iter
      (fun (schedule, v) ->
         Format.fprintf fmt "  VIOLATION %s: %s@.    schedule: %s@."
           v.invariant v.detail (Schedule.to_string schedule))
      r.violations;
  List.iter
    (fun path -> Format.fprintf fmt "  corpus entry written: %s@." path)
    r.corpus_files
