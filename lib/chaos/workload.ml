(* Chaos workloads: the three request streams the explorer traces and
   perturbs, each driven end-to-end through the real machinery — the
   batch harness with its journal and verdict store, an in-process
   serve pool with watchdog supervision, and a routed pool of real
   worker processes.  Every run gets a fresh scratch directory so the
   store/journal state of one schedule never leaks into the next, and
   runs are kept deterministic: one worker, closed-loop requests,
   fuel-governed verdicts, no wall-clock in any recorded field. *)

module Document = Speccc_core.Document
module Pipeline = Speccc_core.Pipeline
module Harness = Speccc_harness.Harness
module Server = Speccc_server.Server
module Jsonl = Speccc_json.Jsonl
module Lineio = Speccc_server.Lineio
module Shard = Speccc_shard.Shard
module Store = Speccc_store.Store

type kind = Batch | Serve | Route

type t = {
  kind : kind;
  docs : (string * string) list;   (* name -> text, '\n' between sentences *)
  requests : string list;          (* doc names in send order (serve/route) *)
  deadline : float;                (* serve: per-request watchdog deadline *)
  grace : float;
  shards : int;                    (* route: worker processes *)
  worker_delay : float;            (* route: wedge for the Kill victim *)
  fuel : int;
}

let kind_to_string = function
  | Batch -> "batch"
  | Serve -> "serve"
  | Route -> "route"

let kind_of_string = function
  | "batch" -> Some Batch
  | "serve" -> Some Serve
  | "route" -> Some Route
  | _ -> None

(* The seed documents: one consistent, one inconsistent, one mixed —
   small enough that a schedule replays in well under a second, rich
   enough to exercise translation, both verdict polarities, witness
   emission and the store/journal paths. *)
let seed_docs =
  [
    ("pump-ok", "If the start button is pressed, the pump is started.");
    ( "alarm-clash",
      "If the pump is lost, the alarm is triggered.\n\
       If the pump is lost, the alarm is not triggered." );
    ( "mixed",
      "If the start button is pressed, the pump is started.\n\
       If the pump is lost, the alarm is triggered." );
  ]

let seed ?(kind = Batch) () =
  {
    kind;
    docs = seed_docs;
    requests = [ "pump-ok"; "alarm-clash"; "mixed"; "pump-ok" ];
    deadline = 1.0;
    grace = 1.0;
    shards = 2;
    worker_delay = 8.0;
    fuel = 100_000;
  }

(* ---------- observations ---------- *)

type obs = {
  verdicts : (string * string) list;
      (* batch: doc name -> verdict class; serve/route: request id
         (as a string) -> verdict class or "error:<kind>" *)
  responses : int list;            (* serve/route: ids in arrival order,
                                      duplicates and all *)
  latencies : (int * float) list;  (* serve/route: id -> send-to-answer *)
  counters : (string * int) list;
  crashed : string option;         (* the run died with this exception *)
  journal : string option;         (* scratch journal path *)
  store_path : string option;      (* scratch store path *)
  acked : (string * string) list;
      (* store writes that were acked to the caller (put returned):
         key -> verdict class; these must survive recovery *)
}

let counter obs name =
  Option.value ~default:0 (List.assoc_opt name obs.counters)

let definite = function "consistent" | "inconsistent" -> true | _ -> false

(* ---------- scratch directories ---------- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with _ -> ())
      (Sys.readdir dir);
    (try Unix.rmdir dir with _ -> ())
  end

(* ---------- shared wiring ---------- *)

let options_of w =
  { (Pipeline.default_options ()) with
    Pipeline.fuel = Some w.fuel;
    certify = true }

let store_salt w = Store.salt_of_options (options_of w)

let store_counters prefix (s : Store.stats) =
  [
    (prefix ^ ".appends", s.Store.appends);
    (prefix ^ ".compactions", s.Store.compactions);
    (prefix ^ ".recovered_bytes", s.Store.recovered_bytes);
    (prefix ^ ".crc_failures", s.Store.crc_failures);
    (prefix ^ ".live", s.Store.live);
  ]

let harness_config ?journal ~resume w =
  { (Harness.default_config ()) with
    Harness.options = options_of w;
    retries = 2;
    backoff_base = 0.001;
    backoff_cap = 0.01;
    (* report the nominal backoff without sleeping: schedule replays
       must not pay wall-clock for retry pauses *)
    sleep = (fun s -> s);
    journal;
    resume }

(* ---------- batch ---------- *)

let run_batch ~dir ~resume w =
  let journal = Filename.concat dir "journal.jsonl" in
  let store_path = Filename.concat dir "store.log" in
  let store =
    Store.open_ ~compact_threshold:4 ~on_recover:(fun _ -> ()) store_path
  in
  let salt = store_salt w in
  let acked = ref [] in
  let config =
    let base = harness_config ~journal ~resume w in
    { base with
      Harness.store_find =
        Some (fun doc -> Store.find store (Store.key ~salt doc));
      store_put =
        Some
          (fun doc result ->
             let key = Store.key ~salt doc in
             Store.put store ~key result;
             (* only reached when put returned: the write was acked *)
             acked :=
               (key, Harness.verdict_tag result.Harness.verdict) :: !acked) }
  in
  let docs = List.map (fun (name, text) -> (name, Document.parse text)) w.docs in
  let crashed, results =
    match Harness.run config docs with
    | summary -> (None, summary.Harness.results)
    | exception e -> (Some (Printexc.to_string e), [])
  in
  let fresh, replayed =
    List.fold_left
      (fun (f, r) res -> if res.Harness.fresh then (f + 1, r) else (f, r + 1))
      (0, 0) results
  in
  let counters =
    store_counters "store" (Store.stats store)
    @ [ ("batch.fresh", fresh); ("batch.replayed", replayed) ]
  in
  Store.close store;
  {
    verdicts =
      List.map
        (fun r -> (r.Harness.doc, Harness.verdict_tag r.Harness.verdict))
        results;
    responses = [];
    latencies = [];
    counters;
    crashed;
    journal = Some journal;
    store_path = Some store_path;
    acked = List.rev !acked;
  }

(* ---------- closed-loop JSONL sessions (serve and route) ---------- *)

let request id fields =
  Jsonl.to_string (Jsonl.Obj (("id", Jsonl.Num (float_of_int id)) :: fields))

let check_request id text = request id [ ("doc", Jsonl.Str text) ]

let send_fd fd line =
  let data = Bytes.of_string (line ^ "\n") in
  ignore (Speccc_runtime.Eintr.write fd data 0 (Bytes.length data))

let response_id json =
  Option.value ~default:(-1) (Jsonl.int_member "id" json)

let response_verdict json =
  match Jsonl.str_member "verdict" json with
  | Some v -> v
  | None -> (
      match Jsonl.str_member "error" json with
      | Some e -> "error:" ^ e
      | None -> "error:unparsable")

(* Drive a closed loop over a server/router speaking JSONL on [input_w]
   / [reader]: send each request, wait (bounded) for its answer, and
   after EOF-ing the input drain every remaining line — a duplicate
   response must show up in [responses], not desynchronize the loop.
   [on_sent i] runs right after request [i] (0-based) is written; the
   route driver uses it to SIGKILL a worker mid-request. *)
let closed_loop ~input_w ~reader ~read_timeout ~on_sent w =
  let never_stop () = false in
  let responses = ref [] in
  let latencies = ref [] in
  let verdicts = ref [] in
  let crashed = ref None in
  let texts = w.docs in
  (try
     List.iteri
       (fun i name ->
          if !crashed = None then begin
            let text =
              match List.assoc_opt name texts with
              | Some t -> t
              | None -> name
            in
            let id = i + 1 in
            let started = Unix.gettimeofday () in
            send_fd input_w (check_request id text);
            on_sent i;
            match
              Lineio.next_line
                ~deadline:(started +. read_timeout) reader ~stop:never_stop
            with
            | None ->
                crashed := Some "no response within the read timeout"
            | Some line -> (
                let elapsed = Unix.gettimeofday () -. started in
                match Jsonl.parse line with
                | Error e -> crashed := Some ("unparsable response: " ^ e)
                | Ok json ->
                    let rid = response_id json in
                    responses := rid :: !responses;
                    latencies := (rid, elapsed) :: !latencies;
                    verdicts :=
                      (string_of_int rid, response_verdict json) :: !verdicts)
          end)
       w.requests
   with e -> crashed := Some (Printexc.to_string e));
  (try Unix.close input_w with Unix.Unix_error _ -> ());
  (* drain: anything still in flight, and any duplicate answers *)
  let drain_deadline = Unix.gettimeofday () +. read_timeout in
  let rec drain () =
    match Lineio.next_line ~deadline:drain_deadline reader ~stop:never_stop with
    | None -> ()
    | Some line ->
        (match Jsonl.parse line with
         | Ok json ->
             let rid = response_id json in
             responses := rid :: !responses;
             verdicts := (string_of_int rid, response_verdict json) :: !verdicts
         | Error _ -> ());
        drain ()
  in
  drain ();
  (List.rev !verdicts, List.rev !responses, List.rev !latencies, !crashed)

(* ---------- serve ---------- *)

let run_serve ~dir w =
  let journal = Filename.concat dir "journal.jsonl" in
  let store_path = Filename.concat dir "store.log" in
  let store =
    Store.open_ ~compact_threshold:16 ~on_recover:(fun _ -> ()) store_path
  in
  let config =
    { (Server.default_config ()) with
      Server.harness = harness_config ~journal ~resume:false w;
      workers = 1;
      queue_capacity = 64;
      high_water = None;
      deadline = w.deadline;
      grace = w.grace;
      watchdog_poll = 0.005;
      drain_wait = 5.0;
      store = Some store }
  in
  let in_read, in_write = Unix.pipe ~cloexec:true () in
  let out_read, out_write = Unix.pipe ~cloexec:true () in
  let output = Unix.out_channel_of_descr out_write in
  let stats = ref None in
  let server_error = ref None in
  let runner =
    Thread.create
      (fun () ->
         (try stats := Some (Server.run config ~input:in_read ~output)
          with e -> server_error := Some (Printexc.to_string e));
         try close_out output with Sys_error _ -> ())
      ()
  in
  let verdicts, responses, latencies, crashed =
    closed_loop ~input_w:in_write ~reader:(Lineio.create out_read)
      ~read_timeout:30.0 ~on_sent:(fun _ -> ()) w
  in
  Thread.join runner;
  (try Unix.close out_read with Unix.Unix_error _ -> ());
  (try Unix.close in_read with Unix.Unix_error _ -> ());
  let counters =
    (match !stats with
     | None -> []
     | Some s ->
         [
           ("serve.served", s.Server.served);
           ("serve.shed", s.Server.shed);
           ("serve.bad_requests", s.Server.bad_requests);
           ("serve.watchdog_trips", s.Server.watchdog_trips);
           ("serve.escalations", s.Server.escalations);
           ("serve.restarts", s.Server.restarts);
           ("serve.preempted", s.Server.preempted);
           ("serve.resumed", s.Server.resumed);
         ])
    @ store_counters "store" (Store.stats store)
  in
  Store.close store;
  let crashed =
    match (crashed, !server_error) with
    | Some c, _ -> Some c
    | None, Some e -> Some ("server raised: " ^ e)
    | None, None -> None
  in
  {
    verdicts;
    responses;
    latencies;
    counters;
    crashed;
    journal = Some journal;
    store_path = Some store_path;
    acked = [];
  }

(* ---------- route ---------- *)

(* The victim shard is wedged on EVERY request it receives (one delay
   trigger per occurrence), not just its first: the kill may target any
   request index, and earlier requests homed on the same shard must not
   consume the only stall before the one the driver kills mid-flight. *)
let worker_argv ~binary ~victim ~wedge ~delay ~shard ~socket =
  Array.of_list
    ([ binary; "serve"; "--socket"; socket; "--workers"; "1";
       "--request-deadline"; "5"; "--grace"; "1" ]
     @
     if shard = victim then
       List.concat_map
         (fun occ ->
            [ "--inject";
              Printf.sprintf "server.request@%d=delay:%g" occ delay ])
         (List.init (max 1 wedge) Fun.id)
     else [])

let shard_pids session_send reader =
  session_send (request 0 [ ("cmd", Jsonl.Str "health") ]);
  match
    Lineio.next_line
      ~deadline:(Unix.gettimeofday () +. 30.0) reader
      ~stop:(fun () -> false)
  with
  | None -> []
  | Some line -> (
      match Jsonl.parse line with
      | Error _ -> []
      | Ok json -> (
          match
            Option.bind (Jsonl.member "health" json) (Jsonl.member "shards")
          with
          | Some (Jsonl.Arr entries) ->
              List.filter_map
                (fun entry ->
                   match
                     (Jsonl.int_member "shard" entry, Jsonl.int_member "pid" entry)
                   with
                   | Some shard, Some pid -> Some (shard, pid)
                   | _ -> None)
                entries
          | _ -> []))

(* [kills] are 0-based request indices: right after that request is
   sent, the home-shard worker holding it is SIGKILLed.  The victim
   shard is spawned wedged ([w.worker_delay] on its first check) so
   the kill reliably lands mid-request; failover must still answer. *)
let run_route ~binary ~kills w =
  let socket_dir = temp_dir "speccc_chaos_sock" in
  let ring = Shard.Ring.create ~shards:w.shards ~replicas:32 in
  let victim =
    match kills with
    | [] -> -1
    | k :: _ -> (
        match List.nth_opt w.requests k with
        | None -> -1
        | Some name ->
            let text =
              Option.value ~default:name (List.assoc_opt name w.docs)
            in
            Shard.Ring.shard_of ring text)
  in
  let argv ~shard ~socket =
    worker_argv ~binary ~victim ~wedge:(List.length w.requests)
      ~delay:w.worker_delay ~shard ~socket
  in
  let config =
    { (Shard.default_config ~socket_dir ~worker_argv:argv) with
      Shard.shards = w.shards;
      request_retries = max 1 (w.shards - 1);
      request_timeout = 20.0;
      connect_timeout = 20.0;
      respawn_wait = 0.1;
      shutdown_wait = 5.0 }
  in
  let in_read, in_write = Unix.pipe ~cloexec:true () in
  let out_read, out_write = Unix.pipe ~cloexec:true () in
  let output = Unix.out_channel_of_descr out_write in
  let stats = ref None in
  let router_error = ref None in
  let runner =
    Thread.create
      (fun () ->
         (try stats := Some (Shard.run config ~input:in_read ~output)
          with e -> router_error := Some (Printexc.to_string e));
         try close_out output with Sys_error _ -> ())
      ()
  in
  let reader = Lineio.create out_read in
  let pids =
    if kills = [] then []
    else shard_pids (fun line -> send_fd in_write line) reader
  in
  let on_sent i =
    if List.mem i kills then begin
      (* let the dispatch land on the wedged victim, then kill it *)
      Unix.sleepf 0.5;
      match List.assoc_opt victim pids with
      | Some pid -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None -> ()
    end
  in
  (* the shared loop reads through the [reader] that already consumed
     the health response boundary *)
  let verdicts, responses, latencies, crashed =
    closed_loop ~input_w:in_write ~reader ~read_timeout:30.0 ~on_sent w
  in
  Thread.join runner;
  (try Unix.close out_read with Unix.Unix_error _ -> ());
  (try Unix.close in_read with Unix.Unix_error _ -> ());
  rm_rf socket_dir;
  let counters =
    match !stats with
    | None -> []
    | Some s ->
        [
          ("route.served", s.Shard.served);
          ("route.failovers", s.Shard.failovers);
          ("route.respawns", s.Shard.respawns);
          ("route.unavailable", s.Shard.unavailable);
          ("route.bad_requests", s.Shard.bad_requests);
        ]
  in
  let crashed =
    match (crashed, !router_error) with
    | Some c, _ -> Some c
    | None, Some e -> Some ("router raised: " ^ e)
    | None, None -> None
  in
  {
    verdicts;
    responses;
    latencies;
    counters;
    crashed;
    journal = None;
    store_path = None;
    acked = [];
  }
