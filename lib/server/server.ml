(* Supervised service mode: a coordinator thread reads JSONL requests,
   a pool of worker domains checks them, and a wall-clock watchdog
   guarantees every request is answered even when an engine wedges
   between budget checkpoints.

   The supervision ladder, from mildest to harshest:

   1. cooperative cancellation — the watchdog trips the request's
      token at its deadline; a well-behaved engine dies at its next
      budget poll and the worker itself answers [unknown];
   2. hard preemption — if the engine has not stopped [grace] seconds
      later it is presumed stuck between checkpoints.  The watchdog
      answers the request on the worker's behalf (exactly-once via a
      CAS on the job's [responded] flag), marks the job abandoned, and
      spawns a replacement domain.  OCaml domains cannot be killed, so
      the stuck worker is retired in place: when (if) it wakes it sees
      the abandoned flag, skips the response it lost, and exits its
      loop instead of taking new work.  A fresh domain means fresh
      domain-local caches — no state from the wedged computation
      survives.

   Around the pool: a bounded queue gives backpressure (the reader
   blocks) and load-shedding (typed [overloaded] response past the
   high-water mark); per-engine-rung circuit breakers skip a rung that
   keeps raising [Engine_failure]; and drain (EOF, shutdown request,
   or the caller's [stop] flag, which the CLI wires to SIGTERM/SIGINT)
   finishes in-flight work before returning. *)

open Speccc_runtime
module Document = Speccc_core.Document
module Pipeline = Speccc_core.Pipeline
module Harness = Speccc_harness.Harness
module Jsonl = Speccc_json.Jsonl
module Realizability = Speccc_synthesis.Realizability
module Cache = Speccc_cache.Cache
module Ltl = Speccc_logic.Ltl
module Store = Speccc_store.Store

type config = {
  harness : Harness.config;
  workers : int;
  queue_capacity : int;
  high_water : int option;
  deadline : float;
  grace : float;
  watchdog_poll : float;
  breaker_threshold : int;
  breaker_cooldown : float;
  drain_wait : float;
  store : Store.t option;
}

let default_config () =
  {
    harness = Harness.default_config ();
    workers = 2;
    queue_capacity = 64;
    high_water = Some 64;
    deadline = 5.0;
    grace = 1.0;
    watchdog_poll = 0.01;
    breaker_threshold = 3;
    breaker_cooldown = 5.0;
    drain_wait = 2.0;
    store = None;
  }

type stats = {
  served : int;
  shed : int;
  bad_requests : int;
  watchdog_trips : int;
  escalations : int;
  restarts : int;
  leaked_workers : int;
  max_queue_depth : int;
  preempted : int;   (** requests answered by the watchdog with a partial verdict *)
  resumed : int;     (** checks that warm-started from a saved snapshot *)
  breakers : (string * string) list;
}

(* ---------- jobs and the pool ---------- *)

type job = {
  id : Jsonl.t;                 (* echoed verbatim in the response *)
  key : string;                 (* journal/doc key *)
  document : (Document.t, string) result;
  fuel : int option;
  deadline : float;
  responded : bool Atomic.t;
  abandoned : bool Atomic.t;
  snapshot : Snapshot.slot;     (* anytime progress for THIS job *)
  snap_key : string option;     (* content key for the snapshot tables *)
}

type slot = {
  mutable domain : unit Domain.t option;
  finished : bool Atomic.t;
  mutable zombie : bool;        (* escalated past; retired in place *)
  mutable preempted : int;      (* jobs the watchdog answered for this worker *)
  mutable resumed : int;        (* jobs this worker warm-started from a snapshot *)
}

type pool = {
  config : config;
  queue : job Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  mutable closed : bool;
  mutable shutdown : bool;
  mutable max_depth : int;
  mutable served : int;
  mutable shed : int;
  mutable bad : int;
  mutable restarts : int;
  mutable next_wid : int;
  workers : (int, slot) Hashtbl.t;
  (* last published frontier per content key: armed into the next
     request for the same document so it resumes instead of
     cold-starting.  The store (when configured) persists the same
     snapshots across process lifetimes. *)
  snapshots : (string, Snapshot.t) Hashtbl.t;
  watchdog : Watchdog.t;
  breakers : Breaker.t list;
  out_lock : Mutex.t;
  mutable output : out_channel;
  journal_lock : Mutex.t;
}

let locked pool f =
  Mutex.lock pool.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool.lock) f

let shutdown_requested pool = locked pool (fun () -> pool.shutdown)

(* ---------- queue: backpressure and shedding ---------- *)

let enqueue pool job =
  Mutex.lock pool.lock;
  let shed_at =
    match pool.config.high_water with
    | Some hw -> Some (min hw pool.config.queue_capacity)
    | None -> None
  in
  let rec admit () =
    let depth = Queue.length pool.queue in
    match shed_at with
    | Some hw when depth >= hw -> `Shed depth
    | _ ->
      if depth >= pool.config.queue_capacity then begin
        (* backpressure: the reader blocks until a worker dequeues *)
        Condition.wait pool.nonfull pool.lock;
        admit ()
      end
      else begin
        Queue.push job pool.queue;
        if depth + 1 > pool.max_depth then pool.max_depth <- depth + 1;
        Condition.signal pool.nonempty;
        `Enqueued
      end
  in
  let decision = admit () in
  (match decision with `Shed _ -> pool.shed <- pool.shed + 1 | `Enqueued -> ());
  Mutex.unlock pool.lock;
  decision

let dequeue pool =
  Mutex.lock pool.lock;
  let rec wait () =
    if not (Queue.is_empty pool.queue) then begin
      let job = Queue.pop pool.queue in
      Condition.broadcast pool.nonfull;
      Mutex.unlock pool.lock;
      Some job
    end
    else if pool.closed then begin
      Mutex.unlock pool.lock;
      None
    end
    else begin
      Condition.wait pool.nonempty pool.lock;
      wait ()
    end
  in
  wait ()

(* ---------- responses ---------- *)

(* the verdict body is exactly the journal schema behind the echoed id *)
let response_line job result =
  Jsonl.to_string (Jsonl.Obj (("id", job.id) :: Harness.journal_fields result))

let server_write =
  Fault.Checkpoint.register "server.write"
    "serve mode, as a response line is written to the client (a Delay \
     stalls the write under the output lock; a raising trigger is \
     absorbed like a vanished client — the journal still has the \
     verdict)"

let write_line pool line =
  Mutex.lock pool.out_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock pool.out_lock)
    (fun () ->
       Fault.in_scope server_write @@ fun () ->
       try
         Fault.hit server_write;
         Fault.io_event "server.write";
         output_string pool.output line;
         output_char pool.output '\n';
         flush pool.output
       with Sys_error _ | Unix.Unix_error _ | Runtime.Interrupt _ ->
         (* client went away (or an injected crash says it did); the
            journal still has the verdict *)
         ())

let failed_result job ~wall error =
  {
    Harness.doc = job.key;
    verdict = Harness.Failed (Runtime.to_string error);
    engine = "none";
    attempts = 1;
    wall;
    detail = Runtime.to_string error;
    fresh = true;
    degradation = [];
    progress = None;
  }

(* The watchdog's answer for a request that blew its deadline — a
   typed partial verdict: [unknown] with the victim's last published
   progress frontier attached, so the client sees how far the check
   got (and that a retry will resume there) instead of a bare
   timeout. *)
let watchdog_result job ~wall =
  let error =
    Runtime.Degraded
      ( "watchdog",
        Runtime.Timeout (Printf.sprintf "request deadline %gs" job.deadline) )
  in
  {
    Harness.doc = job.key;
    verdict = Harness.Unknown;
    engine = "watchdog";
    attempts = 1;
    wall;
    detail = Runtime.to_string error;
    fresh = true;
    degradation = [];
    progress = Snapshot.latest job.snapshot;
  }

(* Persist a preempted job's final frontier: the in-memory table feeds
   the next request for the same document; the store (when configured)
   survives worker respawns and process restarts. *)
let save_snapshot pool job =
  match (Snapshot.latest job.snapshot, job.snap_key) with
  | Some snap, Some key ->
    locked pool (fun () -> Hashtbl.replace pool.snapshots key snap);
    (match pool.config.store with
     | Some store -> (try Store.put_snapshot store ~key snap with _ -> ())
     | None -> ())
  | _ -> ()

let drop_snapshot pool job =
  match job.snap_key with
  | Some key -> locked pool (fun () -> Hashtbl.remove pool.snapshots key)
  | None -> ()

(* Exactly-once: the worker finishing late and the watchdog escalating
   race on [job.responded]; the CAS winner writes the response line
   and the journal entry. *)
let respond pool job result =
  if Atomic.compare_and_set job.responded false true then begin
    write_line pool (response_line job result);
    (match pool.config.harness.Harness.journal with
     | Some path ->
       Mutex.lock pool.journal_lock;
       Fun.protect
         ~finally:(fun () -> Mutex.unlock pool.journal_lock)
         (fun () ->
            (* The response is already on the wire: a journal I/O
               failure (or an injected crash at the journal.append
               checkpoint) must cost the journal line, never the
               worker or the watchdog thread performing this call. *)
            try Harness.journal_append path result
            with Sys_error _ | Unix.Unix_error _ | Runtime.Interrupt _ -> ())
     | None -> ());
    locked pool (fun () -> pool.served <- pool.served + 1)
  end

(* ---------- circuit breakers ---------- *)

let skipped_rung rung =
  String.length rung.Realizability.rung_outcome >= 7
  && String.sub rung.Realizability.rung_outcome 0 7 = "skipped"

let record_breakers pool result =
  let now = Unix.gettimeofday () in
  List.iter
    (fun breaker ->
       let name = Breaker.rung breaker in
       List.iter
         (fun rung ->
            if rung.Realizability.rung_engine = name && not (skipped_rung rung)
            then
              match rung.Realizability.rung_error with
              | Some (Runtime.Engine_failure _) ->
                Breaker.record_failure breaker ~now
              | Some _ ->
                (* resource exhaustion indicts the budget, not the rung *)
                ()
              | None ->
                (* the rung ran to an inconclusive end: it works *)
                Breaker.record_success breaker)
         result.Harness.degradation;
       if result.Harness.engine = name then Breaker.record_success breaker)
    pool.breakers

let open_rungs pool =
  let now = Unix.gettimeofday () in
  List.filter_map
    (fun b -> if Breaker.should_skip b ~now then Some (Breaker.rung b) else None)
    pool.breakers

(* ---------- workers ---------- *)

let rec worker_loop pool wid =
  match dequeue pool with
  | None -> ()
  | Some job -> if run_job pool wid job then worker_loop pool wid

and run_job pool wid job =
  let start = Unix.gettimeofday () in
  match job.document with
  | Error message ->
    respond pool job
      (failed_result job ~wall:0.
         (Runtime.Invalid_input { stage = "server"; message; line = None }));
    true
  | Ok document ->
    let token = Cancellation.create () in
    let skip = open_rungs pool in
    let grace = Float.min pool.config.grace job.deadline in
    let wjob =
      Watchdog.watch pool.watchdog ~deadline:job.deadline ~grace ~cancel:token
        ~on_escalate:(fun () -> escalate pool wid job start)
    in
    let harness =
      let base = pool.config.harness in
      let options =
        { base.Harness.options with
          Pipeline.cancel = Some token;
          deadline = Some job.deadline;
          fuel =
            (match job.fuel with
             | Some _ as f -> f
             | None -> base.Harness.options.Pipeline.fuel);
          skip_engines = skip;
          snapshot = Some job.snapshot }
      in
      { base with Harness.options; journal = None; resume = false; jobs = 1 }
    in
    let result =
      (* drill point: a [Delay] injected here models an engine stalled
         between budget checkpoints — the non-cooperative case only
         the watchdog can answer *)
      match
        Runtime.guard ~stage:"server" (fun () ->
            Fault.hit Fault.Checkpoint.server_request)
      with
      | Error error ->
        failed_result job ~wall:(Unix.gettimeofday () -. start) error
      | Ok () -> Harness.check_one harness job.key document
    in
    let my_slot () = locked pool (fun () -> Hashtbl.find_opt pool.workers wid) in
    if Snapshot.resumed_count job.snapshot > 0 then
      (match my_slot () with
       | Some slot -> slot.resumed <- slot.resumed + 1
       | None -> ());
    (match Watchdog.complete pool.watchdog wjob with
     | `Ok ->
       record_breakers pool result;
       (match result.Harness.verdict with
        | Harness.Consistent | Harness.Inconsistent ->
          (* the definite verdict supersedes any saved progress (the
             store's put does the same for its snapshot record) *)
          drop_snapshot pool job
        | Harness.Unknown | Harness.Failed _ -> save_snapshot pool job);
       respond pool job result
     | `Tripped ->
       (* the deadline passed: the contract is [unknown], whatever the
          late computation came back with — but the progress frontier
          survives for the retry *)
       (match my_slot () with
        | Some slot -> slot.preempted <- slot.preempted + 1
        | None -> ());
       save_snapshot pool job;
       respond pool job (watchdog_result job ~wall:(Unix.gettimeofday () -. start))
     | `Escalated ->
       (* the watchdog already answered (and counted the preemption)
          on this worker's behalf *)
       ());
    not (Atomic.get job.abandoned)

and escalate pool wid job start =
  (* watchdog thread: the worker is stuck between checkpoints.  Answer
     on its behalf — keeping whatever frontier the victim published
     before wedging — retire it in place, bring up a replacement. *)
  Atomic.set job.abandoned true;
  save_snapshot pool job;
  respond pool job (watchdog_result job ~wall:(Unix.gettimeofday () -. start));
  locked pool (fun () ->
      pool.restarts <- pool.restarts + 1;
      (match Hashtbl.find_opt pool.workers wid with
       | Some slot ->
         slot.zombie <- true;
         slot.preempted <- slot.preempted + 1
       | None -> ());
      spawn_locked pool)

and spawn_locked pool =
  let wid = pool.next_wid in
  pool.next_wid <- wid + 1;
  let slot =
    { domain = None; finished = Atomic.make false; zombie = false;
      preempted = 0; resumed = 0 }
  in
  Hashtbl.replace pool.workers wid slot;
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set slot.finished true)
          (fun () ->
             match worker_loop pool wid with
             | () -> ()
             | exception _ ->
               (* a worker must never take the pool down; the job that
                  killed it is answered by the watchdog when its
                  deadline passes *)
               ()))
  in
  slot.domain <- Some domain

(* ---------- request handling ---------- *)

let error_response pool ?(id = Jsonl.Null) kind detail =
  write_line pool
    (Jsonl.to_string
       (Jsonl.Obj
          [ ("id", id); ("error", Jsonl.Str kind);
            ("detail", Jsonl.Str detail) ]))

let health_response pool id =
  let depth, live, restarts, served, shed, workers, saved_snaps =
    locked pool (fun () ->
        let live =
          Hashtbl.fold
            (fun _ slot n ->
               if slot.zombie || Atomic.get slot.finished then n else n + 1)
            pool.workers 0
        in
        let workers =
          Hashtbl.fold
            (fun wid slot acc -> (wid, slot.preempted, slot.resumed) :: acc)
            pool.workers []
          |> List.sort compare
        in
        ( Queue.length pool.queue, live, pool.restarts, pool.served, pool.shed,
          workers, Hashtbl.length pool.snapshots ))
  in
  let num n = Jsonl.Num (float_of_int n) in
  let caches =
    List.map
      (fun s ->
         Jsonl.Obj
           [ ("name", Jsonl.Str s.Cache.name); ("hits", num s.Cache.hits);
             ("misses", num s.Cache.misses); ("size", num s.Cache.size) ])
      (Cache.stats ())
  in
  let hc = Ltl.hashcons_stats () in
  let bdd =
    let c = Speccc_bdd.Bdd.counters () in
    ( "bdd",
      Jsonl.Obj
        [ ("nodes", num c.Speccc_bdd.Bdd.nodes);
          ("op_hits", num c.Speccc_bdd.Bdd.op_hits);
          ("op_misses", num c.Speccc_bdd.Bdd.op_misses);
          ("reorders", num c.Speccc_bdd.Bdd.reorders) ] )
  in
  let store_fields =
    match pool.config.store with
    | None -> []
    | Some store ->
      let s = Store.stats store in
      [ ( "store",
          Jsonl.Obj
            [ ("live", num s.Store.live);
              ("snapshots", num s.Store.snapshots);
              ("appends", num s.Store.appends);
              ("hits", num s.Store.hits); ("misses", num s.Store.misses);
              ("compactions", num s.Store.compactions);
              ("recovered_bytes", num s.Store.recovered_bytes);
              ("crc_failures", num s.Store.crc_failures);
              ("file_bytes", num s.Store.file_bytes) ] ) ]
  in
  let anytime =
    let total_p = List.fold_left (fun a (_, p, _) -> a + p) 0 workers in
    let total_r = List.fold_left (fun a (_, _, r) -> a + r) 0 workers in
    ( "anytime",
      Jsonl.Obj
        [ ("preempted", num total_p); ("resumed", num total_r);
          ("saved_snapshots", num saved_snaps);
          ( "workers",
            Jsonl.Arr
              (List.map
                 (fun (wid, p, r) ->
                    Jsonl.Obj
                      [ ("id", num wid); ("preempted", num p);
                        ("resumed", num r) ])
                 workers) ) ] )
  in
  let memory =
    let m = Memwatch.stats () in
    ( "memory",
      Jsonl.Obj
        [ ("major_words", Jsonl.Num m.Memwatch.major_words);
          ("heap_words", num m.Memwatch.heap_words);
          ("compactions", num m.Memwatch.compactions);
          ("watermark", Jsonl.Str (Memwatch.level_name m.Memwatch.watermark));
          ("soft_trips", num m.Memwatch.soft_trips);
          ("hard_trips", num m.Memwatch.hard_trips);
          ("sheds", num m.Memwatch.sheds) ] )
  in
  write_line pool
    (Jsonl.to_string
       (Jsonl.Obj
          [ ("id", id);
            ( "health",
              Jsonl.Obj
                ([ ("queue_depth", num depth); ("workers", num live);
                   ("restarts", num restarts); ("served", num served);
                   ("shed", num shed);
                   ("watchdog_trips", num (Watchdog.trips pool.watchdog));
                   ("escalations", num (Watchdog.escalations pool.watchdog));
                   ( "breakers",
                     (* full persisted breaker state, so the router can
                        carry a worker's breaker picture across its own
                        health probes and confirm a respawned worker
                        started with no phantom open rungs *)
                     Jsonl.Obj
                       (List.map
                          (fun b ->
                             ( Breaker.rung b,
                               Jsonl.Obj
                                 [ ("state", Jsonl.Str (Breaker.state_name b));
                                   ("opens", num (Breaker.opens b));
                                   ("failures", num (Breaker.failures b)) ] ))
                          pool.breakers) );
                   ("caches", Jsonl.Arr caches);
                   ( "hashcons",
                     Jsonl.Obj
                       [ ("nodes", num hc.Ltl.nodes);
                         ("hits", num hc.Ltl.hc_hits);
                         ("misses", num hc.Ltl.hc_misses) ] );
                   bdd; anytime; memory ]
                  @ store_fields) ) ]))

let handle_check pool id json =
  let request_options =
    Option.value (Jsonl.member "options" json) ~default:json
  in
  let document, key =
    match (Jsonl.str_member "doc" json, Jsonl.str_member "path" json) with
    | Some text, _ ->
      let key =
        match Jsonl.str id with
        | Some s -> s
        | None -> Jsonl.to_string id
      in
      ((try Ok (Document.parse text) with exn -> Error (Printexc.to_string exn)),
       key)
    | None, Some path ->
      ((try Ok (Document.of_file path) with
        | Sys_error message -> Error message
        | exn -> Error (Printexc.to_string exn)),
       path)
    | None, None -> (Error "request has neither \"doc\" nor \"path\"", "?")
  in
  match document with
  | Error message when key = "?" ->
    (* not even a document reference: a protocol error, not a job *)
    locked pool (fun () -> pool.bad <- pool.bad + 1);
    error_response pool ~id "bad_request" message
  | _ ->
    let snapshot = Snapshot.slot () in
    let snap_key =
      match document with
      | Ok doc ->
        let salt = Store.salt_of_options pool.config.harness.Harness.options in
        Some (Store.key ~salt doc)
      | Error _ -> None
    in
    (* warm-replay: arm the last saved frontier for this document so
       the check resumes where the preempted attempt stopped — the
       in-memory table first (this process), the store as fallback
       (across restarts) *)
    (match snap_key with
     | Some skey ->
       let saved =
         match locked pool (fun () -> Hashtbl.find_opt pool.snapshots skey) with
         | Some _ as s -> s
         | None ->
           (match pool.config.store with
            | Some store -> Store.find_snapshot store skey
            | None -> None)
       in
       (match saved with
        | Some _ -> Snapshot.set_resume snapshot saved
        | None -> ())
     | None -> ());
    let job =
      {
        id;
        key;
        document;
        fuel = Jsonl.int_member "fuel" request_options;
        deadline =
          (match Jsonl.num_member "deadline" request_options with
           | Some d when d > 0. -> d
           | _ -> pool.config.deadline);
        responded = Atomic.make false;
        abandoned = Atomic.make false;
        snapshot;
        snap_key;
      }
    in
    (match enqueue pool job with
     | `Enqueued -> ()
     | `Shed depth ->
       write_line pool
         (Jsonl.to_string
            (Jsonl.Obj
               [ ("id", id); ("error", Jsonl.Str "overloaded");
                 ("queue_depth", Jsonl.Num (float_of_int depth)) ])))

let handle_line pool line =
  let line = String.trim line in
  if line = "" then ()
  else
    match Jsonl.parse line with
    | Error message ->
      locked pool (fun () -> pool.bad <- pool.bad + 1);
      error_response pool "bad_request" message
    | Ok json ->
      let id = Option.value (Jsonl.member "id" json) ~default:Jsonl.Null in
      (match Option.value (Jsonl.str_member "cmd" json) ~default:"check" with
       | "check" -> handle_check pool id json
       | "health" -> health_response pool id
       | "shutdown" ->
         write_line pool
           (Jsonl.to_string
              (Jsonl.Obj [ ("id", id); ("ok", Jsonl.Str "draining") ]));
         locked pool (fun () -> pool.shutdown <- true)
       | other ->
         locked pool (fun () -> pool.bad <- pool.bad + 1);
         error_response pool ~id "bad_request" ("unknown cmd " ^ other))

(* ---------- line reader ---------- *)

(* Select-based polling (Lineio), never a blocking channel read, so
   the stop flag always wakes the reader. *)
let make_reader = Lineio.create
let next_line reader ~stop = Lineio.next_line reader ~stop

(* ---------- lifecycle ---------- *)

let make_pool config output =
  let config =
    match config.store with
    | None -> config
    | Some store ->
      { config with harness = Store.wire_harness store config.harness }
  in
  let pool =
    {
      config;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      closed = false;
      shutdown = false;
      max_depth = 0;
      served = 0;
      shed = 0;
      bad = 0;
      restarts = 0;
      next_wid = 0;
      workers = Hashtbl.create 16;
      snapshots = Hashtbl.create 16;
      watchdog = Watchdog.create ~poll_interval:config.watchdog_poll ();
      breakers =
        List.map
          (fun rung ->
             Breaker.create ~rung ~threshold:config.breaker_threshold
               ~cooldown:config.breaker_cooldown)
          Realizability.rung_names;
      out_lock = Mutex.create ();
      output;
      journal_lock = Mutex.create ();
    }
  in
  locked pool (fun () ->
      for _ = 1 to max 1 config.workers do
        spawn_locked pool
      done);
  pool

let drain pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.nonempty;
  Condition.broadcast pool.nonfull;
  let slots = Hashtbl.fold (fun _ slot acc -> slot :: acc) pool.workers [] in
  Mutex.unlock pool.lock;
  let zombies, live = List.partition (fun slot -> slot.zombie) slots in
  (* live workers finish in-flight work plus the queued backlog *)
  List.iter (fun slot -> Option.iter Domain.join slot.domain) live;
  (* zombies cannot be joined unconditionally — they are wedged; wait
     a bounded while for the stall to end, then leak them *)
  let give_up = Unix.gettimeofday () +. pool.config.drain_wait in
  let rec wait pending =
    let done_, stuck =
      List.partition (fun slot -> Atomic.get slot.finished) pending
    in
    List.iter (fun slot -> Option.iter Domain.join slot.domain) done_;
    if stuck = [] then 0
    else if Unix.gettimeofday () >= give_up then List.length stuck
    else begin
      Thread.delay 0.01;
      wait stuck
    end
  in
  let leaked = wait zombies in
  Watchdog.stop pool.watchdog;
  leaked

let finish pool ~leaked =
  let preempted, resumed =
    Hashtbl.fold
      (fun _ slot (p, r) -> (p + slot.preempted, r + slot.resumed))
      pool.workers (0, 0)
  in
  {
    served = pool.served;
    shed = pool.shed;
    bad_requests = pool.bad;
    watchdog_trips = Watchdog.trips pool.watchdog;
    escalations = Watchdog.escalations pool.watchdog;
    restarts = pool.restarts;
    leaked_workers = leaked;
    max_queue_depth = pool.max_depth;
    preempted;
    resumed;
    breakers =
      List.map
        (fun b -> (Breaker.rung b, Breaker.state_name b))
        pool.breakers;
  }

let run ?(stop = fun () -> false) config ~input ~output =
  let pool = make_pool config output in
  let reader = make_reader input in
  let rec loop () =
    if shutdown_requested pool then ()
    else
      match
        next_line reader ~stop:(fun () -> stop () || shutdown_requested pool)
      with
      | None -> ()
      | Some line ->
        handle_line pool line;
        loop ()
  in
  loop ();
  let leaked = drain pool in
  finish pool ~leaked

let run_socket ?(stop = fun () -> false) config ~path =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       Unix.bind sock (Unix.ADDR_UNIX path);
       Unix.listen sock 8;
       let pool = make_pool config stdout in
       let rec accept_loop () =
         if shutdown_requested pool || stop () then ()
         else
           match Unix.select [ sock ] [] [] 0.1 with
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
           | [], _, _ -> accept_loop ()
           | _ ->
             let conn, _ = Eintr.accept sock in
             let out = Unix.out_channel_of_descr conn in
             Mutex.lock pool.out_lock;
             pool.output <- out;
             Mutex.unlock pool.out_lock;
             let reader = make_reader conn in
             let rec session () =
               if shutdown_requested pool then ()
               else
                 match
                   next_line reader ~stop:(fun () ->
                       stop () || shutdown_requested pool)
                 with
                 | None -> ()
                 | Some line ->
                   handle_line pool line;
                   session ()
             in
             session ();
             (try flush out with Sys_error _ -> ());
             (try Unix.close conn with Unix.Unix_error _ -> ());
             accept_loop ()
       in
       accept_loop ();
       let leaked = drain pool in
       finish pool ~leaked)

let pp_stats ppf (stats : stats) =
  Format.fprintf ppf
    "@[<v>served: %d@,shed: %d@,bad requests: %d@,watchdog trips: %d@,\
     escalations: %d@,worker restarts: %d@,leaked workers: %d@,\
     max queue depth: %d@,preempted: %d@,resumed: %d@,breakers: %s@]"
    stats.served stats.shed stats.bad_requests stats.watchdog_trips
    stats.escalations stats.restarts stats.leaked_workers
    stats.max_queue_depth stats.preempted stats.resumed
    (String.concat ", "
       (List.map (fun (r, s) -> r ^ "=" ^ s) stats.breakers))
