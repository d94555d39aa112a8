(* Sharded front end: consistent-hash routing over a pool of serve
   worker processes, with crash detection, bounded failover, and
   automatic respawn.

   Each shard owns one worker process on one Unix socket and one
   dispatcher thread.  The serve mode accepts one connection at a
   time, so the dispatcher holds a single persistent connection and
   keeps exactly one request outstanding on it: request/response
   correlation is positional, and a worker crash surfaces as EPIPE on
   send or EOF/timeout on receive.  Dispatchers run in parallel across
   shards, FIFO within a shard.

   Failover re-enqueues the request onto the next distinct shard in
   ring order.  Verdicts are deterministic functions of the spec, so a
   failover answer is bit-identical to the home shard's — the router
   trades locality (the home shard's warm verdict store), never
   correctness.  Every request is answered: exhaustion of all shards
   produces a typed [unavailable] error, not silence. *)

module Jsonl = Speccc_json.Jsonl
module Breaker = Speccc_server.Breaker
module Lineio = Speccc_server.Lineio
module Fault = Speccc_runtime.Fault
module Eintr = Speccc_runtime.Eintr

let shard_dispatch =
  Fault.Checkpoint.register "shard.dispatch"
    "router, as a dispatcher hands a check to its shard (a raising \
     trigger fails this attempt and forces a failover to the next \
     ring candidate; a Delay stalls the dispatch)"

let route_write =
  Fault.Checkpoint.register "route.write"
    "router, as a response line is written to the client (a raising \
     trigger is absorbed like a vanished client)"

(* ---------- consistent-hash ring ---------- *)

module Ring = struct
  type t = { points : (int * int) array; shards : int }

  (* 56 bits of an MD5 digest: plenty of spread, always a nonnegative
     OCaml int *)
  let hash_key s =
    let d = Digest.string s in
    let v = ref 0 in
    for i = 0 to 6 do
      v := (!v lsl 8) lor Char.code d.[i]
    done;
    !v

  let create ~shards ~replicas =
    let shards = max 1 shards and replicas = max 1 replicas in
    let points =
      Array.init (shards * replicas) (fun i ->
          let shard = i / replicas and r = i mod replicas in
          (hash_key (Printf.sprintf "shard-%d#%d" shard r), shard))
    in
    Array.sort compare points;
    { points; shards }

  (* index of the first point clockwise of the key's hash *)
  let position t key =
    let h = hash_key key in
    let n = Array.length t.points in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    if !lo = n then 0 else !lo

  let shard_of t key = snd t.points.(position t key)

  let failover t key =
    let n = Array.length t.points in
    let start = position t key in
    let seen = Array.make t.shards false in
    let order = ref [] in
    let found = ref 0 in
    let i = ref 0 in
    while !found < t.shards && !i < n do
      let shard = snd t.points.((start + !i) mod n) in
      if not seen.(shard) then begin
        seen.(shard) <- true;
        incr found;
        order := shard :: !order
      end;
      incr i
    done;
    List.rev !order
end

(* ---------- configuration ---------- *)

type config = {
  shards : int;
  replicas : int;
  request_retries : int;
  request_timeout : float;
  connect_timeout : float;
  respawn_wait : float;
  shutdown_wait : float;
  breaker_threshold : int;
  breaker_cooldown : float;
  socket_dir : string;
  worker_argv : shard:int -> socket:string -> string array;
}

let default_config ~socket_dir ~worker_argv =
  {
    shards = 3;
    replicas = 32;
    request_retries = 2;
    request_timeout = 30.0;
    connect_timeout = 10.0;
    respawn_wait = 0.2;
    shutdown_wait = 5.0;
    breaker_threshold = 3;
    breaker_cooldown = 2.0;
    socket_dir;
    worker_argv;
  }

type stats = {
  served : int;
  failovers : int;
  respawns : int;
  unavailable : int;
  bad_requests : int;
  shard_served : int array;
  breakers : (string * string) list;
}

(* ---------- jobs ---------- *)

type check = {
  line : string;          (* forwarded verbatim, options and all *)
  id : Jsonl.t;
  key : string;           (* routing key *)
  mutable tried : int list;
}

type probe = {
  p_id : Jsonl.t;
  p_lock : Mutex.t;
  mutable remaining : int;
  mutable parts : (int * Jsonl.t option) list;
      (* shard index, worker health object ([None] = probe failed) *)
}

type job = Check of check | Probe of probe

type shard_state = {
  index : int;
  socket : string;
  queue : job Queue.t;
  breaker : Breaker.t;
  mutable pid : int option;
  mutable conn : Unix.file_descr option;
  mutable reader : Lineio.t option;
  mutable ever_spawned : bool;
  mutable s_served : int;
  mutable thread : Thread.t option;
}

type t = {
  config : config;
  ring : Ring.t;
  shards : shard_state array;
  lock : Mutex.t;
  wake : Condition.t;
      (* broadcast on enqueue, on drain, and when the last outstanding
         request completes — dispatchers re-check their queue and the
         exit condition on every wake *)
  output : out_channel;
  out_lock : Mutex.t;
  mutable closed : bool;
  mutable shutdown : bool;
  mutable outstanding : int;  (* queued + in-flight jobs, all shards *)
  mutable served : int;
  mutable failovers : int;
  mutable respawns : int;
  mutable unavailable : int;
  mutable bad : int;
}

let locked router f =
  Mutex.lock router.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock router.lock) f

let shutdown_requested router = locked router (fun () -> router.shutdown)

let write_line router line =
  Mutex.lock router.out_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock router.out_lock)
    (fun () ->
      Fault.in_scope route_write @@ fun () ->
      try
        Fault.hit route_write;
        Fault.io_event "route.write";
        output_string router.output line;
        output_char router.output '\n';
        flush router.output
      with
      | Sys_error _ | Unix.Unix_error _
      | Speccc_runtime.Runtime.Interrupt _ -> ())

let finish_one router =
  locked router (fun () ->
      router.outstanding <- router.outstanding - 1;
      if router.outstanding = 0 then Condition.broadcast router.wake)

let enqueue router shard job ~fresh =
  locked router (fun () ->
      if fresh then router.outstanding <- router.outstanding + 1;
      Queue.push job router.shards.(shard).queue;
      Condition.broadcast router.wake)

(* ---------- worker lifecycle (dispatcher-thread only) ---------- *)

let send_line fd line =
  (* worker-facing writes ride under the dispatch checkpoint's scope so
     the strict-I/O lint sees them as guarded *)
  Fault.in_scope shard_dispatch @@ fun () ->
  let data = line ^ "\n" in
  let n = String.length data in
  let off = ref 0 in
  while !off < n do
    match Eintr.write_substring fd data !off (n - !off) with
    | 0 -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
    | written -> off := !off + written
  done

let kill_worker router shard =
  (match shard.conn with
  | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  shard.conn <- None;
  shard.reader <- None;
  match shard.pid with
  | None -> ()
  | Some pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      locked router (fun () -> shard.pid <- None)

let child_exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let connect_worker router shard pid =
  let give_up = Unix.gettimeofday () +. router.config.connect_timeout in
  let rec attempt () =
    (* cloexec: a later-spawned worker must not inherit (and pin open)
       another shard's connection *)
    let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_UNIX shard.socket) with
    | () -> Some sock
    | exception Unix.Unix_error _ ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        if child_exited pid || Unix.gettimeofday () >= give_up then None
        else begin
          Thread.delay 0.05;
          attempt ()
        end
  in
  attempt ()

(* Bring the shard's worker up if it is not already.  A successful
   (re)spawn resets the shard's breaker: the replacement process has
   fresh engines and a freshly replayed store, so it must not inherit
   the phantom failure count its predecessor earned. *)
let ensure_worker router shard =
  match shard.conn with
  | Some _ -> true
  | None -> (
      kill_worker router shard;
      let is_respawn = shard.ever_spawned in
      if is_respawn then Thread.delay router.config.respawn_wait;
      (try Sys.remove shard.socket with Sys_error _ -> ());
      let argv = router.config.worker_argv ~shard:shard.index ~socket:shard.socket in
      match
        let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close null_in with Unix.Unix_error _ -> ());
            try Unix.close null_out with Unix.Unix_error _ -> ())
          (fun () ->
            (* worker stdout is the serve-CLI's human report channel;
               the client stream is ours alone, so silence it *)
            Unix.create_process argv.(0) argv null_in null_out Unix.stderr)
      with
      | exception _ -> false
      | pid -> (
          locked router (fun () -> shard.pid <- Some pid);
          shard.ever_spawned <- true;
          match connect_worker router shard pid with
          | None ->
              kill_worker router shard;
              false
          | Some fd ->
              shard.conn <- Some fd;
              shard.reader <- Some (Lineio.create fd);
              Breaker.reset shard.breaker;
              if is_respawn then
                locked router (fun () ->
                    router.respawns <- router.respawns + 1);
              true))

(* One request/response exchange on the shard's persistent connection.
   Any failure mode — send error, EOF, timeout — means the worker is
   gone or wedged; the caller kills and respawns it. *)
let exchange router shard line =
  match (shard.conn, shard.reader) with
  | Some fd, Some reader -> (
      match send_line fd line with
      | exception Unix.Unix_error _ -> Error `Send
      | () -> (
          let deadline =
            Unix.gettimeofday () +. router.config.request_timeout
          in
          match Lineio.next_line ~deadline reader ~stop:(fun () -> false) with
          | Some response -> Ok response
          | None -> Error `Receive))
  | _ -> Error `Down

(* ---------- dispatch ---------- *)

let unavailable_response c =
  Jsonl.to_string
    (Jsonl.Obj
       [ ("id", c.id); ("error", Jsonl.Str "unavailable");
         ("detail", Jsonl.Str "no shard could answer the request") ])

(* Re-dispatch a failed request to the next distinct untried shard in
   ring order, within the retry budget; answer [unavailable] when the
   budget or the pool is exhausted. *)
let redispatch router c =
  let allowed =
    min (router.config.request_retries + 1) (Array.length router.shards)
  in
  let next =
    if List.length c.tried >= allowed then None
    else
      List.find_opt
        (fun s -> not (List.mem s c.tried))
        (Ring.failover router.ring c.key)
  in
  match next with
  | Some shard ->
      locked router (fun () -> router.failovers <- router.failovers + 1);
      enqueue router shard (Check c) ~fresh:false
  | None ->
      write_line router (unavailable_response c);
      locked router (fun () -> router.unavailable <- router.unavailable + 1);
      finish_one router

let process_check router shard c =
  c.tried <- shard.index :: c.tried;
  (* Announced after this shard is marked tried: a raising trigger here
     is caught by the dispatcher and redispatches to the next ring
     candidate, the same failover path a dead worker takes. *)
  Fault.hit shard_dispatch;
  let attempt =
    if Breaker.should_skip shard.breaker ~now:(Unix.gettimeofday ()) then
      Error `Skipped
    else if not (ensure_worker router shard) then Error `Spawn
    else exchange router shard c.line
  in
  match attempt with
  | Ok response ->
      Breaker.record_success shard.breaker;
      write_line router response;
      locked router (fun () ->
          router.served <- router.served + 1;
          shard.s_served <- shard.s_served + 1);
      finish_one router
  | Error `Skipped ->
      (* breaker already open: no new evidence to record *)
      redispatch router c
  | Error (`Spawn | `Send | `Receive | `Down) ->
      Breaker.record_failure shard.breaker ~now:(Unix.gettimeofday ());
      kill_worker router shard;
      (* respawn immediately (best-effort) so the shard is back — with
         its store replayed — before its next request, not after *)
      ignore (ensure_worker router shard);
      redispatch router c

let probe_line = "{\"id\":\"__probe__\",\"cmd\":\"health\"}"

let router_health router =
  locked router (fun () ->
      let num n = Jsonl.Num (float_of_int n) in
      let depth =
        Array.fold_left
          (fun acc s -> acc + Queue.length s.queue)
          0 router.shards
      in
      Jsonl.Obj
        [ ("shards", num (Array.length router.shards));
          ("served", num router.served); ("failovers", num router.failovers);
          ("respawns", num router.respawns);
          ("unavailable", num router.unavailable);
          ("queue_depth", num depth) ])

let probe_response router p =
  let num n = Jsonl.Num (float_of_int n) in
  let parts = List.sort (fun (a, _) (b, _) -> compare a b) p.parts in
  (* aggregate the workers' anytime counters so one router probe shows
     the fleet-wide preemption/resume picture without reading every
     per-shard health object *)
  let anytime_totals =
    let count field =
      List.fold_left
        (fun acc (_, health) ->
          match health with
          | None -> acc
          | Some h -> (
              match Jsonl.member "anytime" h with
              | Some anytime ->
                  acc + Option.value (Jsonl.int_member field anytime) ~default:0
              | None -> acc))
        0 parts
    in
    Jsonl.Obj
      [ ("preempted", num (count "preempted"));
        ("resumed", num (count "resumed"));
        ("saved_snapshots", num (count "saved_snapshots")) ]
  in
  (* same fleet-wide aggregation for the BDD backend: total node
     allocations and memo-cache hits across all workers *)
  let bdd_totals =
    let count field =
      List.fold_left
        (fun acc (_, health) ->
          match health with
          | None -> acc
          | Some h -> (
              match Jsonl.member "bdd" h with
              | Some bdd ->
                  acc + Option.value (Jsonl.int_member field bdd) ~default:0
              | None -> acc))
        0 parts
    in
    Jsonl.Obj
      [ ("nodes", num (count "nodes"));
        ("op_hits", num (count "op_hits")) ]
  in
  let shards_json =
    List.map
      (fun (i, health) ->
        let s = router.shards.(i) in
        let pid, served =
          locked router (fun () -> (s.pid, s.s_served))
        in
        Jsonl.Obj
          [ ("shard", num i);
            ("pid", match pid with Some p -> num p | None -> Jsonl.Null);
            ("breaker", Jsonl.Str (Breaker.state_name s.breaker));
            ("served", num served);
            ("health", Option.value health ~default:Jsonl.Null) ])
      parts
  in
  Jsonl.to_string
    (Jsonl.Obj
       [ ("id", p.p_id);
         ( "health",
           Jsonl.Obj
             [ ("router", router_health router);
               ("anytime", anytime_totals);
               ("bdd", bdd_totals);
               ("shards", Jsonl.Arr shards_json) ] ) ])

let process_probe router shard p =
  let health =
    if not (ensure_worker router shard) then None
    else
      match exchange router shard probe_line with
      | Ok response -> (
          match Jsonl.parse response with
          | Ok json -> Jsonl.member "health" json
          | Error _ -> None)
      | Error _ ->
          (* a dead probe is a dead worker: same recovery as a check *)
          Breaker.record_failure shard.breaker ~now:(Unix.gettimeofday ());
          kill_worker router shard;
          ignore (ensure_worker router shard);
          None
  in
  Mutex.lock p.p_lock;
  p.parts <- (shard.index, health) :: p.parts;
  p.remaining <- p.remaining - 1;
  let completed = p.remaining = 0 in
  Mutex.unlock p.p_lock;
  if completed then write_line router (probe_response router p);
  finish_one router

let next_job router shard =
  Mutex.lock router.lock;
  let rec wait () =
    if not (Queue.is_empty shard.queue) then begin
      let job = Queue.pop shard.queue in
      Mutex.unlock router.lock;
      Some job
    end
    else if router.closed && router.outstanding = 0 then begin
      Mutex.unlock router.lock;
      None
    end
    else begin
      Condition.wait router.wake router.lock;
      wait ()
    end
  in
  wait ()

let rec dispatcher router shard =
  match next_job router shard with
  | None -> ()
  | Some job ->
      (match job with
      | Check c -> (
          try process_check router shard c
          with _ ->
            (* a dispatcher must never die with a request in hand *)
            redispatch router c)
      | Probe p -> ( try process_probe router shard p with _ -> finish_one router));
      dispatcher router shard

(* ---------- request intake (reader thread) ---------- *)

let routing_key json ~id =
  match Jsonl.str_member "doc" json with
  | Some doc -> doc
  | None -> (
      match Jsonl.str_member "path" json with
      | Some path -> path
      | None -> Jsonl.to_string id)

let request_key line =
  match Jsonl.parse (String.trim line) with
  | Error _ -> None
  | Ok json ->
      let id = Option.value (Jsonl.member "id" json) ~default:Jsonl.Null in
      Some (routing_key json ~id)

let error_response router ?(id = Jsonl.Null) kind detail =
  write_line router
    (Jsonl.to_string
       (Jsonl.Obj
          [ ("id", id); ("error", Jsonl.Str kind);
            ("detail", Jsonl.Str detail) ]))

let handle_line router line =
  let line = String.trim line in
  if line = "" then ()
  else
    match Jsonl.parse line with
    | Error message ->
        locked router (fun () -> router.bad <- router.bad + 1);
        error_response router "bad_request" message
    | Ok json -> (
        let id = Option.value (Jsonl.member "id" json) ~default:Jsonl.Null in
        match Option.value (Jsonl.str_member "cmd" json) ~default:"check" with
        | "check" ->
            let key = routing_key json ~id in
            let home = Ring.shard_of router.ring key in
            enqueue router home (Check { line; id; key; tried = [] })
              ~fresh:true
        | "health" ->
            let p =
              {
                p_id = id;
                p_lock = Mutex.create ();
                remaining = Array.length router.shards;
                parts = [];
              }
            in
            Array.iter
              (fun shard -> enqueue router shard.index (Probe p) ~fresh:true)
              router.shards
        | "shutdown" ->
            write_line router
              (Jsonl.to_string
                 (Jsonl.Obj [ ("id", id); ("ok", Jsonl.Str "draining") ]));
            locked router (fun () -> router.shutdown <- true)
        | other ->
            locked router (fun () -> router.bad <- router.bad + 1);
            error_response router ~id "bad_request" ("unknown cmd " ^ other))

(* ---------- lifecycle ---------- *)

let stop_worker router shard =
  (match shard.conn with
  | Some fd ->
      (try send_line fd "{\"cmd\":\"shutdown\"}"
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  shard.conn <- None;
  shard.reader <- None;
  match shard.pid with
  | None -> ()
  | Some pid ->
      let give_up = Unix.gettimeofday () +. router.config.shutdown_wait in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () >= give_up then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
            end
            else begin
              Thread.delay 0.05;
              wait ()
            end
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      wait ();
      shard.pid <- None

let make (config : config) output =
  let config : config =
    {
      config with
      shards = max 1 config.shards;
      replicas = max 1 config.replicas;
      request_retries = max 0 config.request_retries;
    }
  in
  (if not (Sys.file_exists config.socket_dir) then
     try Unix.mkdir config.socket_dir 0o755 with Unix.Unix_error _ -> ());
  {
    config;
    ring = Ring.create ~shards:config.shards ~replicas:config.replicas;
    shards =
      Array.init config.shards (fun index ->
          {
            index;
            socket =
              Filename.concat config.socket_dir
                (Printf.sprintf "shard-%d.sock" index);
            queue = Queue.create ();
            breaker =
              Breaker.create
                ~rung:(Printf.sprintf "shard-%d" index)
                ~threshold:config.breaker_threshold
                ~cooldown:config.breaker_cooldown;
            pid = None;
            conn = None;
            reader = None;
            ever_spawned = false;
            s_served = 0;
            thread = None;
          });
    lock = Mutex.create ();
    wake = Condition.create ();
    output;
    out_lock = Mutex.create ();
    closed = false;
    shutdown = false;
    outstanding = 0;
    served = 0;
    failovers = 0;
    respawns = 0;
    unavailable = 0;
    bad = 0;
  }

let finish router =
  {
    served = router.served;
    failovers = router.failovers;
    respawns = router.respawns;
    unavailable = router.unavailable;
    bad_requests = router.bad;
    shard_served = Array.map (fun s -> s.s_served) router.shards;
    breakers =
      Array.to_list
        (Array.map
           (fun s ->
             (Printf.sprintf "shard-%d" s.index, Breaker.state_name s.breaker))
           router.shards);
  }

let run ?(stop = fun () -> false) config ~input ~output =
  (* a worker dying mid-exchange must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let router = make config output in
  Array.iter
    (fun shard ->
      shard.thread <-
        Some
          (Thread.create
             (fun () ->
               (* bring the pool up eagerly, then serve the queue *)
               ignore (ensure_worker router shard);
               dispatcher router shard)
             ()))
    router.shards;
  let reader = Lineio.create input in
  let rec loop () =
    if shutdown_requested router || stop () then ()
    else
      match
        Lineio.next_line reader ~stop:(fun () ->
            stop () || shutdown_requested router)
      with
      | None -> ()
      | Some line ->
          handle_line router line;
          loop ()
  in
  loop ();
  locked router (fun () ->
      router.closed <- true;
      Condition.broadcast router.wake);
  Array.iter
    (fun shard -> Option.iter Thread.join shard.thread)
    router.shards;
  Array.iter (fun shard -> stop_worker router shard) router.shards;
  finish router

let pp_stats ppf (stats : stats) =
  Format.fprintf ppf
    "@[<v>served: %d@,failovers: %d@,respawns: %d@,unavailable: %d@,\
     bad requests: %d@,per shard: %s@,breakers: %s@]"
    stats.served stats.failovers stats.respawns stats.unavailable
    stats.bad_requests
    (String.concat ", "
       (Array.to_list (Array.mapi (fun i n -> Printf.sprintf "%d=%d" i n)
          stats.shard_served)))
    (String.concat ", "
       (List.map (fun (r, s) -> r ^ "=" ^ s) stats.breakers))
