(* Tests for the sharded front end: the consistent-hash ring, routing-key
   extraction, and process-level crash drills — a real router over real
   [speccc serve] worker processes, one of which is SIGKILLed with a
   request in flight, plus a warm restart over a deliberately torn
   verdict store.  Every drill is checked against a sequential oracle:
   failover must trade locality, never correctness. *)

open Speccc_core
open Speccc_harness
open Speccc_shard
module Jsonl = Speccc_json.Jsonl

(* ---------- ring ---------- *)

let test_ring_deterministic_and_in_range () =
  let r1 = Shard.Ring.create ~shards:4 ~replicas:32 in
  let r2 = Shard.Ring.create ~shards:4 ~replicas:32 in
  for i = 0 to 199 do
    let key = Printf.sprintf "requirement-%d" i in
    let shard = Shard.Ring.shard_of r1 key in
    Alcotest.(check int) ("stable placement of " ^ key) shard
      (Shard.Ring.shard_of r2 key);
    Alcotest.(check bool) "in range" true (shard >= 0 && shard < 4)
  done

let test_ring_spreads_load () =
  let ring = Shard.Ring.create ~shards:4 ~replicas:64 in
  let counts = Array.make 4 0 in
  for i = 0 to 999 do
    let shard = Shard.Ring.shard_of ring (Printf.sprintf "spec-%d" i) in
    counts.(shard) <- counts.(shard) + 1
  done;
  Array.iteri
    (fun i n ->
       Alcotest.(check bool)
         (Printf.sprintf "shard %d carries real load (%d)" i n) true
         (n > 50))
    counts

let test_ring_failover_covers_all_shards_once () =
  let shards = 5 in
  let ring = Shard.Ring.create ~shards ~replicas:16 in
  for i = 0 to 49 do
    let key = Printf.sprintf "doc-%d" i in
    let order = Shard.Ring.failover ring key in
    Alcotest.(check int) "every shard appears" shards (List.length order);
    Alcotest.(check (list int)) "each exactly once"
      (List.init shards Fun.id)
      (List.sort compare order);
    (match order with
     | home :: _ ->
       Alcotest.(check int) "home shard first"
         (Shard.Ring.shard_of ring key) home
     | [] -> Alcotest.fail "empty failover order")
  done

let test_ring_growth_is_stable () =
  (* The consistent-hashing contract: growing the pool only moves keys
     onto the new shard — existing placements are otherwise stable. *)
  let before = Shard.Ring.create ~shards:4 ~replicas:64 in
  let after = Shard.Ring.create ~shards:5 ~replicas:64 in
  let moved = ref 0 in
  for i = 0 to 999 do
    let key = Printf.sprintf "spec-%d" i in
    let was = Shard.Ring.shard_of before key in
    let is = Shard.Ring.shard_of after key in
    if was <> is then begin
      incr moved;
      Alcotest.(check int) (key ^ " may only move to the new shard") 4 is
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "a minority moved (%d/1000)" !moved) true (!moved < 500)

(* ---------- routing keys ---------- *)

let test_request_key () =
  Alcotest.(check (option string)) "doc text routes"
    (Some "If the pump is lost, the alarm is triggered.")
    (Shard.request_key
       "{\"id\":1,\"doc\":\"If the pump is lost, the alarm is triggered.\"}");
  Alcotest.(check (option string)) "path routes" (Some "specs/pump.txt")
    (Shard.request_key "{\"id\":2,\"path\":\"specs/pump.txt\"}");
  Alcotest.(check (option string)) "id is the last resort" (Some "7")
    (Shard.request_key "{\"id\":7,\"cmd\":\"health\"}");
  Alcotest.(check (option string)) "unparsable lines are not routed" None
    (Shard.request_key "this is not json")

(* ---------- driving a real routed pool ---------- *)

(* Under [dune runtest] the cwd is [_build/default/test]; under a bare
   [dune exec] it is the workspace root.  Resolve the built CLI either
   way, as an absolute path so worker spawns are cwd-proof. *)
let binary =
  let exe = "speccc_cli.exe" in
  let candidates =
    [ Filename.concat ".." (Filename.concat "bin" exe);
      List.fold_left Filename.concat "_build" [ "default"; "bin"; exe ] ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path when Filename.is_relative path ->
    Filename.concat (Sys.getcwd ()) path
  | Some path -> path
  | None -> Alcotest.fail ("speccc CLI binary not built: " ^ Sys.getcwd ())

let consistent_text = "If the start button is pressed, the pump is started."

let inconsistent_text =
  "If the pump is lost, the alarm is triggered.\n\
   If the pump is lost, the alarm is not triggered."

let single_text = "If the pump is lost, the alarm is not triggered."

let combo_text =
  consistent_text ^ "\nIf the pump is lost, the alarm is triggered."

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
    try Unix.rmdir dir with _ -> ()
  end

(* The workers the router spawns: the real CLI binary, one domain per
   worker, tight watchdog.  [extra] appends per-shard flags (a fault
   plan for the crash drill, a store path for the warm-start drill). *)
let worker_argv ?(extra = fun _ -> []) () ~shard ~socket =
  Array.of_list
    ([ binary; "serve"; "--socket"; socket; "--workers"; "1";
       "--request-deadline"; "5"; "--grace"; "1" ]
     @ extra shard)

type session = {
  send : string -> unit;
  recv : unit -> string;
  finish : unit -> Shard.stats;
}

(* Run [Shard.run] on a background thread, talking to it over pipes so
   the test can interleave sends, receives and signals. *)
let start_route ?(shards = 2) ?(retries = 2) argv =
  (* cloexec: a worker inheriting [in_write] would keep the router's
     input alive forever after the test closes its own copy *)
  let in_read, in_write = Unix.pipe ~cloexec:true () in
  let out_read, out_write = Unix.pipe ~cloexec:true () in
  let socket_dir = temp_dir "speccc_shard_sock" in
  let config =
    { (Shard.default_config ~socket_dir ~worker_argv:argv) with
      Shard.shards = shards;
      request_retries = retries;
      request_timeout = 20.;
      connect_timeout = 20.;
      respawn_wait = 0.1;
      shutdown_wait = 5. }
  in
  let output = Unix.out_channel_of_descr out_write in
  let stats = ref None in
  let runner =
    Thread.create
      (fun () ->
         let s = Shard.run config ~input:in_read ~output in
         stats := Some s;
         (try close_out output with Sys_error _ -> ()))
      ()
  in
  let responses = Unix.in_channel_of_descr out_read in
  let closed = ref false in
  {
    send =
      (fun line ->
         let data = Bytes.of_string (line ^ "\n") in
         ignore (Unix.write in_write data 0 (Bytes.length data)));
    recv = (fun () -> input_line responses);
    finish =
      (fun () ->
         if not !closed then begin
           closed := true;
           (try Unix.close in_write with Unix.Unix_error _ -> ())
         end;
         Thread.join runner;
         (try close_in responses with Sys_error _ -> ());
         (try Unix.close in_read with Unix.Unix_error _ -> ());
         rm_rf socket_dir;
         match !stats with
         | Some s -> s
         | None -> Alcotest.fail "router did not return stats");
  }

let check_request n text =
  Jsonl.to_string
    (Jsonl.Obj [ ("id", Jsonl.Num (float_of_int n)); ("doc", Jsonl.Str text) ])

let parse_response line =
  match Jsonl.parse line with
  | Ok json -> json
  | Error e -> Alcotest.fail ("unparsable response " ^ line ^ ": " ^ e)

(* Verdict oracle: the same deterministic pipeline the workers run. *)
let oracle_verdict text =
  let result =
    Harness.check_one (Harness.default_config ()) "oracle" (Document.parse text)
  in
  match result.Harness.verdict with
  | Harness.Consistent -> "consistent"
  | Harness.Inconsistent -> "inconsistent"
  | Harness.Unknown -> "unknown"
  | Harness.Failed _ -> "failed"

let recv_by_id session n =
  let table = Hashtbl.create n in
  for _ = 1 to n do
    let json = parse_response (session.recv ()) in
    match Jsonl.int_member "id" json with
    | Some id ->
      if Hashtbl.mem table id then
        Alcotest.fail (Printf.sprintf "duplicate response for id %d" id);
      Hashtbl.add table id json
    | None -> Alcotest.fail "response without numeric id"
  done;
  table

let shard_entries health_json =
  match
    Option.bind (Jsonl.member "health" health_json) (Jsonl.member "shards")
  with
  | Some (Jsonl.Arr entries) -> entries
  | _ -> Alcotest.fail "health response lacks a shards array"

let pid_of_shard entries target =
  match
    List.find_map
      (fun entry ->
         match Jsonl.int_member "shard" entry with
         | Some i when i = target -> Jsonl.int_member "pid" entry
         | _ -> None)
      entries
  with
  | Some pid -> pid
  | None -> Alcotest.fail (Printf.sprintf "no pid for shard %d" target)

let store_counter entries field =
  List.fold_left
    (fun acc entry ->
       match
         Option.bind (Jsonl.member "health" entry) (Jsonl.member "store")
       with
       | Some store ->
         acc + Option.value (Jsonl.int_member field store) ~default:0
       | None -> acc)
    0 entries

let test_route_answers_and_matches_oracle () =
  let texts = [| consistent_text; inconsistent_text; single_text |] in
  let n = 6 in
  let session = start_route ~shards:2 (worker_argv ()) in
  for i = 1 to n do
    session.send (check_request i texts.((i - 1) mod Array.length texts))
  done;
  let responses = recv_by_id session n in
  let stats = session.finish () in
  for i = 1 to n do
    let json = Hashtbl.find responses i in
    Alcotest.(check (option string))
      (Printf.sprintf "verdict for id %d matches the oracle" i)
      (Some (oracle_verdict texts.((i - 1) mod Array.length texts)))
      (Jsonl.str_member "verdict" json)
  done;
  Alcotest.(check int) "all served" n stats.Shard.served;
  Alcotest.(check int) "none unavailable" 0 stats.Shard.unavailable;
  Alcotest.(check int) "no failovers needed" 0 stats.Shard.failovers;
  Alcotest.(check int) "per-shard tallies add up" n
    (Array.fold_left ( + ) 0 stats.Shard.shard_served)

let test_route_kill_mid_request_fails_over () =
  (* Aim a request at a worker wedged at the server.request checkpoint,
     SIGKILL that worker while the request is in flight, and demand the
     router still answers it — correctly — via failover, then respawns
     the shard. *)
  let shards = 3 in
  let line = check_request 2 inconsistent_text in
  let key =
    match Shard.request_key line with
    | Some key -> key
    | None -> Alcotest.fail "request line must have a routing key"
  in
  let ring = Shard.Ring.create ~shards ~replicas:32 in
  let victim = Shard.Ring.shard_of ring key in
  let extra shard =
    (* only the victim stalls: its first check request sleeps at the
       checkpoint, long enough for the SIGKILL to land mid-request *)
    if shard = victim then [ "--inject"; "server.request@0=delay:8" ] else []
  in
  let session = start_route ~shards (worker_argv ~extra ()) in
  session.send "{\"id\":1,\"cmd\":\"health\"}";
  let pid =
    pid_of_shard (shard_entries (parse_response (session.recv ()))) victim
  in
  session.send line;
  (* let the request reach the victim and wedge, then murder it *)
  Thread.delay 0.5;
  Unix.kill pid Sys.sigkill;
  let response = parse_response (session.recv ()) in
  Alcotest.(check (option int)) "the in-flight request is answered"
    (Some 2) (Jsonl.int_member "id" response);
  Alcotest.(check (option string)) "failover preserved the verdict"
    (Some (oracle_verdict inconsistent_text))
    (Jsonl.str_member "verdict" response);
  (* the respawned victim must serve again: health fans out to all
     shards, so a full aggregate proves the pool is whole *)
  session.send "{\"id\":3,\"cmd\":\"health\"}";
  let entries = shard_entries (parse_response (session.recv ())) in
  let new_pid = pid_of_shard entries victim in
  Alcotest.(check bool) "victim respawned under a new pid" true
    (new_pid <> pid);
  let stats = session.finish () in
  Alcotest.(check int) "the check was served" 1 stats.Shard.served;
  Alcotest.(check bool) "failover recorded" true (stats.Shard.failovers >= 1);
  Alcotest.(check bool) "respawn recorded" true (stats.Shard.respawns >= 1);
  Alcotest.(check int) "nothing unavailable" 0 stats.Shard.unavailable

let test_route_warm_restart_serves_from_store () =
  (* Two pool lifetimes over the same per-shard stores, with one store
     deliberately torn mid-record in between: the second pool must
     answer every repeat identically, serve (almost) all of them from
     the store, and report the recovery. *)
  let texts =
    [| consistent_text; inconsistent_text; single_text; combo_text |]
  in
  let n = Array.length texts in
  let store_dir = temp_dir "speccc_shard_store" in
  Fun.protect
    ~finally:(fun () -> rm_rf store_dir)
    (fun () ->
       let extra shard =
         [ "--store";
           Filename.concat store_dir (Printf.sprintf "shard-%d.store" shard) ]
       in
       let run_pool () =
         let session = start_route ~shards:2 (worker_argv ~extra ()) in
         for i = 1 to n do
           session.send (check_request i texts.(i - 1))
         done;
         let responses = recv_by_id session n in
         session.send (Printf.sprintf "{\"id\":%d,\"cmd\":\"health\"}" (n + 1));
         let entries = shard_entries (parse_response (session.recv ())) in
         let stats = session.finish () in
         (responses, entries, stats)
       in
       let cold, _, cold_stats = run_pool () in
       Alcotest.(check int) "cold run served everything" n
         cold_stats.Shard.served;
       (* tear the tail off one populated store: the process-died-mid-
          append artifact the warm pool must recover from *)
       let torn =
         let candidates =
           List.filter
             (fun i ->
                let path =
                  Filename.concat store_dir (Printf.sprintf "shard-%d.store" i)
                in
                Sys.file_exists path && (Unix.stat path).Unix.st_size > 64)
             [ 0; 1 ]
         in
         match candidates with
         | i :: _ ->
           let path =
             Filename.concat store_dir (Printf.sprintf "shard-%d.store" i)
           in
           let size = (Unix.stat path).Unix.st_size in
           let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
           Unix.ftruncate fd (size - 5);
           Unix.close fd;
           i
         | [] -> Alcotest.fail "no store file was populated"
       in
       let warm, warm_entries, warm_stats = run_pool () in
       for i = 1 to n do
         let verdict json = Jsonl.str_member "verdict" json in
         Alcotest.(check (option string))
           (Printf.sprintf "id %d: warm answer identical to cold" i)
           (verdict (Hashtbl.find cold i))
           (verdict (Hashtbl.find warm i));
         Alcotest.(check (option string))
           (Printf.sprintf "id %d: same engine" i)
           (Jsonl.str_member "engine" (Hashtbl.find cold i))
           (Jsonl.str_member "engine" (Hashtbl.find warm i))
       done;
       Alcotest.(check int) "warm run served everything" n
         warm_stats.Shard.served;
       (* at most the one torn record was lost: >= n-1 of n repeats hit
          the store (the >=90% acceptance bar), and the tear was seen *)
       Alcotest.(check bool)
         (Printf.sprintf "store hits %d >= %d"
            (store_counter warm_entries "hits") (n - 1))
         true
         (store_counter warm_entries "hits" >= n - 1);
       Alcotest.(check bool)
         (Printf.sprintf "shard %d reported recovered bytes" torn)
         true
         (store_counter warm_entries "recovered_bytes" > 0))

let () =
  Alcotest.run "shard"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic and in range" `Quick
            test_ring_deterministic_and_in_range;
          Alcotest.test_case "spreads load" `Quick test_ring_spreads_load;
          Alcotest.test_case "failover covers all shards once" `Quick
            test_ring_failover_covers_all_shards_once;
          Alcotest.test_case "growth only moves keys to the new shard"
            `Quick test_ring_growth_is_stable;
        ] );
      ( "routing keys",
        [ Alcotest.test_case "doc, path, id, garbage" `Quick test_request_key ] );
      ( "crash drills",
        [
          Alcotest.test_case "routed pool matches the oracle" `Slow
            test_route_answers_and_matches_oracle;
          Alcotest.test_case "SIGKILL mid-request fails over and respawns"
            `Slow test_route_kill_mid_request_fails_over;
          Alcotest.test_case "warm restart serves from a torn store" `Slow
            test_route_warm_restart_serves_from_store;
        ] );
    ]
