(* Tests for the supervised service mode: the JSONL protocol, the
   circuit-breaker state machine, watchdog hard preemption with pool
   recovery, queue shedding with exactly-one-response, and a soak run
   under a seeded fault plan checked against a sequential oracle. *)

open Speccc_runtime
open Speccc_core
open Speccc_harness
open Speccc_server
module Jsonl = Speccc_json.Jsonl

let with_faults ?seed triggers f =
  Fault.install ?seed triggers;
  Fun.protect ~finally:Fault.clear f

(* ---------- jsonl ---------- *)

let test_jsonl_roundtrip () =
  let cases =
    [ "null"; "true"; "false"; "42"; "-1.5"; "\"hi\"";
      "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\ny\"}"; "[]"; "{}" ]
  in
  List.iter
    (fun text ->
       match Jsonl.parse text with
       | Error e -> Alcotest.fail (text ^ ": " ^ e)
       | Ok v ->
         (match Jsonl.parse (Jsonl.to_string v) with
          | Ok v' ->
            Alcotest.(check bool) ("roundtrip " ^ text) true (v = v')
          | Error e -> Alcotest.fail ("reparse " ^ text ^ ": " ^ e)))
    cases

let test_jsonl_rejects_garbage () =
  List.iter
    (fun text ->
       match Jsonl.parse text with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail (text ^ " must not parse"))
    [ ""; "{"; "[1,"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2";
      "{\"a\":1,}"; "\"\\u12g4\"";
      (* lone surrogates have no UTF-8 encoding *)
      "\"\\ud83d\""; "\"\\ude00\""; "\"\\ud83d\\u0041\""; "\"\\ud83dx\"";
      (* numbers outside RFC 8259's grammar *)
      "01"; "1."; "-.5"; "{\"fuel\":01}"; "-"; "1e"; "1e+"; "+1"; ".5";
      "-01"; "1.e5" ]

let test_jsonl_escapes () =
  List.iter
    (fun (text, decoded) ->
       match Jsonl.parse text with
       | Ok (Jsonl.Str s) -> Alcotest.(check string) text decoded s
       | Ok _ | Error _ -> Alcotest.fail (text ^ " must parse"))
    [ ("\"a\\\"b\\\\c\\n\\t\\u0041\"", "a\"b\\c\n\tA");
      (* what Python's json.dumps writes for U+1F600: one 4-byte UTF-8
         sequence, the same bytes as the raw spelling *)
      ("\"\\ud83d\\ude00\"", "\xF0\x9F\x98\x80") ]

let test_jsonl_accessors () =
  match Jsonl.parse "{\"id\":7,\"name\":\"x\",\"opts\":{\"fuel\":100}}" with
  | Error e -> Alcotest.fail e
  | Ok json ->
    Alcotest.(check (option int)) "int member" (Some 7)
      (Jsonl.int_member "id" json);
    Alcotest.(check (option string)) "str member" (Some "x")
      (Jsonl.str_member "name" json);
    Alcotest.(check (option int)) "nested" (Some 100)
      (Option.bind (Jsonl.member "opts" json) (Jsonl.int_member "fuel"));
    Alcotest.(check (option string)) "missing" None
      (Jsonl.str_member "absent" json)

(* Every value the codec can render reads back equal: strings of
   arbitrary bytes (quotes, backslashes, control characters, bytes
   >= 0x80), finite floats of any magnitude, nested arrays and
   objects. *)
let json_gen =
  let open QCheck2.Gen in
  let bytes = string_size ~gen:char (0 -- 12) in
  let finite =
    oneof
      [ float_range (-1e6) 1e6;
        map (fun f -> if Float.is_finite f then f else 0.) float;
        map float_of_int int ]
  in
  let leaf =
    oneof
      [ pure Jsonl.Null; map (fun b -> Jsonl.Bool b) bool;
        map (fun f -> Jsonl.Num f) finite; map (fun s -> Jsonl.Str s) bytes ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
      if n = 0 then leaf
      else
        oneof
          [ leaf;
            map (fun l -> Jsonl.Arr l) (list_size (0 -- 4) (self (n - 1)));
            map
              (fun l -> Jsonl.Obj l)
              (list_size (0 -- 4) (pair bytes (self (n - 1)))) ])

let prop_jsonl_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"parse (to_string v) = Ok v"
    ~print:Jsonl.to_string json_gen
    (fun v -> Jsonl.parse (Jsonl.to_string v) = Ok v)

let test_jsonl_numbers () =
  (* non-finite numbers have no JSON spelling: null, never nan/inf *)
  List.iter
    (fun f ->
       Alcotest.(check string) (string_of_float f) "null"
         (Jsonl.to_string (Jsonl.Num f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* the fewest digits that read back, never fewer *)
  List.iter
    (fun (f, text) ->
       Alcotest.(check string) text text (Jsonl.to_string (Jsonl.Num f));
       Alcotest.(check bool) (text ^ " reads back") true
         (Jsonl.parse text = Ok (Jsonl.Num f)))
    [ (123456.789, "123456.789"); (0.1 +. 0.2, "0.30000000000000004");
      (42., "42"); (-1.5, "-1.5"); (0.123, "0.123") ];
  (* every form of RFC 8259's number grammar, including what the
     printer writes past 1e15 *)
  List.iter
    (fun (text, f) ->
       Alcotest.(check bool) (text ^ " parses") true
         (Jsonl.parse text = Ok (Jsonl.Num f)))
    [ ("0", 0.); ("-0", -0.); ("0.5", 0.5); ("-0.5e1", -5.); ("1e5", 1e5);
      ("1E+5", 1e5); ("25e-1", 2.5); ("1e+30", 1e30);
      (Jsonl.to_string (Jsonl.Num 1e-7), 1e-7) ]

let test_jsonl_int_range () =
  let int_of f = Jsonl.int_ (Jsonl.Num f) in
  Alcotest.(check (option int)) "integral" (Some 7) (int_of 7.);
  Alcotest.(check (option int)) "negative" (Some (-3)) (int_of (-3.));
  Alcotest.(check (option int)) "min_int" (Some min_int)
    (int_of (Float.of_int min_int));
  Alcotest.(check (option int)) "fraction" None (int_of 2.5);
  Alcotest.(check (option int)) "past max_int" None (int_of 1e30);
  Alcotest.(check (option int)) "2^62" None (int_of (-.Float.of_int min_int));
  Alcotest.(check (option int)) "nan" None (int_of Float.nan)

(* ---------- breaker ---------- *)

let test_breaker_opens_after_consecutive_failures () =
  let b = Breaker.create ~rung:"symbolic" ~threshold:3 ~cooldown:10. in
  Alcotest.(check string) "starts closed" "closed" (Breaker.state_name b);
  Breaker.record_failure b ~now:0.;
  Breaker.record_failure b ~now:0.;
  (* a success resets the consecutive count *)
  Breaker.record_success b;
  Breaker.record_failure b ~now:1.;
  Breaker.record_failure b ~now:1.;
  Alcotest.(check string) "still closed at 2/3" "closed"
    (Breaker.state_name b);
  Breaker.record_failure b ~now:1.;
  Alcotest.(check string) "open at 3/3" "open" (Breaker.state_name b);
  Alcotest.(check bool) "skips while open" true (Breaker.should_skip b ~now:5.);
  Alcotest.(check int) "one open" 1 (Breaker.opens b)

let test_breaker_half_open_probe () =
  let b = Breaker.create ~rung:"explicit" ~threshold:1 ~cooldown:10. in
  Breaker.record_failure b ~now:0.;
  Alcotest.(check string) "open" "open" (Breaker.state_name b);
  (* cooldown passed: exactly one caller becomes the probe *)
  Alcotest.(check bool) "probe admitted" false
    (Breaker.should_skip b ~now:11.);
  Alcotest.(check string) "half-open" "half-open" (Breaker.state_name b);
  Alcotest.(check bool) "concurrent request still skips" true
    (Breaker.should_skip b ~now:11.);
  (* a failing probe re-opens for another cooldown *)
  Breaker.record_failure b ~now:11.;
  Alcotest.(check string) "re-opened" "open" (Breaker.state_name b);
  Alcotest.(check bool) "skipping again" true (Breaker.should_skip b ~now:12.);
  (* next probe succeeds and closes for good *)
  Alcotest.(check bool) "second probe" false
    (Breaker.should_skip b ~now:22.);
  Breaker.record_success b;
  Alcotest.(check string) "closed" "closed" (Breaker.state_name b);
  Alcotest.(check bool) "serving normally" false
    (Breaker.should_skip b ~now:23.)

let test_breaker_reset_clears_phantom_state () =
  (* The shard router resets a breaker when it respawns a worker: the
     replacement must start closed with a zero failure count, however
     its predecessor died. *)
  let b = Breaker.create ~rung:"symbolic" ~threshold:2 ~cooldown:60. in
  Breaker.record_failure b ~now:0.;
  Breaker.record_failure b ~now:0.;
  Alcotest.(check string) "open before reset" "open" (Breaker.state_name b);
  Alcotest.(check int) "failures at threshold" 2 (Breaker.failures b);
  Breaker.reset b;
  Alcotest.(check string) "closed after reset" "closed"
    (Breaker.state_name b);
  Alcotest.(check int) "failure count cleared" 0 (Breaker.failures b);
  Alcotest.(check bool) "serving immediately" false
    (Breaker.should_skip b ~now:1.);
  (* reset wipes phantom state, not history *)
  Alcotest.(check int) "opens history preserved" 1 (Breaker.opens b)

(* ---------- driving the server ---------- *)

let consistent_text = "If the start button is pressed, the pump is started."

let inconsistent_text =
  "If the pump is lost, the alarm is triggered.\n\
   If the pump is lost, the alarm is not triggered."

let garbage_text = "The frobnicator zorps quickly."

(* Feed [lines] to a server over a pipe (optionally with pauses to
   sequence the pool deterministically), collect the JSONL responses
   and the final stats. *)
let drive ?(pauses = []) config lines =
  let read_fd, write_fd = Unix.pipe () in
  let out_path = Filename.temp_file "speccc_serve" ".out" in
  let writer =
    Thread.create
      (fun () ->
         List.iteri
           (fun i line ->
              (match List.assoc_opt i pauses with
               | Some seconds -> Thread.delay seconds
               | None -> ());
              let data = Bytes.of_string (line ^ "\n") in
              ignore (Unix.write write_fd data 0 (Bytes.length data)))
           lines;
         Unix.close write_fd)
      ()
  in
  let output = open_out out_path in
  let stats =
    Fun.protect
      ~finally:(fun () ->
        close_out output;
        Unix.close read_fd)
      (fun () -> Server.run config ~input:read_fd ~output)
  in
  Thread.join writer;
  let ic = open_in out_path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file ->
      close_in ic;
      Sys.remove out_path;
      List.rev acc
  in
  (read [], stats)

let parse_response line =
  match Jsonl.parse line with
  | Ok json -> json
  | Error e -> Alcotest.fail ("unparsable response " ^ line ^ ": " ^ e)

let id_of json =
  match Jsonl.member "id" json with
  | Some v -> v
  | None -> Alcotest.fail "response without id"

let check_request n text =
  Jsonl.to_string
    (Jsonl.Obj [ ("id", Jsonl.Num (float_of_int n)); ("doc", Jsonl.Str text) ])

let quick_config () =
  { (Server.default_config ()) with
    Server.workers = 2;
    deadline = 10.;
    watchdog_poll = 0.005 }

(* ---------- protocol basics ---------- *)

let test_serve_basics () =
  let lines =
    [ check_request 1 consistent_text;
      check_request 2 inconsistent_text;
      check_request 3 garbage_text;
      "{\"id\":4,\"cmd\":\"health\"}";
      "{\"id\":5,\"nonsense\":true}";
      "this is not json";
      "{\"id\":6,\"cmd\":\"frobnicate\"}" ]
  in
  let responses, stats = drive (quick_config ()) lines in
  Alcotest.(check int) "one response per request" 7
    (List.length responses);
  let by_id =
    List.map
      (fun line ->
         let json = parse_response line in
         (Jsonl.to_string (id_of json), json))
      responses
  in
  let verdict_of id =
    match List.assoc_opt id by_id with
    | Some json -> Jsonl.str_member "verdict" json
    | None -> Alcotest.fail ("no response for id " ^ id)
  in
  Alcotest.(check (option string)) "1 consistent" (Some "consistent")
    (verdict_of "1");
  Alcotest.(check (option string)) "2 inconsistent" (Some "inconsistent")
    (verdict_of "2");
  Alcotest.(check (option string)) "3 failed" (Some "failed")
    (verdict_of "3");
  (match List.assoc_opt "4" by_id with
   | Some json ->
     (match Jsonl.member "health" json with
      | Some health ->
        Alcotest.(check bool) "health reports workers" true
          (Jsonl.int_member "workers" health = Some 2);
        Alcotest.(check bool) "health reports breakers" true
          (Jsonl.member "breakers" health <> None)
      | None -> Alcotest.fail "health response lacks health object")
   | None -> Alcotest.fail "no health response");
  let error_of id =
    match List.assoc_opt id by_id with
    | Some json -> Jsonl.str_member "error" json
    | None -> Alcotest.fail ("no response for id " ^ id)
  in
  Alcotest.(check (option string)) "5 bad request" (Some "bad_request")
    (error_of "5");
  Alcotest.(check (option string)) "6 unknown cmd" (Some "bad_request")
    (error_of "6");
  Alcotest.(check int) "3 checks served" 3 stats.Server.served;
  Alcotest.(check int) "2 bad requests (+1 unparsable)" 3
    stats.Server.bad_requests;
  Alcotest.(check int) "no restarts" 0 stats.Server.restarts;
  Alcotest.(check int) "no leaks" 0 stats.Server.leaked_workers

(* A fuel the harness could not honour (a fraction, or past OCaml's
   int range) is no fuel at all: serve falls back to its configured
   budget instead of truncating it to a floor 200x smaller.  TELE:1 is
   a document the 1 000-fuel floor cannot decide but the default
   budget decides in milliseconds.  A lone surrogate escape or a
   number outside JSON's grammar is a malformed request, not a mangled
   document or a fuel. *)
let test_serve_request_validation () =
  let module Telepromise = Speccc_casestudies.Telepromise in
  let text =
    String.concat "\n"
      (Telepromise.application_sentences (List.hd Telepromise.applications))
  in
  let request n fuel =
    Jsonl.to_string
      (Jsonl.Obj
         [ ("id", Jsonl.Num (float_of_int n)); ("doc", Jsonl.Str text);
           ("options", Jsonl.Obj [ ("fuel", Jsonl.Num fuel) ]) ])
  in
  let lines =
    [ request 1 1000.; request 2 1e30; request 3 2.5;
      "{\"id\":4,\"doc\":\"R1: the pump \\ud83d shall run.\"}";
      "{\"id\":5,\"doc\":\"The pump is started.\",\"options\":{\"fuel\":01}}" ]
  in
  let responses, _ = drive (quick_config ()) lines in
  let by_id =
    List.map
      (fun line ->
         let json = parse_response line in
         (Jsonl.to_string (id_of json), json))
      responses
  in
  let field id name =
    match List.assoc_opt id by_id with
    | Some json -> Jsonl.str_member name json
    | None -> Alcotest.fail ("no response for id " ^ id)
  in
  Alcotest.(check (option string)) "1 000 fuel cannot decide it"
    (Some "unknown") (field "1" "verdict");
  Alcotest.(check (option string)) "fuel 1e30 falls back to the default"
    (Some "consistent") (field "2" "verdict");
  Alcotest.(check (option string)) "fuel 2.5 falls back to the default"
    (Some "consistent") (field "3" "verdict");
  (* an unparsable request has no id to echo *)
  Alcotest.(check (option string)) "lone surrogate is a bad request"
    (Some "bad_request") (field "null" "error");
  (* a leading zero is outside JSON's number grammar *)
  Alcotest.(check int) "fuel 01 is a bad request too" 2
    (List.length
       (List.filter
          (fun (id, json) ->
             id = "null" && Jsonl.str_member "error" json = Some "bad_request")
          by_id))

let test_serve_shutdown_cmd () =
  let lines =
    [ check_request 1 consistent_text; "{\"id\":2,\"cmd\":\"shutdown\"}" ]
  in
  let responses, stats = drive (quick_config ()) lines in
  (* the check is answered (drain finishes in-flight work) and the
     shutdown is acknowledged *)
  Alcotest.(check int) "two responses" 2 (List.length responses);
  Alcotest.(check int) "check served" 1 stats.Server.served

(* ---------- watchdog preemption and pool recovery ---------- *)

let test_serve_watchdog_preempts_stall () =
  (* One worker, and the first request stalls 2s at the server.request
     checkpoint — non-cooperative: no budget poll ever runs.  The
     watchdog must answer it [unknown] within deadline + grace (well
     under 2x the deadline) and a replacement worker must pick up the
     second request long before the stall ends. *)
  let config =
    { (Server.default_config ()) with
      Server.workers = 1;
      deadline = 0.25;
      grace = 0.15;
      watchdog_poll = 0.005;
      drain_wait = 5. }
  in
  let started = Unix.gettimeofday () in
  let responses, stats =
    with_faults
      [ { Fault.checkpoint = Fault.Checkpoint.server_request; after = 0;
          action = Fault.Delay 2.0 } ]
      (fun () ->
         drive config
           [ check_request 1 consistent_text;
             check_request 2 consistent_text ])
  in
  let elapsed = Unix.gettimeofday () -. started in
  let by_id =
    List.map
      (fun line ->
         let json = parse_response line in
         (Jsonl.to_string (id_of json), json))
      responses
  in
  (match List.assoc_opt "1" by_id with
   | Some json ->
     Alcotest.(check (option string)) "stalled request is unknown"
       (Some "unknown") (Jsonl.str_member "verdict" json);
     Alcotest.(check (option string)) "answered by the watchdog"
       (Some "watchdog") (Jsonl.str_member "engine" json);
     (match Jsonl.str_member "detail" json with
      | Some detail ->
        Alcotest.(check bool) "typed watchdog degradation" true
          (String.length detail >= 8
           && String.sub detail 0 8 = "watchdog")
      | None -> Alcotest.fail "watchdog answer lacks detail")
   | None -> Alcotest.fail "no response for the stalled request");
  (match List.assoc_opt "2" by_id with
   | Some json ->
     Alcotest.(check (option string)) "pool recovered" (Some "consistent")
       (Jsonl.str_member "verdict" json)
   | None -> Alcotest.fail "no response for the follow-up request");
  Alcotest.(check int) "one escalation" 1 stats.Server.escalations;
  Alcotest.(check int) "one replacement worker" 1 stats.Server.restarts;
  Alcotest.(check int) "both answered" 2 stats.Server.served;
  (* drain waited out the 2s stall, so the zombie was reaped *)
  Alcotest.(check int) "no leak after drain" 0 stats.Server.leaked_workers;
  (* the whole run is bounded by the stall, not by request x stall *)
  Alcotest.(check bool)
    (Printf.sprintf "run bounded (%.2fs)" elapsed) true (elapsed < 8.)

(* ---------- overload shedding ---------- *)

let test_serve_sheds_past_high_water () =
  (* One worker wedged for 1s, a queue that sheds at depth 2: of eight
     requests, the in-flight one plus two queued are served, the other
     five get typed overloaded responses — and every id is answered
     exactly once. *)
  let config =
    { (Server.default_config ()) with
      Server.workers = 1;
      queue_capacity = 8;
      high_water = Some 2;
      deadline = 10.;
      drain_wait = 5. }
  in
  let lines = List.init 8 (fun i -> check_request (i + 1) consistent_text) in
  let responses, stats =
    with_faults
      [ { Fault.checkpoint = Fault.Checkpoint.server_request; after = 0;
          action = Fault.Delay 1.0 } ]
      (* pause after the first request so the lone worker has surely
         dequeued it (and wedged) before the flood arrives *)
      (fun () -> drive ~pauses:[ (1, 0.4) ] config lines)
  in
  Alcotest.(check int) "every request answered exactly once" 8
    (List.length responses);
  let ids =
    List.sort compare
      (List.map (fun l -> Jsonl.to_string (id_of (parse_response l))) responses)
  in
  Alcotest.(check (list string)) "ids 1..8, no dups"
    (List.sort compare (List.init 8 (fun i -> string_of_int (i + 1))))
    ids;
  let overloaded =
    List.filter
      (fun l ->
         Jsonl.str_member "error" (parse_response l) = Some "overloaded")
      responses
  in
  Alcotest.(check int) "five shed" 5 (List.length overloaded);
  List.iter
    (fun l ->
       let json = parse_response l in
       match Jsonl.int_member "queue_depth" json with
       | Some d ->
         Alcotest.(check bool) "shed at the high-water mark" true (d >= 2)
       | None -> Alcotest.fail "overloaded response lacks queue_depth")
    overloaded;
  Alcotest.(check int) "three served" 3 stats.Server.served;
  Alcotest.(check int) "stats count the shed" 5 stats.Server.shed;
  Alcotest.(check int) "no restarts needed" 0 stats.Server.restarts

(* ---------- circuit breakers end to end ---------- *)

let test_serve_breaker_opens_on_failing_rung () =
  (* Three consecutive symbolic-engine failures open the symbolic
     breaker; requests still get verdicts from the next rung, and the
     final stats report the breaker open. *)
  let config =
    { (quick_config ()) with
      Server.workers = 1;
      breaker_threshold = 3;
      breaker_cooldown = 60.;
      harness =
        { (Harness.default_config ()) with
          Harness.retries = 0;
          options =
            { (Pipeline.default_options ()) with
              Pipeline.fuel = Some 200_000 } } }
  in
  let fail_symbolic after =
    { Fault.checkpoint = Fault.Checkpoint.engine_symbolic; after;
      action = Fault.Fail "flaky rung" }
  in
  let lines = List.init 5 (fun i -> check_request (i + 1) consistent_text) in
  let responses, stats =
    with_faults
      [ fail_symbolic 0; fail_symbolic 1; fail_symbolic 2 ]
      (fun () -> drive config lines)
  in
  Alcotest.(check int) "all answered" 5 (List.length responses);
  List.iter
    (fun line ->
       let json = parse_response line in
       Alcotest.(check (option string))
         ("verdict for " ^ Jsonl.to_string (id_of json))
         (Some "consistent")
         (Jsonl.str_member "verdict" json))
    responses;
  Alcotest.(check (option string)) "symbolic breaker open"
    (Some "open")
    (List.assoc_opt "symbolic" stats.Server.breakers);
  Alcotest.(check (option string)) "explicit breaker closed"
    (Some "closed")
    (List.assoc_opt "explicit" stats.Server.breakers)

(* ---------- persistent verdict store ---------- *)

let test_serve_store_short_circuits_repeats () =
  (* With a store wired in, a repeated spec is answered from disk
     (attempts = 0, no engine fuel), the health report carries the
     store counters, and the verdict survives the server: a fresh
     handle finds it by content key. *)
  let store_path = Filename.temp_file "speccc_serve" ".store" in
  Sys.remove store_path;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists store_path then Sys.remove store_path)
    (fun () ->
       let store = Speccc_store.Store.open_ store_path in
       let config =
         { (quick_config ()) with Server.workers = 1; store = Some store }
       in
       let lines =
         [ check_request 1 inconsistent_text;
           check_request 2 inconsistent_text;
           "{\"id\":3,\"cmd\":\"health\"}" ]
       in
       let responses, stats = drive config lines in
       let by_id =
         List.map
           (fun line ->
              let json = parse_response line in
              (Jsonl.to_string (id_of json), json))
           responses
       in
       let field id f =
         match List.assoc_opt id by_id with
         | Some json -> f json
         | None -> Alcotest.fail ("no response for id " ^ id)
       in
       Alcotest.(check (option string)) "first check is fresh"
         (Some "inconsistent") (field "1" (Jsonl.str_member "verdict"));
       Alcotest.(check bool) "fresh check burned attempts" true
         (match field "1" (Jsonl.int_member "attempts") with
          | Some n -> n >= 1
          | None -> false);
       Alcotest.(check (option string)) "repeat answered identically"
         (Some "inconsistent") (field "2" (Jsonl.str_member "verdict"));
       Alcotest.(check (option int)) "repeat served from the store"
         (Some 0) (field "2" (Jsonl.int_member "attempts"));
       (* health is answered at intake, possibly before the checks
          complete, so assert the counters' presence here and their
          values on the handle after the drain below *)
       (match field "3" (Jsonl.member "health") with
        | Some health ->
          (match Jsonl.member "store" health with
           | Some store_health ->
             Alcotest.(check bool) "store counters reported" true
               (Jsonl.int_member "live" store_health <> None
                && Jsonl.int_member "hits" store_health <> None
                && Jsonl.int_member "recovered_bytes" store_health <> None)
           | None -> Alcotest.fail "health lacks store counters");
          (match
             Option.bind (Jsonl.member "breakers" health)
               (Jsonl.member "symbolic")
           with
           | Some breaker ->
             Alcotest.(check (option string))
               "breakers carry persisted state objects" (Some "closed")
               (Jsonl.str_member "state" breaker)
           | None -> Alcotest.fail "health lacks the symbolic breaker")
        | None -> Alcotest.fail "no health object");
       Alcotest.(check int) "both checks served" 2 stats.Server.served;
       (* the drain guarantees both checks finished: exactly one record
          was earned and the repeat hit it *)
       let store_stats = Speccc_store.Store.stats store in
       Alcotest.(check int) "one live record"
         1 store_stats.Speccc_store.Store.live;
       Alcotest.(check bool) "repeat hit the store" true
         (store_stats.Speccc_store.Store.hits >= 1);
       Speccc_store.Store.close store;
       (* durability: a fresh process-equivalent handle finds the
          verdict by content identity *)
       let reopened = Speccc_store.Store.open_ store_path in
       let salt =
         Speccc_store.Store.salt_of_options
           config.Server.harness.Harness.options
       in
       let key =
         Speccc_store.Store.key ~salt (Document.parse inconsistent_text)
       in
       (match Speccc_store.Store.find reopened key with
        | Some r ->
          Alcotest.(check bool) "stored verdict survives" true
            (r.Harness.verdict = Harness.Inconsistent)
        | None -> Alcotest.fail "verdict not found by content key");
       Speccc_store.Store.close reopened)

(* ---------- soak: N requests vs. a sequential oracle ---------- *)

let test_serve_soak_matches_oracle () =
  (* 200 requests over a 4-worker pool under a seeded Delay-only fault
     plan (timing perturbation without semantic effect): every request
     gets exactly one response, the pool neither restarts nor leaks
     workers, and every verdict matches a sequential oracle. *)
  let n = 200 in
  let texts = [| consistent_text; inconsistent_text; garbage_text |] in
  (* deterministic LCG so the request mix is reproducible *)
  let state = ref 12345 in
  let next_choice () =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state mod Array.length texts
  in
  let choices = Array.init n (fun _ -> next_choice ()) in
  let harness =
    { (Harness.default_config ()) with
      Harness.retries = 1;
      options =
        { (Pipeline.default_options ()) with Pipeline.fuel = Some 200_000 }
    }
  in
  let config =
    { (Server.default_config ()) with
      Server.harness;
      workers = 4;
      queue_capacity = 16;
      high_water = None;        (* backpressure only: nothing shed *)
      deadline = 30.;
      drain_wait = 10. }
  in
  let oracle =
    Array.map
      (fun choice ->
         let result =
           Harness.check_one harness
             (string_of_int choice)
             (Document.parse texts.(choice))
         in
         match result.Harness.verdict with
         | Harness.Consistent -> "consistent"
         | Harness.Inconsistent -> "inconsistent"
         | Harness.Unknown -> "unknown"
         | Harness.Failed _ -> "failed")
      (Array.init (Array.length texts) (fun i -> i))
  in
  let lines =
    List.init n (fun i -> check_request (i + 1) texts.(choices.(i)))
  in
  let (responses, stats), checkpoint_hits =
    with_faults ~seed:42
      [ { Fault.checkpoint = Fault.Checkpoint.server_request; after = 10;
          action = Fault.Delay 0.05 };
        { Fault.checkpoint = Fault.Checkpoint.server_request; after = 77;
          action = Fault.Delay 0.02 };
        { Fault.checkpoint = Fault.Checkpoint.server_request; after = -1;
          action = Fault.Delay 0.03 } ]
      (fun () ->
         let outcome = drive config lines in
         (outcome, Fault.hits Fault.Checkpoint.server_request))
  in
  Alcotest.(check int) "exactly one response per request" n
    (List.length responses);
  let seen = Hashtbl.create n in
  List.iter
    (fun line ->
       let json = parse_response line in
       let id =
         match Jsonl.int_member "id" json with
         | Some id -> id
         | None -> Alcotest.fail ("non-numeric id in " ^ line)
       in
       if Hashtbl.mem seen id then
         Alcotest.fail (Printf.sprintf "duplicate response for id %d" id);
       Hashtbl.add seen id ();
       let expected = oracle.(choices.(id - 1)) in
       Alcotest.(check (option string))
         (Printf.sprintf "verdict for id %d" id)
         (Some expected)
         (Jsonl.str_member "verdict" json))
    responses;
  Alcotest.(check int) "all ids answered" n (Hashtbl.length seen);
  Alcotest.(check int) "served = n" n stats.Server.served;
  Alcotest.(check int) "nothing shed" 0 stats.Server.shed;
  Alcotest.(check int) "no restarts" 0 stats.Server.restarts;
  Alcotest.(check int) "no leaked workers" 0 stats.Server.leaked_workers;
  Alcotest.(check int) "no escalations" 0 stats.Server.escalations;
  (* the Delay triggers really perturbed the pool *)
  Alcotest.(check int) "every request announced the drill checkpoint" n
    checkpoint_hits

let () =
  Alcotest.run "server"
    [
      ( "jsonl",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_jsonl_rejects_garbage;
          Alcotest.test_case "escapes" `Quick test_jsonl_escapes;
          Alcotest.test_case "accessors" `Quick test_jsonl_accessors;
          QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
          Alcotest.test_case "numbers read back" `Quick test_jsonl_numbers;
          Alcotest.test_case "int range" `Quick test_jsonl_int_range;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens after consecutive failures" `Quick
            test_breaker_opens_after_consecutive_failures;
          Alcotest.test_case "half-open probe" `Quick
            test_breaker_half_open_probe;
          Alcotest.test_case "reset clears phantom state" `Quick
            test_breaker_reset_clears_phantom_state;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "basics" `Quick test_serve_basics;
          Alcotest.test_case "shutdown drains" `Quick
            test_serve_shutdown_cmd;
          Alcotest.test_case "request validation" `Quick
            test_serve_request_validation;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "watchdog preempts a stall" `Quick
            test_serve_watchdog_preempts_stall;
          Alcotest.test_case "sheds past high water" `Quick
            test_serve_sheds_past_high_water;
          Alcotest.test_case "breaker opens on failing rung" `Quick
            test_serve_breaker_opens_on_failing_rung;
        ] );
      ( "store",
        [
          Alcotest.test_case "store short-circuits repeats" `Quick
            test_serve_store_short_circuits_repeats;
        ] );
      ( "soak",
        [
          Alcotest.test_case "200 requests vs sequential oracle" `Slow
            test_serve_soak_matches_oracle;
        ] );
    ]
