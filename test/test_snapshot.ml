(* Tests for anytime verdicts: the snapshot's JSON conversion survives
   round-trips and rejects truncation, slots hand frontiers from one
   attempt to the next, a resumed explicit game matches a cold one
   (witness included) and a forged frontier cannot flip its verdict,
   the memory watermark collapses the Auto ladder with a typed
   degradation, and the store persists snapshots until a definite
   verdict supersedes them. *)

open Speccc_logic
open Speccc_core
open Speccc_synthesis
open Speccc_runtime
open Speccc_store

let parse = Ltl_parse.formula

(* ---------- JSON conversion ---------- *)

module Jsonl = Speccc_json.Jsonl

let engines = [ "explicit"; "symbolic" ]

(* names and values are arbitrary bytes: quotes, backslashes, control
   and non-ASCII bytes all go through the JSON string escaper *)
let field_string_gen = QCheck2.Gen.(string_size ~gen:char (0 -- 30))

let snapshot_gen =
  let open QCheck2.Gen in
  let* engine = oneofl engines in
  let* fields =
    list_size (0 -- 6) (pair field_string_gen field_string_gen)
  in
  (* distinct names, never the engine tag's own *)
  let fields =
    List.fold_left
      (fun acc (k, v) ->
         if k = "engine" || List.mem_assoc k acc then acc else (k, v) :: acc)
      [] fields
    |> List.rev
  in
  return (Snapshot.make ~engine fields)

let render snap = Jsonl.to_string (Snapshot.to_json snap)

let decode line =
  match Jsonl.parse line with
  | Ok json -> Snapshot.of_json json
  | Error _ -> None

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"snapshot codec round-trips"
    snapshot_gen (fun snap ->
        match decode (render snap) with
        | None -> false
        | Some back ->
          Snapshot.engine back = Snapshot.engine snap
          && Snapshot.fields back = Snapshot.fields snap)

let prop_codec_rejects_truncation =
  QCheck2.Test.make ~count:200 ~name:"truncated snapshot decodes to None"
    QCheck2.Gen.(pair snapshot_gen (0 -- 1000))
    (fun (snap, cut) ->
       let line = render snap in
       let cut = cut mod String.length line in
       (* a strict prefix of the object is never a whole object *)
       decode (String.sub line 0 cut) = None)

(* ---------- slots ---------- *)

let test_slot_semantics () =
  let slot = Snapshot.slot () in
  Alcotest.(check bool) "fresh slot is empty" true
    (Snapshot.latest slot = None);
  Alcotest.(check bool) "nothing to resume" true
    (Snapshot.resume_for slot ~engine:"explicit" = None);
  let s1 = Snapshot.make ~engine:"explicit" [ ("bound", "2") ] in
  let s2 = Snapshot.make ~engine:"explicit" [ ("bound", "4") ] in
  Snapshot.publish slot s1;
  Snapshot.publish slot s2;
  Alcotest.(check int) "publishes counted" 2 (Snapshot.published_count slot);
  (match Snapshot.latest slot with
   | Some s -> Alcotest.(check (option int)) "latest wins" (Some 4)
                 (Snapshot.int_field s "bound")
   | None -> Alcotest.fail "latest must be set");
  (* publishing alone never arms a resume: the supervisor decides *)
  Alcotest.(check bool) "resume not armed by publish" true
    (Snapshot.resume_for slot ~engine:"explicit" = None);
  Snapshot.rearm slot;
  Alcotest.(check bool) "engine mismatch yields None" true
    (Snapshot.resume_for slot ~engine:"symbolic" = None);
  (match Snapshot.resume_for slot ~engine:"explicit" with
   | Some s -> Alcotest.(check (option int)) "armed frontier" (Some 4)
                 (Snapshot.int_field s "bound")
   | None -> Alcotest.fail "resume must be armed after rearm");
  Alcotest.(check int) "resume counted once" 1 (Snapshot.resumed_count slot)

let test_budget_carries_slot () =
  let slot = Snapshot.slot () in
  let budget = Budget.create ~fuel:1000 ~snapshot:slot () in
  let child = Budget.child budget ~fuel:100 in
  Budget.publish child
    (Snapshot.make ~engine:"symbolic" [ ("lookahead", "12") ]);
  (match Snapshot.latest slot with
   | Some s ->
     Alcotest.(check string) "child publishes to parent slot" "symbolic"
       (Snapshot.engine s)
   | None -> Alcotest.fail "child publish must reach the slot");
  Snapshot.rearm slot;
  Alcotest.(check bool) "resume visible through the budget" true
    (Budget.resume_for child ~engine:"symbolic" <> None);
  (* a budget without a slot is inert on both sides *)
  let plain = Budget.unlimited () in
  Budget.publish plain (Snapshot.make ~engine:"symbolic" []);
  Alcotest.(check bool) "no slot, no resume" true
    (Budget.resume_for plain ~engine:"symbolic" = None)

(* ---------- explicit engine: preempt-then-resume drill ---------- *)

(* Three conjuncts whose joint system game needs several rounds from
   its solo seed, so a fuel budget can run out mid-fixpoint. *)
let resume_formulas =
  [ parse "G (i1 -> X o1)"; parse "G (o1 -> X o2)"; parse "G (i2 -> F o2)" ]

let resume_inputs = [ "i1"; "i2" ]
let resume_outputs = [ "o1"; "o2" ]

let solve_explicit ?budget ?max_bound () =
  Bounded.solve ?budget ?max_bound ~inputs:resume_inputs
    ~outputs:resume_outputs resume_formulas

(* Verdict class plus the materialized witness. *)
let materialize = function
  | Bounded.Realizable m ->
    let letters = 1 lsl List.length m.Mealy.inputs in
    "realizable"
    :: List.concat
         (List.init m.Mealy.num_states (fun state ->
              List.init letters (fun input ->
                  let output, next = m.Mealy.step state input in
                  Printf.sprintf "%d.%d->%d.%d" state input output next)))
    |> String.concat ";"
  | Bounded.Unrealizable cs ->
    Printf.sprintf "unrealizable %d" cs.Bounded.cs_num_states
  | Bounded.Unknown bound -> Printf.sprintf "unknown %d" bound

let verdict_class verdict =
  List.hd (String.split_on_char ';' (materialize verdict))

(* The smallest fuel at which the run is preempted with a system-game
   frontier in its slot. *)
let preempted_mid_gfp () =
  let rec scan fuel =
    if fuel > 100_000 then Alcotest.fail "no fuel preempts mid-fixpoint"
    else
      let slot = Snapshot.slot () in
      let budget = Budget.create ~fuel ~snapshot:slot () in
      match solve_explicit ~budget () with
      | _ -> Alcotest.fail "ran to completion before any frontier was published"
      | exception Runtime.Interrupt (Runtime.Fuel_exhausted _) ->
        (match Snapshot.latest slot with
         | Some snap
           when Snapshot.field snap "game" = Some "system"
                && Snapshot.field snap "frontier" <> None ->
           (slot, snap)
         | Some _ | None -> scan (fuel + 1))
  in
  scan 1

let resume_from ?max_bound snap =
  let slot = Snapshot.slot () in
  Snapshot.set_resume slot (Some snap);
  let verdict =
    solve_explicit ~budget:(Budget.create ~snapshot:slot ()) ?max_bound ()
  in
  Alcotest.(check bool) "the resume snapshot was read" true
    (Snapshot.resumed_count slot > 0);
  verdict

let test_explicit_resume_matches_cold () =
  let cold_budget = Budget.unlimited () in
  let cold = materialize (solve_explicit ~budget:cold_budget ()) in
  let slot, _ = preempted_mid_gfp () in
  (* the supervisor's retry path: re-arm the slot with what it holds *)
  Snapshot.rearm slot;
  let budget = Budget.create ~snapshot:slot () in
  let resumed = solve_explicit ~budget () in
  Alcotest.(check bool) "the rearmed frontier was read" true
    (Snapshot.resumed_count slot > 0);
  Alcotest.(check string) "resumed = cold, witness included" cold
    (materialize resumed);
  Alcotest.(check bool)
    (Printf.sprintf "resuming skips finished work (%d < %d fuel)"
       (Budget.spent budget) (Budget.spent cold_budget))
    true
    (Budget.spent budget < Budget.spent cold_budget)

(* Same bound, game and shape, contents the system cannot win from.
   [max_bound] is the snapshot's bound, so escalation cannot mask a
   forged loss: only the re-check from the trusted start can. *)
let test_explicit_forged_frontier () =
  let _, snap = preempted_mid_gfp () in
  let max_bound = Option.get (Snapshot.int_field snap "bound") in
  let cold = solve_explicit ~max_bound () in
  Alcotest.(check string) "decided at the preempted bound" "realizable"
    (verdict_class cold);
  let frontier =
    match
      Option.bind (Snapshot.field snap "frontier") Snapshot.counts_of_field
    with
    | Some frontier -> frontier
    | None -> Alcotest.fail "published frontier must decode"
  in
  let forged frontier =
    resume_from ~max_bound
      (Snapshot.with_field snap "frontier" (Snapshot.counts_to_field frontier))
  in
  Alcotest.(check string) "bottom: verdict and witness unchanged"
    (materialize cold)
    (materialize (forged (List.map (Array.map (fun _ -> -1)) frontier)));
  Alcotest.(check string) "lowered: verdict unchanged" "realizable"
    (verdict_class
       (forged
          (List.map (Array.map (fun c -> if c > -1 then c - 1 else c))
             frontier)))

(* ---------- memory watermark degradation ---------- *)

let test_hard_watermark_degrades_ladder () =
  Fun.protect
    ~finally:(fun () -> Memwatch.force None)
    (fun () ->
       Memwatch.force (Some Memwatch.Hard);
       let options =
         { (Pipeline.default_options ()) with
           Pipeline.engine = Realizability.Auto }
       in
       let _, report =
         Pipeline.check_formulas ~options [ parse "G (i -> o)" ]
       in
       (* the ladder still answers... *)
       Alcotest.(check bool) "still a definite verdict" true
         (report.Realizability.verdict = Realizability.Consistent);
       (* ...but every rung before the last was shed with a typed error *)
       let mem_rungs =
         List.filter
           (fun rung ->
              match rung.Realizability.rung_error with
              | Some (Runtime.Degraded ("memory", _)) -> true
              | _ -> false)
           (Realizability.canonical_degradation report)
       in
       Alcotest.(check bool) "memory degradation reported" true
         (mem_rungs <> []));
  (* with the override released the same check runs the full ladder *)
  let options =
    { (Pipeline.default_options ()) with
      Pipeline.engine = Realizability.Auto }
  in
  let _, report = Pipeline.check_formulas ~options [ parse "G (i -> o)" ] in
  let mem_rungs =
    List.filter
      (fun rung ->
         match rung.Realizability.rung_error with
         | Some (Runtime.Degraded ("memory", _)) -> true
         | _ -> false)
      (Realizability.canonical_degradation report)
  in
  Alcotest.(check bool) "no memory degradation at Normal" true
    (mem_rungs = [])

let test_memwatch_stats_shape () =
  let s = Memwatch.stats () in
  Alcotest.(check bool) "heap words positive" true (s.Memwatch.heap_words > 0);
  Alcotest.(check bool) "trip counters nonnegative" true
    (s.Memwatch.soft_trips >= 0 && s.Memwatch.hard_trips >= 0
     && s.Memwatch.sheds >= 0)

(* ---------- store persistence ---------- *)

let with_store_path f =
  let path = Filename.temp_file "speccc_snap" ".store" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let verdict_result doc =
  { Speccc_harness.Harness.doc;
    verdict = Speccc_harness.Harness.Consistent;
    engine = "symbolic"; attempts = 1; wall = 0.01; detail = "ok";
    fresh = true; degradation = []; progress = None }

let snap_testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (render s))
    (fun a b -> render a = render b)

let test_store_snapshot_roundtrip () =
  with_store_path (fun path ->
      let snap = Snapshot.make ~engine:"explicit" [ ("bound", "8") ] in
      let store = Store.open_ path in
      Alcotest.(check bool) "fresh store has no snapshot" true
        (Store.find_snapshot store "k" = None);
      Store.put_snapshot store ~key:"k" snap;
      Alcotest.(check (option snap_testable)) "snapshot stored" (Some snap)
        (Store.find_snapshot store "k");
      (* identical re-put is deduplicated: no append *)
      let appends = (Store.stats store).Store.appends in
      Store.put_snapshot store ~key:"k" snap;
      Alcotest.(check int) "identical re-put deduplicated" appends
        (Store.stats store).Store.appends;
      Store.close store;
      (* a reopening process warm-starts from the snapshot *)
      let store = Store.open_ path in
      Alcotest.(check (option snap_testable)) "snapshot survives reopen"
        (Some snap)
        (Store.find_snapshot store "k");
      Alcotest.(check int) "counted in stats" 1
        (Store.stats store).Store.snapshots;
      Store.close store)

let test_store_verdict_supersedes_snapshot () =
  with_store_path (fun path ->
      let snap = Snapshot.make ~engine:"symbolic" [ ("lookahead", "12") ] in
      let store = Store.open_ path in
      Store.put_snapshot store ~key:"k" snap;
      Store.put store ~key:"k" (verdict_result "k");
      Alcotest.(check bool) "verdict drops the snapshot" true
        (Store.find_snapshot store "k" = None);
      (* once the verdict is durable, new snapshots are pointless *)
      Store.put_snapshot store ~key:"k" snap;
      Alcotest.(check bool) "snapshot refused under a verdict" true
        (Store.find_snapshot store "k" = None);
      Store.close store;
      let store = Store.open_ path in
      Alcotest.(check bool) "supersession survives reopen" true
        (Store.find_snapshot store "k" = None
         && Store.find store "k" <> None);
      Store.close store)

let test_store_compaction_keeps_live_snapshots () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      let snap i =
        Snapshot.make ~engine:"explicit" [ ("bound", string_of_int i) ]
      in
      (* key "open" stays a snapshot; key "done" gets superseded *)
      for i = 1 to 5 do
        Store.put_snapshot store ~key:"open" (snap i)
      done;
      Store.put_snapshot store ~key:"done" (snap 1);
      Store.put store ~key:"done" (verdict_result "done");
      Store.compact store;
      Alcotest.(check (option snap_testable)) "live snapshot compacted in"
        (Some (snap 5))
        (Store.find_snapshot store "open");
      Alcotest.(check bool) "dead snapshot compacted out" true
        (Store.find_snapshot store "done" = None);
      Store.close store;
      let store = Store.open_ path in
      Alcotest.(check (option snap_testable)) "compaction durable"
        (Some (snap 5))
        (Store.find_snapshot store "open");
      Store.close store)

let test_store_corrupt_snapshot_skipped () =
  with_store_path (fun path ->
      let store = Store.open_ path in
      Store.put_snapshot store ~key:"k"
        (Snapshot.make ~engine:"explicit" [ ("bound", "4") ]);
      Store.close store;
      (* a flipped byte is the frame CRC's job (test_store); here the
         frame is sound and only the snapshot body is garbage *)
      let harness_line = "SNAP this-is-not-a-snapshot" in
      let payload = "k2\n" ^ harness_line in
      let frame =
        let b = Buffer.create 64 in
        let u32 v =
          Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
          Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
          Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
          Buffer.add_char b (Char.chr (v land 0xff))
        in
        u32 (String.length payload);
        u32 (Int32.to_int (Store.crc32 payload) land 0xffffffff);
        Buffer.add_string b payload;
        Buffer.contents b
      in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc frame;
      close_out oc;
      let store = Store.open_ path in
      (* the undecodable snapshot body is skipped, not fatal; the good
         one is still served *)
      Alcotest.(check bool) "good snapshot still live" true
        (Store.find_snapshot store "k" <> None);
      Alcotest.(check bool) "corrupt snapshot cold-starts" true
        (Store.find_snapshot store "k2" = None);
      Store.close store)

(* ---------- journal progress rendering ---------- *)

let test_journal_progress_object () =
  let module Harness = Speccc_harness.Harness in
  let snap = Snapshot.make ~engine:"explicit" [ ("bound", "8") ] in
  let partial =
    { (verdict_result "doc-1") with
      Harness.verdict = Harness.Unknown;
      progress = Some snap }
  in
  let line = Harness.journal_line partial in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "progress object rendered" true
    (contains "\"progress\":{\"engine\":\"explicit\",\"bound\":\"8\"}" line);
  (match Harness.journal_parse_line line with
   | Some parsed ->
     Alcotest.(check bool) "replay drops progress" true
       (parsed.Harness.progress = None)
   | None -> Alcotest.fail "partial-verdict line must parse");
  (* definite verdicts never carry the object *)
  let definite = Harness.journal_line (verdict_result "doc-2") in
  Alcotest.(check bool) "no progress on definite verdicts" false
    (contains "\"progress\"" definite)

(* ---------- antichain frontier fields ---------- *)

let counts_gen =
  let open QCheck2.Gen in
  list_size (0 -- 5)
    (array_size (1 -- 6) (int_range (-1) 9))

let prop_antichain_field_roundtrip =
  QCheck2.Test.make ~count:300
    ~name:"antichain frontiers round-trip through the snapshot codec"
    counts_gen
    (fun antichain ->
       let raw = Snapshot.counts_to_field antichain in
       (* field-level inverse *)
       (match Snapshot.counts_of_field raw with
        | Some decoded ->
          List.length decoded = List.length antichain
          && List.for_all2 (fun a b -> a = b) decoded antichain
        | None -> false)
       &&
       (* and through the JSON conversion, next to ordinary fields *)
       let snap =
         Snapshot.make ~engine:"explicit"
           [ ("bound", "3"); ("game", "system"); ("frontier", raw) ]
       in
       match decode (render snap) with
       | None -> false
       | Some back -> Snapshot.field back "frontier" = Some raw)

let test_antichain_field_rejects_malformed () =
  Alcotest.(check bool) "empty decodes to []" true
    (Snapshot.counts_of_field "" = Some []);
  Alcotest.(check bool) "non-numeric cell rejected" true
    (Snapshot.counts_of_field "1,x:2" = None);
  Alcotest.(check bool) "empty cell rejected" true
    (Snapshot.counts_of_field "1,,2" = None)

let () =
  Alcotest.run "snapshot"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_rejects_truncation;
          QCheck_alcotest.to_alcotest prop_antichain_field_roundtrip;
          Alcotest.test_case "malformed frontier rejected" `Quick
            test_antichain_field_rejects_malformed;
        ] );
      ( "slot",
        [
          Alcotest.test_case "publish/rearm/resume" `Quick
            test_slot_semantics;
          Alcotest.test_case "budget plumbing" `Quick
            test_budget_carries_slot;
        ] );
      ( "resume-drill",
        [
          Alcotest.test_case "explicit resume = cold run" `Quick
            test_explicit_resume_matches_cold;
          Alcotest.test_case "forged explicit frontier cannot flip the verdict"
            `Quick test_explicit_forged_frontier;
        ] );
      ( "memwatch",
        [
          Alcotest.test_case "hard watermark degrades the ladder" `Quick
            test_hard_watermark_degrades_ladder;
          Alcotest.test_case "stats shape" `Quick test_memwatch_stats_shape;
        ] );
      ( "store",
        [
          Alcotest.test_case "snapshot round-trip" `Quick
            test_store_snapshot_roundtrip;
          Alcotest.test_case "verdict supersedes" `Quick
            test_store_verdict_supersedes_snapshot;
          Alcotest.test_case "compaction keeps live snapshots" `Quick
            test_store_compaction_keeps_live_snapshots;
          Alcotest.test_case "corrupt snapshot record skipped" `Quick
            test_store_corrupt_snapshot_skipped;
        ] );
      ( "journal",
        [
          Alcotest.test_case "progress object" `Quick
            test_journal_progress_object;
        ] );
    ]
