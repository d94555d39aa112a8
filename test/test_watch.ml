(* Incremental re-checking (the watch session): whatever edit sequence
   led to the current document, the session's verdict — witnesses and
   localization included — must be bit-identical to a cold start on
   the same document.  [Watch.fingerprint] materializes everything a
   check claims (controllers transition-by-transition), so identity is
   plain string equality. *)

open Speccc_logic
open Speccc_core
open Speccc_synthesis

let explicit_options =
  { (Pipeline.default_options ()) with
    Pipeline.engine = Realizability.Explicit }

let doc_of items =
  List.mapi
    (fun line (id, text) -> { Document.id; text; line = line + 1 })
    items

let base_doc () =
  doc_of
    [
      ("R1", "If the start button is pressed, the pump is started.");
      ("R2", "If the pump is lost, the alarm is triggered.");
      ("R3", "When the pump is started, eventually the cuff is inflated.");
    ]

(* The oracle: a throwaway session over the same document — same code
   path, no inherited state. *)
let check_against_cold session =
  let live = Watch.check session in
  let cold = Watch.check_cold ~options:explicit_options
      (Watch.document session)
  in
  Alcotest.(check string) "incremental = cold"
    (Watch.fingerprint cold) (Watch.fingerprint live);
  live

let verdict_class (checked : Watch.checked) =
  match checked.Watch.outcome.Pipeline.report.Realizability.verdict with
  | Realizability.Consistent -> "consistent"
  | Realizability.Inconsistent -> "inconsistent"
  | Realizability.Inconclusive _ -> "inconclusive"

(* The full-pipeline reference: verdict class from
   [Pipeline.run_document], culprit from the stage-3 path the
   [localize] subcommand takes ({!Refine.localize}, no session
   caches). *)
let pipeline_reference doc =
  let outcome = Pipeline.run_document ~options:explicit_options doc in
  let culprit =
    match outcome.Pipeline.report.Realizability.verdict with
    | Realizability.Inconsistent ->
      Refine.localize explicit_options outcome
      |> Option.map (fun l ->
          Document.id_at outcome.Pipeline.document l.Localize.culprit)
    | _ -> None
  in
  let verdict =
    match outcome.Pipeline.report.Realizability.verdict with
    | Realizability.Consistent -> "consistent"
    | Realizability.Inconsistent -> "inconsistent"
    | Realizability.Inconclusive _ -> "inconclusive"
  in
  (verdict, culprit)

let ok = function
  | Ok () -> ()
  | Error message -> Alcotest.fail message

let test_scripted_edit_drill () =
  let session = Watch.create ~options:explicit_options (base_doc ()) in
  let initial = check_against_cold session in
  Alcotest.(check string) "starts consistent" "consistent"
    (verdict_class initial);
  (* grow the document *)
  ok (Watch.insert session ~id:"R4"
        ~text:"If the cuff is inflated, the valve is opened.");
  ignore (check_against_cold session);
  (* introduce a conflict: R5 contradicts R2 on the same trigger *)
  ok (Watch.insert session ~id:"R5"
        ~text:"If the pump is lost, the alarm is not triggered.");
  let broken = check_against_cold session in
  Alcotest.(check string) "conflict detected" "inconsistent"
    (verdict_class broken);
  let ref_verdict, ref_culprit = pipeline_reference (Watch.document session) in
  Alcotest.(check string) "pipeline agrees on the verdict" ref_verdict
    (verdict_class broken);
  Alcotest.(check (option string)) "pipeline agrees on the culprit"
    ref_culprit broken.Watch.culprit_id;
  Alcotest.(check (option string)) "culprit is the contradicting edit"
    (Some "R5") broken.Watch.culprit_id;
  Alcotest.(check (list string)) "partnered with its mirror" [ "R2" ]
    broken.Watch.partner_ids;
  (* repair by editing the culprit instead of deleting it *)
  ok (Watch.edit session ~id:"R5"
        ~text:"If the cuff is lost, the alarm is triggered.");
  let repaired = check_against_cold session in
  Alcotest.(check string) "repair restores consistency" "consistent"
    (verdict_class repaired);
  (* delete and re-check once more *)
  ok (Watch.delete session ~id:"R4");
  ignore (check_against_cold session);
  let counters = Watch.counters session in
  Alcotest.(check bool) "the session actually reused engine state" true
    (counters.Watch.engine.Bounded.reused_blocks > 0);
  Alcotest.(check bool) "edits invalidated stale state" true
    (counters.Watch.invalidated_total >= 0)

let test_edit_then_revert_is_noop () =
  let session = Watch.create ~options:explicit_options (base_doc ()) in
  let before = Watch.check session in
  ok (Watch.edit session ~id:"R2"
        ~text:"If the pump is lost, the alarm is not triggered.");
  ignore (Watch.check session);
  ok (Watch.edit session ~id:"R2"
        ~text:"If the pump is lost, the alarm is triggered.");
  let after = Watch.check session in
  Alcotest.(check string) "revert restores the verdict verbatim"
    (Watch.fingerprint before) (Watch.fingerprint after);
  Alcotest.(check bool) "and is answered from the verdict cache" true
    after.Watch.reuse.Watch.verdict_cached

let test_assumptions_take_the_stock_path () =
  (* An assumption-carrying document is checked as one implication, a
     single block; the session must answer identically to cold. *)
  let doc =
    Document.parse
      "Assume-1: The lock is inactive or the request is lost.\n\
       R1: If the lock is active, the grant is disabled.\n\
       R2: If the request is available, the grant is enabled.\n"
  in
  let session = Watch.create ~options:explicit_options doc in
  let live = check_against_cold session in
  Alcotest.(check string) "realizable under the assumption" "consistent"
    (verdict_class live);
  ok (Watch.edit session ~id:"R2"
        ~text:"If the request is lost, the grant is enabled.");
  ignore (check_against_cold session)

(* Subset verdicts are checked under the document's partition, so an
   edit that moves a proposition to the other class must invalidate
   the memo entries of unedited formulas that mention it.  Here the
   button starts as an input, which makes {R1, R2} inconsistent; the
   edit to R3 makes it an output, under which {R1, R2} is consistent
   and the culprit is R3. *)
let test_class_flip_invalidates_the_memo () =
  let session =
    Watch.create ~options:explicit_options
      (doc_of
         [
           ("R1", "If the button is pressed, the pump is started.");
           ("R2", "If the button is pressed, the pump is not started.");
           ("R3", "If the alarm is triggered, the valve is opened.");
         ])
  in
  let before = check_against_cold session in
  Alcotest.(check (option string)) "culprit before the edit" (Some "R2")
    before.Watch.culprit_id;
  ok (Watch.edit session ~id:"R3"
        ~text:"If the alarm is triggered, the button is pressed.");
  let after = check_against_cold session in
  Alcotest.(check bool) "the button became an output" true
    (List.mem "press_button"
       after.Watch.outcome.Pipeline.partition.Speccc_partition.Partition
         .partition.Speccc_partition.Partition.outputs);
  Alcotest.(check (option string)) "culprit after the edit" (Some "R3")
    after.Watch.culprit_id

(* Every subset is checked under the document's assumptions, so
   editing an assumption must invalidate every memo entry: under
   G !press_button, {R1, R2} is consistent and the conflict moves to
   R3/R4, although no formula of R1-R4 and no class changed. *)
let test_assumption_edit_invalidates_the_memo () =
  let session =
    Watch.create ~options:explicit_options
      (doc_of
         [
           ("Assume-1", "The lock is inactive.");
           ("R1", "If the button is pressed, the pump is started.");
           ("R2", "If the button is pressed, the pump is not started.");
           ("R3", "If the alarm is triggered, the valve is opened.");
           ("R4", "If the alarm is triggered, the valve is not opened.");
         ])
  in
  let before = check_against_cold session in
  Alcotest.(check (option string)) "culprit before the edit" (Some "R2")
    before.Watch.culprit_id;
  ok (Watch.edit session ~id:"Assume-1" ~text:"The button is not pressed.");
  let after = check_against_cold session in
  Alcotest.(check (option string)) "culprit after the edit" (Some "R4")
    after.Watch.culprit_id

let test_governed_sessions_fall_back () =
  let options = { explicit_options with Pipeline.fuel = Some 2_000_000 } in
  let session = Watch.create ~options (base_doc ()) in
  let live = Watch.check session in
  let cold = Watch.check_cold ~options (Watch.document session) in
  Alcotest.(check string) "governed watch = governed cold"
    (Watch.fingerprint cold) (Watch.fingerprint live);
  Alcotest.(check bool) "no engine reuse on a governed check" true
    (not live.Watch.reuse.Watch.verdict_cached
     && live.Watch.reuse.Watch.blocks_reused = 0)

(* Under [recover] the localization counts only the sentences that
   parsed, so its indices must be mapped through the survivors, not
   the whole document. *)
let test_recover_names_surviving_ids () =
  let options = { explicit_options with Pipeline.recover = true } in
  let doc =
    doc_of
      [
        ("R0", "The frobnicator zorps quickly.");
        ("R1", "If the pump is lost, the alarm is triggered.");
        ("R2", "If the pump is lost, the alarm is not triggered.");
      ]
  in
  let session = Watch.create ~options doc in
  let checked = Watch.check session in
  Alcotest.(check string) "conflict detected" "inconsistent"
    (verdict_class checked);
  Alcotest.(check (list string)) "R0 dropped" [ "R0" ]
    (List.map fst checked.Watch.outcome.Pipeline.diagnostics);
  Alcotest.(check (option string)) "culprit" (Some "R2")
    checked.Watch.culprit_id;
  Alcotest.(check (list string)) "partners" [ "R1" ] checked.Watch.partner_ids;
  (* a recovering session still reuses its caches *)
  ok (Watch.edit session ~id:"R0"
        ~text:"If the valve is opened, the cuff is inflated.");
  let edited = Watch.check session in
  Alcotest.(check string) "recovering watch = cold"
    (Watch.fingerprint (Watch.check_cold ~options (Watch.document session)))
    (Watch.fingerprint edited);
  Alcotest.(check bool) "parses reused" true
    (edited.Watch.reuse.Watch.parse_hits > 0);
  Alcotest.(check (option string)) "culprit after the edit" (Some "R2")
    edited.Watch.culprit_id

(* A certifying session takes the same cached path: after an edit the
   explicit engine reuses the unedited sentences' arena blocks, and
   the verdict and witness still equal a cold check's. *)
let test_certify_session_reuses_blocks () =
  let options = { explicit_options with Pipeline.certify = true } in
  let session = Watch.create ~options (base_doc ()) in
  ignore (Watch.check session);
  ok (Watch.edit session ~id:"R2"
        ~text:"If the pump is lost, the alarm is not triggered.");
  let live = Watch.check session in
  let cold = Watch.check_cold ~options (Watch.document session) in
  Alcotest.(check string) "certifying watch = cold"
    (Watch.fingerprint cold) (Watch.fingerprint live);
  Alcotest.(check bool) "arena blocks reused" true
    (live.Watch.reuse.Watch.blocks_reused > 0);
  Alcotest.(check bool) "certified" true
    (live.Watch.outcome.Pipeline.certificate <> None)

(* --- cross-entry witness identity --- *)

(* The 14-sentence live document of the edit-latency bench. *)
let live_document () =
  doc_of
    [
      ("R1", "If the button is pressed, the pump is started.");
      ("R2", "If the occlusion is present, the alarm is triggered.");
      ("R3", "If the pressure is high, the valve is opened.");
      ("R4", "If the signal is low, the monitor is enabled.");
      ("R5", "If the button is pressed, the monitor is enabled.");
      ("R6", "If the occlusion is present, the valve is opened.");
      ("R7", "If the pressure is high, the alarm is triggered.");
      ("R8", "If the signal is low, the pump is started.");
      ("R9", "If the button is pressed, the alarm is triggered.");
      ("R10", "If the occlusion is present, the pump is started.");
      ("R11", "If the pressure is high, the monitor is enabled.");
      ("R12", "If the signal is low, the valve is opened.");
      ("R13", "When the pump is started, eventually the cuff is inflated.");
      ("R14", "When the valve is opened, eventually the cuff is inflated.");
    ]

(* A document checked through the full pipeline and through a cold
   watch session must carry the same verdict, engine and witness: the
   fingerprint of the cold record is unchanged when its outcome is
   swapped for [Pipeline.run_document]'s.  Under the explicit engine,
   the Auto ladder, and the Auto ladder asked for certified witnesses. *)
let test_pipeline_equals_cold_watch () =
  let spec_dir = "../examples/specs" in
  let spec_docs =
    Sys.readdir spec_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".spec")
    |> List.sort compare
    |> List.map (fun f ->
        (f, Document.of_file (Filename.concat spec_dir f)))
  in
  Alcotest.(check bool) "example specs found" true (spec_docs <> []);
  List.iter
    (fun (label, options) ->
       List.iter
         (fun (name, doc) ->
            let cold = Watch.check_cold ~options doc in
            let piped =
              { cold with
                Watch.outcome = Pipeline.run_document ~options doc }
            in
            Alcotest.(check string)
              (Printf.sprintf "%s, %s: pipeline = cold watch" name label)
              (Watch.fingerprint cold) (Watch.fingerprint piped))
         (spec_docs @ [ ("live document", live_document ()) ]))
    [
      ("explicit", explicit_options);
      ("auto", Pipeline.default_options ());
      ("certify",
       { (Pipeline.default_options ()) with Pipeline.certify = true });
    ]

(* --- randomized drills --- *)

let sentence_pool =
  [|
    "If the pump is lost, the alarm is triggered.";
    "If the pump is lost, the alarm is not triggered.";
    "If the start button is pressed, the pump is started.";
    "When the pump is started, eventually the cuff is inflated.";
    "If the cuff is inflated, the valve is opened.";
    "If the valve is opened, the alarm is not triggered.";
  |]

type op =
  | Edit of int * int      (* position (mod size), sentence index *)
  | Insert of int * int
  | Delete of int

let op_gen =
  let open QCheck2.Gen in
  let sentence = int_bound (Array.length sentence_pool - 1) in
  oneof
    [
      map2 (fun p s -> Edit (p, s)) (int_bound 7) sentence;
      map2 (fun p s -> Insert (p, s)) (int_bound 7) sentence;
      map (fun p -> Delete p) (int_bound 7);
    ]

let apply_op session fresh op =
  let doc = Watch.document session in
  let size = List.length doc in
  match op with
  | Edit (p, s) ->
    ok
      (Watch.edit session
         ~id:(Document.id_at doc (p mod size))
         ~text:sentence_pool.(s))
  | Insert (p, s) ->
    incr fresh;
    ok
      (Watch.insert ~at:(p mod (size + 1)) session
         ~id:(Printf.sprintf "N%d" !fresh)
         ~text:sentence_pool.(s))
  | Delete p ->
    (* never empty the document *)
    if size > 1 then
      ok (Watch.delete session ~id:(Document.id_at doc (p mod size)))

let prop_random_edit_sequences =
  QCheck2.Test.make ~count:12 ~name:"watch: random edits = cold restart"
    QCheck2.Gen.(list_size (int_range 1 5) op_gen)
    (fun ops ->
       let session = Watch.create ~options:explicit_options (base_doc ()) in
       let fresh = ref 0 in
       ignore (Watch.check session);
       List.iter
         (fun op ->
            apply_op session fresh op;
            let live = Watch.check session in
            let cold =
              Watch.check_cold ~options:explicit_options
                (Watch.document session)
            in
            if Watch.fingerprint live <> Watch.fingerprint cold then
              QCheck2.Test.fail_reportf
                "divergence after %d ops:@.live: %s@.cold: %s"
                (List.length ops) (Watch.fingerprint live)
                (Watch.fingerprint cold))
         ops;
       true)

(* A block-decomposed [Bounded.solve] with a warm session must be
   bit-identical to a fresh run, and must agree with the stock one-block
   run on the whole conjunction whenever both are definite (both are
   exact then; only Unknown boundaries may differ between the
   union-automaton and conjunction-automaton games). *)
let formula_pool =
  [|
    "G (i1 -> o1)";
    "G (i1 -> !o1)";
    "G (i2 -> o2)";
    "G (i2 -> X o2)";
    "G (i1 -> F o2)";
    "F o1";
    "G !o2";
  |]

let materialize = function
  | Bounded.Realizable m ->
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Printf.sprintf "realizable %d/%d" m.Mealy.num_states m.Mealy.initial);
    let letters = 1 lsl List.length m.Mealy.inputs in
    for state = 0 to m.Mealy.num_states - 1 do
      for input = 0 to letters - 1 do
        let output, next = m.Mealy.step state input in
        Buffer.add_string b (Printf.sprintf ";%d.%d->%d.%d" state input output next)
      done
    done;
    Buffer.contents b
  | Bounded.Unrealizable cs ->
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Printf.sprintf "unrealizable %d/%d" cs.Bounded.cs_num_states
         cs.Bounded.cs_initial);
    let answers = 1 lsl List.length cs.Bounded.cs_outputs in
    for state = 0 to cs.Bounded.cs_num_states - 1 do
      Buffer.add_string b (Printf.sprintf ";%d!%d" state (cs.Bounded.cs_move state));
      for output = 0 to answers - 1 do
        Buffer.add_string b (Printf.sprintf ",%d" (cs.Bounded.cs_next state output))
      done
    done;
    Buffer.contents b
  | Bounded.Unknown bound -> Printf.sprintf "unknown %d" bound

let prop_solve_conj_warm_equals_fresh =
  let session = Bounded.create_session () in
  QCheck2.Test.make ~count:40
    ~name:"solve_conj: warm session = fresh session"
    QCheck2.Gen.(list_size (int_range 2 4)
                   (int_bound (Array.length formula_pool - 1)))
    (fun picks ->
       let formulas =
         List.map (fun i -> Ltl_parse.formula formula_pool.(i)) picks
       in
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let warm = Bounded.solve ~session ~inputs ~outputs formulas in
       let fresh = Bounded.solve ~inputs ~outputs formulas in
       if materialize warm <> materialize fresh then
         QCheck2.Test.fail_reportf "warm %s <> fresh %s" (materialize warm)
           (materialize fresh);
       let stock =
         Bounded.solve ~inputs ~outputs [ Ltl.conj_list formulas ]
       in
       (match (warm, stock) with
        | Bounded.Realizable _, Bounded.Unrealizable _
        | Bounded.Unrealizable _, Bounded.Realizable _ ->
          QCheck2.Test.fail_reportf
            "definite disagreement: decomposed %s vs stock %s"
            (materialize warm) (materialize stock)
        | _ -> ());
       true)

let () =
  Alcotest.run "watch"
    [
      ( "identity",
        [
          Alcotest.test_case "scripted edit drill" `Quick
            test_scripted_edit_drill;
          Alcotest.test_case "edit then revert is a no-op" `Quick
            test_edit_then_revert_is_noop;
          Alcotest.test_case "assumptions take the stock path" `Quick
            test_assumptions_take_the_stock_path;
          Alcotest.test_case "class flip invalidates the memo" `Quick
            test_class_flip_invalidates_the_memo;
          Alcotest.test_case "assumption edit invalidates the memo" `Quick
            test_assumption_edit_invalidates_the_memo;
          Alcotest.test_case "governed sessions fall back" `Quick
            test_governed_sessions_fall_back;
          Alcotest.test_case "pipeline = cold watch" `Quick
            test_pipeline_equals_cold_watch;
          Alcotest.test_case "recover names surviving ids" `Quick
            test_recover_names_surviving_ids;
          Alcotest.test_case "certify session reuses blocks" `Quick
            test_certify_session_reuses_blocks;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest prop_random_edit_sequences;
          QCheck_alcotest.to_alcotest prop_solve_conj_warm_equals_fresh;
        ] );
    ]
