(* Cross-entry oracle: a document gets the same verdict, engine and
   witness whichever way it enters.  This slice covers Watch (cold,
   and warm from another document), the batch harness at one and at
   four jobs, and a warm replay from the verdict store, over the
   Table I documents, the example specifications and generated
   documents from a fixed seed.  The parse-cache cases check that
   every pipeline run, governed or not, parses through the one
   [nlp.parse] cache, and that the cache never changes a
   translation. *)

open Speccc_core
module Cache = Speccc_cache.Cache
module Translate = Speccc_translate.Translate
module Harness = Speccc_harness.Harness
module Store = Speccc_store.Store
module Jsonl = Speccc_json.Jsonl
module Table1 = Speccc_casestudies.Table1
module Gen = Speccc_diffcheck.Gen
module Prng = Speccc_diffcheck.Prng

let spec_dir = "../examples/specs"

let generated =
  let rng = Prng.make 42 in
  List.init 30 (fun k ->
      (Printf.sprintf "gen:%02d" k, Document.of_texts (Gen.doc rng)))

let documents =
  List.filter_map
    (fun row ->
       match row.Table1.source with
       | Table1.Sentences texts ->
         Some
           ( row.Table1.group ^ ":" ^ row.Table1.row_id,
             Document.of_texts texts )
       | Table1.Formulas _ -> None)
    Table1.rows
  @ List.map
      (fun name ->
         (name, Document.of_file (Filename.concat spec_dir name)))
      (List.sort compare
         (List.filter
            (fun name -> Filename.check_suffix name ".spec")
            (Array.to_list (Sys.readdir spec_dir))))
  @ generated

(* A check that raises (a sentence that does not parse) is part of
   what an entry point claims. *)
let fingerprint check =
  match check () with
  | checked -> Watch.fingerprint checked
  | exception e -> "raised " ^ Printexc.to_string e

(* The warm session first checks another generated document, then is
   moved to this one: the verdict cache misses, while the parse
   cache, the engine session and the localize memo are warm. *)
let test_watch_cold_equals_warm () =
  List.iteri
    (fun k (key, document) ->
       let other = snd (List.nth generated ((k + 1) mod List.length generated)) in
       let session = Watch.create other in
       ignore (fingerprint (fun () -> Watch.check session));
       Watch.set_document session document;
       let warm =
         fingerprint (fun () ->
             let checked = Watch.check session in
             Alcotest.(check bool) (key ^ ": verdict cache missed") false
               checked.Watch.reuse.Watch.verdict_cached;
             checked)
       in
       Alcotest.(check string) (key ^ ": warm = cold")
         (fingerprint (fun () -> Watch.check_cold document))
         warm)
    documents

let with_temp f =
  let path = Filename.temp_file "speccc_entry" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")

let without_wall line =
  match Jsonl.parse line with
  | Ok (Jsonl.Obj fields) ->
    Jsonl.to_string
      (Jsonl.Obj (List.filter (fun (name, _) -> name <> "wall") fields))
  | Ok _ | Error _ -> Alcotest.fail ("unparsable journal line " ^ line)

let journal ~jobs =
  with_temp (fun path ->
      let config =
        { (Harness.default_config ()) with
          Harness.journal = Some path; jobs; sleep = (fun s -> s) }
      in
      ignore (Harness.run config documents);
      List.map without_wall (read_lines path))

let test_journal_jobs_1_equals_4 () =
  let sequential = journal ~jobs:1 in
  Alcotest.(check int) "one line per document" (List.length documents)
    (List.length sequential);
  Alcotest.(check (list string)) "jobs 1 = jobs 4" sequential (journal ~jobs:4)

let test_store_replay () =
  with_temp (fun path ->
      let run () =
        let store = Store.open_ path in
        Fun.protect
          ~finally:(fun () -> Store.close store)
          (fun () ->
             (Harness.run
                (Store.wire_harness store (Harness.default_config ()))
                documents)
               .Harness.results)
      in
      let fresh = run () in
      let warm = run () in
      List.iter2
        (fun (f : Harness.doc_result) (w : Harness.doc_result) ->
           Alcotest.(check (pair string string)) (f.Harness.doc ^ ": replay")
             (Harness.verdict_tag f.Harness.verdict, f.Harness.engine)
             (Harness.verdict_tag w.Harness.verdict, w.Harness.engine);
           Alcotest.(check bool) (f.Harness.doc ^ ": from the store")
             (Store.cacheable f) (not w.Harness.fresh))
        fresh warm)

let parse_hits () =
  List.fold_left
    (fun acc s -> if s.Cache.name = "nlp.parse" then s.Cache.hits else acc)
    0 (Cache.stats ())

(* Every serve request is a governed run (fuel set).  A near-duplicate
   of a document checked before must reuse that document's parses. *)
let test_governed_run_reuses_parses () =
  let options =
    { (Pipeline.default_options ()) with Pipeline.fuel = Some 1_000_000 }
  in
  let document =
    Document.of_file (Filename.concat spec_dir "pump_control.spec")
  in
  let near_duplicate =
    List.mapi
      (fun i item ->
         if i = 0 then
           { item with
             Document.text =
               "If the start button is pressed, the pump is started." }
         else item)
      document
  in
  ignore (Pipeline.run_document ~options document);
  let before = parse_hits () in
  ignore (Pipeline.run_document ~options near_duplicate);
  Alcotest.(check bool) "every shared sentence hits" true
    (parse_hits () - before >= List.length document - 1)

let translate document =
  Translate.specification_recover (Translate.default_config ())
    (List.map (fun item -> (item.Document.line, item.Document.text)) document)

let render (result, kept, diagnostics) =
  List.map
    (fun r ->
       r.Translate.text ^ " => "
       ^ Speccc_logic.Ltl_print.to_string r.Translate.formula)
    result.Translate.requirements
  @ [ "kept " ^ String.concat "," (List.map string_of_int kept) ]
  @ List.map
      (fun (index, diag) ->
         Format.asprintf "%d: %a" index Speccc_nlp.Parser.pp_diagnostic diag)
      diagnostics

(* The second cached pass is answered from the cache; the uncached
   pass parses every sentence afresh and must count no hit. *)
let test_uncached_translation_equals_cached () =
  List.iter (fun (_, document) -> ignore (translate document)) documents;
  let before = parse_hits () in
  let cached = List.map (fun (_, document) -> translate document) documents in
  Alcotest.(check bool) "the cached pass hits" true (parse_hits () > before);
  let before = parse_hits () in
  let uncached =
    Fun.protect
      ~finally:(fun () -> Cache.set_enabled true)
      (fun () ->
         Cache.set_enabled false;
         List.map (fun (_, document) -> translate document) documents)
  in
  Alcotest.(check int) "no hit while disabled" before (parse_hits ());
  List.iter2
    (fun ((key, document), cached) uncached ->
       Alcotest.(check (list string)) (key ^ ": uncached = cached")
         (render cached) (render uncached);
       Alcotest.(check bool) (key ^ ": same trees and analyses") true
         (cached = uncached);
       let _, _, diagnostics = cached in
       if diagnostics = [] then begin
         let texts = Document.texts document in
         let (result, _, _) = cached in
         Alcotest.(check bool) (key ^ ": private cache = domain cache") true
           (Translate.specification ~parse_cache:(Translate.parse_cache ())
              (Translate.default_config ()) texts
            = result)
       end)
    (List.combine documents cached) uncached

let () =
  Alcotest.run "entry"
    [
      ( "cross-entry",
        [ Alcotest.test_case "watch: warm session = cold check" `Slow
            test_watch_cold_equals_warm;
          Alcotest.test_case "harness: journal at jobs 1 = jobs 4" `Slow
            test_journal_jobs_1_equals_4;
          Alcotest.test_case "store: warm replay = fresh run" `Slow
            test_store_replay ] );
      ( "parse cache",
        [ Alcotest.test_case "governed run reuses parses" `Quick
            test_governed_run_reuses_parses;
          Alcotest.test_case "uncached translation = cached" `Quick
            test_uncached_translation_equals_cached ] );
    ]
