(* Cross-entry oracle: a document gets the same verdict, engine and
   witness whichever way it enters.  This slice covers Watch (cold,
   and warm from another document), the batch harness at one and at
   four jobs, and a warm replay from the verdict store, over the
   Table I documents, the example specifications and generated
   documents from a fixed seed. *)

open Speccc_core
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
    ]
