open Speccc_logic
open Speccc_translate
open Speccc_partition
open Speccc_synthesis

module Verdict_lru = Speccc_cache.Cache.Make (Speccc_cache.Cache.String_key)

type reuse = {
  verdict_cached : bool;
  parse_hits : int;
  blocks_reused : int;
  solo_reused : int;
  invalidated : int;
}

type checked = {
  outcome : Pipeline.outcome;
  localization : Localize.result option;
  culprit_id : string option;
  partner_ids : string list;
  wall_s : float;
  reuse : reuse;
  seq : int;
}

type counters = {
  checks : int;
  verdict_hits : int;
  engine : Bounded.session_stats;
  localize_entries : int;
  invalidated_total : int;
}

type session = {
  options : Pipeline.options;
  mutable doc : Document.t;
  parse : Translate.parse_cache;
  engine : Bounded.session;
  loc_memo : Localize.memo;
  verdicts : (Pipeline.outcome * Localize.result option) Verdict_lru.t;
  mutable last_ids : int list;
      (* sorted hash-cons ids of the document's formulas at the last
         incremental check — the invalidation baseline *)
  mutable seq : int;
  mutable checks : int;
  mutable verdict_hits : int;
  mutable invalidated_total : int;
}

let create ?options doc =
  let options =
    match options with Some o -> o | None -> Pipeline.default_options ()
  in
  {
    options;
    doc;
    parse = Translate.parse_cache ();
    engine = Bounded.create_session ();
    loc_memo = Localize.memo ();
    verdicts =
      Verdict_lru.create ~name:"watch.verdict"
        ~capacity:
          (Speccc_cache.Cache.capacity ~name:"watch.verdict" ~default:128)
        ();
    last_ids = [];
    seq = 0;
    checks = 0;
    verdict_hits = 0;
    invalidated_total = 0;
  }

let document session = session.doc
let set_document session doc = session.doc <- doc

let renumber doc =
  List.mapi (fun i item -> { item with Document.line = i + 1 }) doc

let mem_id doc id = List.exists (fun item -> item.Document.id = id) doc

let edit session ~id ~text =
  if mem_id session.doc id then begin
    session.doc <-
      List.map
        (fun item ->
           if item.Document.id = id then { item with Document.text } else item)
        session.doc;
    Ok ()
  end
  else Error (Printf.sprintf "no requirement %S in the document" id)

let insert ?at session ~id ~text =
  if mem_id session.doc id then
    Error (Printf.sprintf "requirement %S already exists" id)
  else begin
    let n = List.length session.doc in
    let at = match at with None -> n | Some i -> max 0 (min i n) in
    let before = List.filteri (fun i _ -> i < at) session.doc in
    let after = List.filteri (fun i _ -> i >= at) session.doc in
    session.doc <-
      renumber (before @ ({ Document.id; text; line = 0 } :: after));
    Ok ()
  end

let delete session ~id =
  if mem_id session.doc id then begin
    session.doc <-
      renumber (List.filter (fun item -> item.Document.id <> id) session.doc);
    Ok ()
  end
  else Error (Printf.sprintf "no requirement %S in the document" id)

(* Content key of the current document: ids, texts and (through the
   ids) the assumption/guarantee split.  Options are fixed per
   session, so they need no salt here. *)
let doc_key doc =
  String.concat "\x1e"
    (List.map
       (fun item -> item.Document.id ^ "\x1f" ^ item.Document.text)
       doc)

let cache_hits name =
  match
    List.find_opt
      (fun s -> s.Speccc_cache.Cache.name = name)
      (Speccc_cache.Cache.stats ())
  with
  | Some s -> s.Speccc_cache.Cache.hits
  | None -> 0

let ids_of doc checked =
  match checked with
  | None -> (None, [])
  | Some loc ->
    ( Some (Document.id_at doc loc.Localize.culprit),
      List.map (Document.id_at doc) loc.Localize.partners )

(* Localization mirrors [Pipeline.check_formulas]: re-derive the
   partition for each subset, then an unlimited-budget ladder check —
   here routed through the session's engine state so subset verdicts
   decided before an unrelated edit are reused. *)
let check_subset session subset =
  let analysis = Partition.of_requirements subset in
  let report =
    Realizability.check ~engine:session.options.Pipeline.engine
      ~lookahead:session.options.Pipeline.lookahead
      ~bound:session.options.Pipeline.bound ~explicit_session:session.engine
      ~inputs:analysis.Partition.partition.Partition.inputs
      ~outputs:analysis.Partition.partition.Partition.outputs subset
  in
  report.Realizability.verdict = Realizability.Consistent

let localize_of session outcome =
  match outcome.Pipeline.report.Realizability.verdict with
  | Realizability.Inconsistent ->
    Localize.run ~memo:session.loc_memo
      ~check:(check_subset session)
      outcome.Pipeline.formulas
  | Realizability.Consistent | Realizability.Inconclusive _ -> None

(* Governed, recovering or certifying sessions fall back to the full
   pipeline per check: fuel charged against a budget must not depend
   on what the session cached before, and the pipeline owns snapshot
   slots, certification and dropped-sentence bookkeeping that the
   incremental path does not replicate.  Still a watch session — just
   without engine reuse. *)
let governed (options : Pipeline.options) =
  options.fuel <> None || options.deadline <> None || options.cancel <> None
  || options.skip_engines <> [] || options.snapshot <> None
  || Speccc_runtime.Memwatch.level () <> Speccc_runtime.Memwatch.Normal

let fallback session =
  let outcome = Pipeline.run_document ~options:session.options session.doc in
  (* subset checks never read a witness *)
  let subset_options = { session.options with Pipeline.certify = false } in
  let localization =
    match outcome.Pipeline.report.Realizability.verdict with
    | Realizability.Inconsistent ->
      Localize.run
        ~check:(fun subset ->
          let _, report =
            Pipeline.check_formulas ~options:subset_options subset
          in
          report.Realizability.verdict = Realizability.Consistent)
        outcome.Pipeline.formulas
    | _ -> None
  in
  ( outcome,
    localization,
    {
      verdict_cached = false;
      parse_hits = 0;
      blocks_reused = 0;
      solo_reused = 0;
      invalidated = 0;
    } )

let incremental session =
  let options = session.options in
  let parse_hits0 = cache_hits "nlp.parse" in
  let engine0 = Bounded.session_stats session.engine in
  let translation, translation_s =
    Speccc_runtime.Runtime.timed (fun () ->
        Translate.specification ~parse_cache:session.parse
          options.Pipeline.translate
          (Document.texts session.doc))
  in
  let raw_formulas =
    List.map
      (fun r -> r.Translate.formula)
      translation.Translate.requirements
  in
  let (formulas, time_solution), abstraction_s =
    Speccc_runtime.Runtime.timed (fun () ->
        Pipeline.abstract_times options raw_formulas)
  in
  (* Explicit invalidation: edited-away formulas (their hash-cons ids
     no longer appear in the document) are dropped from the localize
     memo and the engine's block/frontier caches.  Correctness never
     depends on this — both stores are content-addressed — it bounds
     their growth over a long session. *)
  let ids = List.sort_uniq Int.compare (List.map Ltl.id formulas) in
  let invalidated =
    if ids = session.last_ids then 0
    else begin
      let retain id = List.mem id ids in
      let dropped = Localize.prune_memo session.loc_memo ~retain in
      Bounded.prune_session session.engine ~retain;
      session.last_ids <- ids;
      dropped
    end
  in
  session.invalidated_total <- session.invalidated_total + invalidated;
  let tagged = List.combine session.doc formulas in
  let assumptions =
    List.filter_map
      (fun (item, formula) ->
         if Document.is_assumption item then Some formula else None)
      tagged
  in
  let guarantees =
    List.filter_map
      (fun (item, formula) ->
         if Document.is_assumption item then None else Some formula)
      tagged
  in
  (* Same partition construction as [Pipeline.run_document]: the
     shape heuristic over the guarantees, assumption-only propositions
     adopted as inputs. *)
  let partition, partition_s =
    Speccc_runtime.Runtime.timed (fun () ->
        let analysis = Partition.of_requirements guarantees in
        let known =
          analysis.Partition.partition.Partition.inputs
          @ analysis.Partition.partition.Partition.outputs
        in
        let extra =
          List.concat_map Ltl.props assumptions
          |> List.sort_uniq compare
          |> List.filter (fun p -> not (List.mem p known))
        in
        {
          analysis with
          Partition.partition =
            {
              analysis.Partition.partition with
              Partition.inputs =
                List.sort compare
                  (analysis.Partition.partition.Partition.inputs @ extra);
            };
        })
  in
  let report, synthesis_s =
    Speccc_runtime.Runtime.timed (fun () ->
        Realizability.check ~engine:options.Pipeline.engine
          ~lookahead:options.Pipeline.lookahead
          ~bound:options.Pipeline.bound ~assumptions
          ~explicit_session:session.engine
          ~inputs:partition.Partition.partition.Partition.inputs
          ~outputs:partition.Partition.partition.Partition.outputs guarantees)
  in
  let outcome =
    {
      Pipeline.requirements = translation.Translate.requirements;
      formulas;
      time_solution;
      partition;
      report;
      times = { translation_s; abstraction_s; partition_s; synthesis_s };
      diagnostics = [];
      certificate = None;
    }
  in
  let localization = localize_of session outcome in
  let engine1 = Bounded.session_stats session.engine in
  ( outcome,
    localization,
    {
      verdict_cached = false;
      parse_hits = cache_hits "nlp.parse" - parse_hits0;
      blocks_reused =
        engine1.Bounded.reused_blocks - engine0.Bounded.reused_blocks;
      solo_reused = engine1.Bounded.reused_solo - engine0.Bounded.reused_solo;
      invalidated;
    } )

let check session =
  let start = Unix.gettimeofday () in
  session.seq <- session.seq + 1;
  session.checks <- session.checks + 1;
  let finish (outcome, localization, reuse) =
    let culprit_id, partner_ids = ids_of session.doc localization in
    {
      outcome;
      localization;
      culprit_id;
      partner_ids;
      wall_s = Unix.gettimeofday () -. start;
      reuse;
      seq = session.seq;
    }
  in
  if
    governed session.options
    || session.options.Pipeline.recover
    || session.options.Pipeline.certify
  then finish (fallback session)
  else
    let key = doc_key session.doc in
    match Verdict_lru.find_opt session.verdicts key with
    | Some (outcome, localization) ->
      session.verdict_hits <- session.verdict_hits + 1;
      finish
        ( outcome,
          localization,
          {
            verdict_cached = true;
            parse_hits = 0;
            blocks_reused = 0;
            solo_reused = 0;
            invalidated = 0;
          } )
    | None ->
      let (outcome, localization, reuse) = incremental session in
      Verdict_lru.add session.verdicts key (outcome, localization);
      finish (outcome, localization, reuse)

let check_cold ?options doc = check (create ?options doc)

let counters session =
  {
    checks = session.checks;
    verdict_hits = session.verdict_hits;
    engine = Bounded.session_stats session.engine;
    localize_entries = Localize.memo_length session.loc_memo;
    invalidated_total = session.invalidated_total;
  }

(* A canonical rendering of everything a verdict claims — verdict
   class, engine, witnesses (controllers and counterstrategies are
   materialized transition-by-transition, since they carry closures)
   and the localization — so tests can assert bit-identity between an
   incremental check and a cold one with plain string equality. *)
let fingerprint checked =
  let b = Buffer.create 256 in
  let add = Buffer.add_string b in
  let report = checked.outcome.Pipeline.report in
  (match report.Realizability.verdict with
   | Realizability.Consistent -> add "consistent"
   | Realizability.Inconsistent -> add "inconsistent"
   | Realizability.Inconclusive why -> add ("inconclusive:" ^ why));
  add ("|engine=" ^ report.Realizability.engine_used);
  (match report.Realizability.controller with
   | None -> add "|controller=-"
   | Some m ->
     add
       (Printf.sprintf "|controller=%d/%d[%s;%s]" m.Mealy.num_states
          m.Mealy.initial
          (String.concat "," m.Mealy.inputs)
          (String.concat "," m.Mealy.outputs));
     let letters = 1 lsl List.length m.Mealy.inputs in
     for state = 0 to m.Mealy.num_states - 1 do
       for input = 0 to letters - 1 do
         let output, next = m.Mealy.step state input in
         add (Printf.sprintf ";%d.%d->%d.%d" state input output next)
       done
     done);
  (match report.Realizability.counterstrategy with
   | None -> add "|cs=-"
   | Some cs ->
     add
       (Printf.sprintf "|cs=%d/%d" cs.Bounded.cs_num_states
          cs.Bounded.cs_initial);
     let answers = 1 lsl List.length cs.Bounded.cs_outputs in
     for state = 0 to cs.Bounded.cs_num_states - 1 do
       add (Printf.sprintf ";%d!%d" state (cs.Bounded.cs_move state));
       for output = 0 to answers - 1 do
         add (Printf.sprintf ",%d" (cs.Bounded.cs_next state output))
       done
     done);
  (match report.Realizability.unsat_core with
   | None -> add "|core=-"
   | Some core ->
     add ("|core=" ^ String.concat "," (List.map string_of_int core)));
  (match checked.localization with
   | None -> add "|localize=-"
   | Some loc ->
     add
       (Printf.sprintf "|localize=%d<-[%s]~[%s]" loc.Localize.culprit
          (String.concat "," (List.map string_of_int loc.Localize.partners))
          (String.concat "," (List.map string_of_int loc.Localize.relevant))));
  Buffer.contents b
