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
  mutable last_assumptions : int list;
  mutable last_partition : Partition.t;
      (* the document's sorted formula ids, sorted assumption ids and
         partition at the last cached check — the invalidation
         baseline *)
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
    last_assumptions = [];
    last_partition = { Partition.inputs = []; outputs = [] };
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

(* A governed check runs with none of the session's caches: fuel
   charged against a budget must not depend on what the session solved
   before, and [Bounded] charges no fuel for a solo frontier it already
   holds.  Memory pressure counts as governed. *)
let governed (options : Pipeline.options) =
  options.fuel <> None || options.deadline <> None || options.cancel <> None
  || options.skip_engines <> [] || options.snapshot <> None
  || Speccc_runtime.Memwatch.level () <> Speccc_runtime.Memwatch.Normal

(* Explicit invalidation after an edit.  Edited-away formulas (their
   hash-cons ids no longer appear in the document) are dropped from
   the localize memo and the engine's block/frontier caches; that only
   bounds growth, since both stores are content-addressed.  A subset
   verdict also depends on the document's assumptions and on the class
   of each proposition ({!Refine.localize}), which the ids do not
   capture: an entry mentioning a formula with a proposition that
   changed class is dropped, and every entry goes when the assumptions
   changed or one of their propositions changed class. *)
let invalidate session (outcome : Pipeline.outcome) =
  let formulas = outcome.Pipeline.formulas in
  let sorted_ids fs = List.sort_uniq Int.compare (List.map Ltl.id fs) in
  let ids = sorted_ids formulas in
  let assumptions =
    List.filter_map
      (fun (item, f) -> if Document.is_assumption item then Some f else None)
      (List.combine outcome.Pipeline.document formulas)
  in
  let assumption_ids = sorted_ids assumptions in
  let partition = outcome.Pipeline.partition.Partition.partition in
  if ids = session.last_ids && assumption_ids = session.last_assumptions
     && partition = session.last_partition
  then 0
  else begin
    let class_of (p : Partition.t) prop =
      (List.mem prop p.Partition.inputs, List.mem prop p.Partition.outputs)
    in
    let moved f =
      List.exists
        (fun prop ->
           class_of session.last_partition prop <> class_of partition prop)
        (Ltl.props f)
    in
    let current = Hashtbl.create 64 in
    List.iter (fun f -> Hashtbl.replace current (Ltl.id f) f) formulas;
    let all_stale =
      assumption_ids <> session.last_assumptions
      || List.exists moved assumptions
    in
    let retain id =
      match Hashtbl.find_opt current id with
      | Some f -> not (all_stale || moved f)
      | None -> false
    in
    let dropped = Localize.prune_memo session.loc_memo ~retain in
    Bounded.prune_session session.engine ~retain:(Hashtbl.mem current);
    session.last_ids <- ids;
    session.last_assumptions <- assumption_ids;
    session.last_partition <- partition;
    session.invalidated_total <- session.invalidated_total + dropped;
    dropped
  end

let run session ~cached =
  let options = session.options in
  let parse_cache = if cached then Some session.parse else None in
  let explicit_session = if cached then Some session.engine else None in
  let memo = if cached then Some session.loc_memo else None in
  let parse_hits0 = cache_hits "nlp.parse" in
  let engine0 = Bounded.session_stats session.engine in
  let outcome =
    Pipeline.run_document ~options ?parse_cache ?explicit_session session.doc
  in
  let invalidated = if cached then invalidate session outcome else 0 in
  let localization =
    match outcome.Pipeline.report.Realizability.verdict with
    | Realizability.Inconsistent ->
      Refine.localize ?memo ?explicit_session options outcome
    | Realizability.Consistent | Realizability.Inconclusive _ -> None
  in
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
  let cached = not (governed session.options) in
  let key = doc_key session.doc in
  let outcome, localization, reuse =
    match
      if cached then Verdict_lru.find_opt session.verdicts key else None
    with
    | Some (outcome, localization) ->
      session.verdict_hits <- session.verdict_hits + 1;
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
      let (outcome, localization, _) as result = run session ~cached in
      if cached then
        Verdict_lru.add session.verdicts key (outcome, localization);
      result
  in
  (* localization indices count the checked items, which under
     [recover] are the document minus its dropped sentences *)
  let culprit_id, partner_ids =
    ids_of outcome.Pipeline.document localization
  in
  {
    outcome;
    localization;
    culprit_id;
    partner_ids;
    wall_s = Unix.gettimeofday () -. start;
    reuse;
    seq = session.seq;
  }

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
  (match report.Realizability.refuted_on with
   | None -> add "|refuted=-"
   | Some indices ->
     add ("|refuted=" ^ String.concat "," (List.map string_of_int indices)));
  (match checked.localization with
   | None -> add "|localize=-"
   | Some loc ->
     add
       (Printf.sprintf "|localize=%d<-[%s]~[%s]" loc.Localize.culprit
          (String.concat "," (List.map string_of_int loc.Localize.partners))
          (String.concat "," (List.map string_of_int loc.Localize.relevant))));
  Buffer.contents b
