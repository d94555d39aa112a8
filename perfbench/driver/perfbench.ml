(* Benchmark driver: runs one workload's operations through the SpecCC
   libraries and prints one JSON line per operation, plus a closing
   summary line.  The Python runner (perfbench/run.py) generates the
   inputs, knows the right answers, starts and times the processes and
   turns these lines into metrics.

     perfbench.exe doc SOURCE [--trace FILE | --serve-only]
     perfbench.exe edit SCRIPT --seconds S --cycle C --min-ops M
                   [--setups K] [--trace FILE]
     perfbench.exe serve-replay REQUESTS --store PATH --deadline D
                   [--trace FILE] [--divergence-ids ID,...]
     perfbench.exe probe

   Without [--trace] an operation goes through the public entry point a
   user reaches ([Pipeline.run_document], [Watch.check]).  With it, the
   same operation is replayed as the composition of each layer's public
   functions, with one span recorded around every call; spans stay in
   memory and are written to FILE when the run ends. *)

open Speccc_logic
open Speccc_core
open Speccc_partition
open Speccc_synthesis
module Translate = Speccc_translate.Translate
module Cache = Speccc_cache.Cache
module Harness = Speccc_harness.Harness
module Store = Speccc_store.Store
module Jsonl = Speccc_server.Jsonl
module Bdd = Speccc_bdd.Bdd
module Robot = Speccc_casestudies.Robot
module Snapshot = Speccc_runtime.Snapshot
module Cancellation = Speccc_runtime.Cancellation

let now = Unix.gettimeofday
let ms seconds = seconds *. 1000.

(* ---------- JSON output ---------- *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let num f = Printf.sprintf "%.9g" f
let int = string_of_int
let bool = string_of_bool
let strings l = "[" ^ String.concat "," (List.map quote l) ^ "]"
let opt_str = function Some s -> quote s | None -> "null"

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ v) fields)
  ^ "}"

let emit fields = print_endline (obj fields)

(* ---------- spans ---------- *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start : float;
  stop : float;
}

let tracing = ref false
let spans = ref []
let next_span = ref 0
let current_span = ref (-1)
let current_op = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = !current_span in
    current_span := id;
    let start = now () in
    let finish () =
      spans :=
        { id; name; op = !current_op; parent; start; stop = now () } :: !spans;
      current_span := parent
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* Per span name: (self ms, inclusive ms, count).  Self time is the
   span's duration minus the part its child spans cover. *)
let layer_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace children s.parent
           (s.stop -. s.start
            +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    !spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
       let dur = s.stop -. s.start in
       let self =
         dur -. Option.value (Hashtbl.find_opt children s.id) ~default:0.
       in
       let s0, t0, n0 =
         Option.value (Hashtbl.find_opt totals s.name) ~default:(0., 0., 0)
       in
       Hashtbl.replace totals s.name (s0 +. self, t0 +. dur, n0 + 1))
    !spans;
  Hashtbl.fold
    (fun name (self, total, n) acc ->
       (name, obj [ ("self_ms", num (ms self)); ("total_ms", num (ms total));
                    ("n", int n) ])
       :: acc)
    totals []
  |> List.sort compare |> obj

let write_trace path =
  let oc = open_out path in
  List.iter
    (fun s ->
       output_string oc
         (obj [ ("id", int s.id); ("name", quote s.name); ("op", int s.op);
                ("parent", int s.parent); ("start", num s.start);
                ("end", num s.stop) ]);
       output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ---------- public counters ---------- *)

let cache_names = [ "nlp.parse"; "nbw.of_ltl"; "nbw.template"; "logic.nnf" ]

let counters () =
  let stats = Cache.stats () in
  let cache name =
    match List.find_opt (fun s -> s.Cache.name = name) stats with
    | Some s -> [ (name ^ ".hits", s.Cache.hits); (name ^ ".misses", s.Cache.misses) ]
    | None -> [ (name ^ ".hits", 0); (name ^ ".misses", 0) ]
  in
  let bdd = Bdd.counters () in
  List.concat_map cache cache_names
  @ [ ("hashcons_nodes", (Ltl.hashcons_stats ()).Ltl.nodes);
      ("bdd.nodes", bdd.Bdd.nodes); ("bdd.op_hits", bdd.Bdd.op_hits);
      ("bdd.op_misses", bdd.Bdd.op_misses); ("bdd.reorders", bdd.Bdd.reorders) ]

let counters_delta before =
  obj
    (List.map
       (fun (k, v) -> (k, int (v - List.assoc k before)))
       (counters ()))

(* ---------- verdicts ---------- *)

let verdict_name = function
  | Realizability.Consistent -> "consistent"
  | Realizability.Inconsistent -> "inconsistent"
  | Realizability.Inconclusive _ -> "unknown"

let harness_verdict_name = function
  | Harness.Consistent -> "consistent"
  | Harness.Inconsistent -> "inconsistent"
  | Harness.Unknown -> "unknown"
  | Harness.Failed _ -> "failed"

(* Synthesis calls by engine, and abandoned ladder rungs. *)
let explicit_n = ref 0
let symbolic_n = ref 0
let degraded_n = ref 0

let count_report (report : Realizability.report) =
  (match report.Realizability.engine_used with
   | "explicit" -> incr explicit_n
   | "symbolic" -> incr symbolic_n
   | _ -> ());
  degraded_n := !degraded_n + List.length report.Realizability.degradation

let synth_counts () =
  obj [ ("explicit", int !explicit_n); ("symbolic", int !symbolic_n);
        ("degraded", int !degraded_n) ]

(* The options the serve mode wraps around every request
   (server.ml's worker loop): a cancellation token, the request
   deadline and an anytime slot, so the check is governed. *)
let serve_harness ~deadline =
  let options =
    { (Pipeline.default_options ()) with
      Pipeline.cancel = Some (Cancellation.create ());
      deadline = Some deadline;
      snapshot = Some (Snapshot.slot ()) }
  in
  { (Harness.default_config ()) with Harness.options }

let serve_path ~deadline document =
  let result = Harness.check_one (serve_harness ~deadline) "doc" document in
  (harness_verdict_name result.Harness.verdict, result.Harness.engine)

let check_path document =
  let outcome = Pipeline.run_document document in
  let report = outcome.Pipeline.report in
  (verdict_name report.Realizability.verdict, report.Realizability.engine_used)

(* ---------- check: one document, one process ---------- *)

type source = {
  formulas : unit -> Ltl.t list * Partition.t * (int -> string);
      (** traced replay of the front end: formulas, partition, ids *)
  run : Pipeline.options -> Ltl.t list * Partition.t * Realizability.report
          * (int -> string);
      (** the untraced entry point *)
}

let robot_source name =
  match String.split_on_char 'x' name with
  | [ r; k ] ->
    let scenario =
      Robot.scenario ~robots:(int_of_string r) ~rooms:(int_of_string k)
    in
    let partition =
      { Partition.inputs = scenario.Robot.inputs;
        outputs = scenario.Robot.outputs }
    in
    let ids = Document.id_at [] in
    {
      formulas = (fun () -> (scenario.Robot.formulas, partition, ids));
      run =
        (fun options ->
           let _, report =
             Pipeline.check_formulas ~options ~partition scenario.Robot.formulas
           in
           (scenario.Robot.formulas, partition, report, ids));
    }
  | _ -> failwith ("bad robot spec " ^ name)

(* Pipeline.run_document's partition for a document without
   assumptions: the shape heuristic, inputs sorted. *)
let document_partition formulas =
  let analysis = Partition.of_requirements formulas in
  { analysis.Partition.partition with
    Partition.inputs = List.sort compare analysis.Partition.partition.Partition.inputs }

let file_source path =
  let document = Document.of_file path in
  let options = Pipeline.default_options () in
  {
    formulas =
      (fun () ->
         let translation =
           span "translate" (fun () ->
               Translate.specification options.Pipeline.translate
                 (Document.texts document))
         in
         let raw =
           List.map (fun r -> r.Translate.formula) translation.Translate.requirements
         in
         let formulas, _ =
           span "timeabs" (fun () -> Pipeline.abstract_times options raw)
         in
         let partition = span "partition" (fun () -> document_partition formulas) in
         (formulas, partition, Document.id_at document));
    run =
      (fun options ->
         let outcome = Pipeline.run_document ~options document in
         ( outcome.Pipeline.formulas,
           outcome.Pipeline.partition.Partition.partition,
           outcome.Pipeline.report,
           Document.id_at document ));
  }

let localize_checks = ref 0

let synthesize ?explicit_session options (partition : Partition.t) formulas =
  let report =
    span "synthesis" (fun () ->
        Realizability.check ~engine:options.Pipeline.engine
          ~lookahead:options.Pipeline.lookahead ~bound:options.Pipeline.bound
          ?explicit_session ~inputs:partition.Partition.inputs
          ~outputs:partition.Partition.outputs formulas)
  in
  count_report report;
  report

(* Localize's [~check]: Pipeline.check_formulas without a partition,
   which re-derives it per subset. *)
let subset_consistent ?explicit_session options subset =
  incr localize_checks;
  let partition =
    span "partition" (fun () -> (Partition.of_requirements subset).Partition.partition)
  in
  (synthesize ?explicit_session options partition subset).Realizability.verdict
  = Realizability.Consistent

(* Refine.suggest's composition: Localize.run, then the partition
   adjustment focused on the located requirements. *)
let traced_refine options ~partition formulas =
  let localization =
    span "localize" (fun () ->
        Localize.run ~check:(subset_consistent options) formulas)
  in
  let adjustment =
    match localization with
    | None -> None
    | Some loc ->
      let focus =
        List.concat_map
          (fun i -> Ltl.props (List.nth formulas i))
          (loc.Localize.culprit :: loc.Localize.partners)
      in
      span "refine" (fun () ->
          Refine.adjust_partition ~partition ~focus ~check:(fun p ->
              (synthesize options p formulas).Realizability.verdict
              = Realizability.Consistent))
  in
  (localization, adjustment)

let untraced_refine options ~partition formulas =
  let consistent (_, report) =
    report.Realizability.verdict = Realizability.Consistent
  in
  let suggestion =
    Refine.suggest ~partition formulas
      ~check_subset:(fun subset ->
          consistent (Pipeline.check_formulas ~options subset))
      ~check_partition:(fun p ->
          consistent (Pipeline.check_formulas ~options ~partition:p formulas))
  in
  (suggestion.Refine.localization, suggestion.Refine.adjustment)

(* The check-vs-serve engine record: the same document through the
   serve mode's governed request path. *)
let serve_only_cmd path =
  let verdict, engine = serve_path ~deadline:60. (Document.of_file path) in
  emit [ ("serve", obj [ ("verdict", quote verdict); ("engine", quote engine) ]) ]

let doc_cmd source ~trace =
  let options = Pipeline.default_options () in
  let src =
    match String.index_opt source ':' with
    | Some i when String.sub source 0 i = "robot" ->
      robot_source (String.sub source (i + 1) (String.length source - i - 1))
    | _ -> file_source source
  in
  let before = counters () in
  tracing := trace <> None;
  let started = now () in
  let formulas, partition, report, ids =
    if !tracing then
      let formulas, partition, ids = src.formulas () in
      (formulas, partition, synthesize options partition formulas, ids)
    else src.run options
  in
  let checked = now () in
  let localization, adjustment =
    match report.Realizability.verdict with
    | Realizability.Consistent -> (None, None)
    | Realizability.Inconsistent | Realizability.Inconclusive _ ->
      if !tracing then traced_refine options ~partition formulas
      else untraced_refine options ~partition formulas
  in
  let finished = now () in
  tracing := false;
  let culprit, partners =
    match localization with
    | Some loc ->
      (Some (ids loc.Localize.culprit), List.map ids loc.Localize.partners)
    | None -> (None, [])
  in
  let moved_out, moved_in =
    match adjustment with
    | Some a -> (a.Refine.moved_to_output, a.Refine.moved_to_input)
    | None -> ([], [])
  in
  let traced =
    match trace with
    | None -> []
    | Some path ->
      write_trace path;
      [ ("layers", layer_times ()); ("counters", counters_delta before);
        ("synth", synth_counts ());
        ("localize_checks", int !localize_checks) ]
  in
  emit
    ([ ("verdict", quote (verdict_name report.Realizability.verdict));
       ("engine", quote report.Realizability.engine_used);
       ("check_ms", num (ms (checked -. started)));
       ("wall_ms", num (ms (finished -. started)));
       ("culprit", opt_str culprit); ("partners", strings partners);
       ("moved_to_output", strings moved_out);
       ("moved_to_input", strings moved_in) ]
     @ traced)

(* ---------- edit: one watch session ---------- *)

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  loop []

let tab_fields line =
  match String.split_on_char '\t' line with
  | [ kind; id; text ] -> (kind, id, text)
  | _ -> failwith ("bad script line: " ^ line)

(* Watch.check's composition, replayed with a held parse cache,
   explicit-engine session and localization memo, plus the
   whole-document verdict table that answers reverts. *)
type replay = {
  parse : Translate.parse_cache;
  engine : Bounded.session;
  memo : Localize.memo;
  verdicts : (string, Realizability.verdict * string * Localize.result option) Hashtbl.t;
  mutable last_ids : int list;
  mutable verdict_hits : int;
}

let doc_key doc =
  String.concat "\x1e"
    (List.map (fun item -> item.Document.id ^ "\x1f" ^ item.Document.text) doc)

let replay_check replay options doc =
  let key = doc_key doc in
  match Hashtbl.find_opt replay.verdicts key with
  | Some (verdict, engine, loc) ->
    replay.verdict_hits <- replay.verdict_hits + 1;
    (verdict, engine, loc, true)
  | None ->
    let translation =
      span "translate" (fun () ->
          Translate.specification ~parse_cache:replay.parse
            options.Pipeline.translate (Document.texts doc))
    in
    let raw =
      List.map (fun r -> r.Translate.formula) translation.Translate.requirements
    in
    let formulas, _ =
      span "timeabs" (fun () -> Pipeline.abstract_times options raw)
    in
    let ids = List.sort_uniq Int.compare (List.map Ltl.id formulas) in
    if ids <> replay.last_ids then begin
      let retain id = List.mem id ids in
      ignore (Localize.prune_memo replay.memo ~retain);
      Bounded.prune_session replay.engine ~retain;
      replay.last_ids <- ids
    end;
    let explicit_session = replay.engine in
    let partition = span "partition" (fun () -> document_partition formulas) in
    let report = synthesize ~explicit_session options partition formulas in
    let loc =
      match report.Realizability.verdict with
      | Realizability.Inconsistent ->
        span "localize" (fun () ->
            Localize.run ~memo:replay.memo formulas
              ~check:(subset_consistent ~explicit_session options))
      | Realizability.Consistent | Realizability.Inconclusive _ -> None
    in
    let verdict = report.Realizability.verdict in
    let engine = report.Realizability.engine_used in
    Hashtbl.replace replay.verdicts key (verdict, engine, loc);
    (verdict, engine, loc, false)

let edit_cmd script ~seconds ~cycle ~min_ops ~setups ~trace =
  let lines = List.map tab_fields (read_lines script) in
  let pick kind =
    List.filter_map
      (fun (k, id, text) -> if k = kind then Some (id, text) else None)
      lines
  in
  let initial =
    List.mapi
      (fun i (id, text) -> { Document.id; text; line = i + 1 })
      (pick "doc")
  in
  let ops = Array.of_list (pick "edit") in
  let options = Pipeline.default_options () in
  let traced = trace <> None in
  (* Set-up is repeated [setups] times; the last session runs the
     script. *)
  let setup_ms = ref [] in
  let last = ref None in
  for _ = 1 to setups do
    let started = now () in
    (if traced then begin
       let replay =
         { parse = Translate.parse_cache (); engine = Bounded.create_session ();
           memo = Localize.memo (); verdicts = Hashtbl.create 256;
           last_ids = []; verdict_hits = 0 }
       in
       ignore (replay_check replay options initial);
       last := Some (`Replay replay)
     end
     else begin
       let session = Watch.create ~options initial in
       ignore (Watch.check session);
       last := Some (`Watch session)
     end);
    setup_ms := ms (now () -. started) :: !setup_ms
  done;
  let state = match !last with Some s -> s | None -> failwith "--setups < 1" in
  let doc = ref initial in
  let rows = ref [] in
  let before = counters () in
  let engine_stats () =
    match state with
    | `Replay r -> Bounded.session_stats r.engine
    | `Watch s -> (Watch.counters s).Watch.engine
  in
  tracing := traced;
  let started = now () in
  let rec loop i =
    if i >= Array.length ops
    || (i mod cycle = 0 && i >= min_ops && now () -. started >= seconds)
    then i
    else begin
      current_op := i;
      let id, text = ops.(i) in
      let t0 = now () in
      let row =
        match state with
        | `Watch session ->
          (match Watch.edit session ~id ~text with
           | Ok () -> ()
           | Error message -> failwith message);
          let c = Watch.check session in
          let wall = now () -. t0 in
          doc := Watch.document session;
          let report = c.Watch.outcome.Pipeline.report in
          [ ("verdict", quote (verdict_name report.Realizability.verdict));
            ("engine", quote report.Realizability.engine_used);
            ("wall_ms", num (ms wall));
            ("culprit", opt_str c.Watch.culprit_id);
            ("partners", strings c.Watch.partner_ids);
            ("verdict_cached", bool c.Watch.reuse.Watch.verdict_cached);
            ("parse_hits", int c.Watch.reuse.Watch.parse_hits);
            ("blocks_reused", int c.Watch.reuse.Watch.blocks_reused);
            ("solo_reused", int c.Watch.reuse.Watch.solo_reused) ]
        | `Replay replay ->
          let parse0 = List.assoc "nlp.parse.hits" (counters ()) in
          let engine0 = Bounded.session_stats replay.engine in
          let verdict, engine, loc, cached =
            span "watch" (fun () ->
                doc :=
                  List.map
                    (fun item ->
                       if item.Document.id = id then { item with Document.text }
                       else item)
                    !doc;
                replay_check replay options !doc)
          in
          let wall = now () -. t0 in
          let engine1 = Bounded.session_stats replay.engine in
          let culprit, partners =
            match loc with
            | Some l ->
              ( Some (Document.id_at !doc l.Localize.culprit),
                List.map (Document.id_at !doc) l.Localize.partners )
            | None -> (None, [])
          in
          [ ("verdict", quote (verdict_name verdict)); ("engine", quote engine);
            ("wall_ms", num (ms wall)); ("culprit", opt_str culprit);
            ("partners", strings partners); ("verdict_cached", bool cached);
            ("parse_hits",
             int (List.assoc "nlp.parse.hits" (counters ()) - parse0));
            ("blocks_reused",
             int (engine1.Bounded.reused_blocks - engine0.Bounded.reused_blocks));
            ("solo_reused",
             int (engine1.Bounded.reused_solo - engine0.Bounded.reused_solo)) ]
      in
      rows := (("op", int i) :: row) :: !rows;
      loop (i + 1)
    end
  in
  let done_ops = loop 0 in
  let elapsed = now () -. started in
  tracing := false;
  List.iter emit (List.rev !rows);
  let stats = engine_stats () in
  let verdict_hits =
    match state with
    | `Replay r -> r.verdict_hits
    | `Watch s -> (Watch.counters s).Watch.verdict_hits
  in
  let extra =
    match trace with
    | None -> []
    | Some path ->
      write_trace path;
      (* check-vs-serve record on the initial document, after the
         timed loop so it cannot warm it *)
      let divergence =
        let cv, ce = check_path initial in
        let sv, se = serve_path ~deadline:60. initial in
        [ obj [ ("doc", quote "initial"); ("check_verdict", quote cv);
                ("check_engine", quote ce); ("serve_verdict", quote sv);
                ("serve_engine", quote se) ] ]
      in
      [ ("layers", layer_times ()); ("counters", counters_delta before);
        ("synth", synth_counts ()); ("localize_checks", int !localize_checks);
        ("divergence", "[" ^ String.concat "," divergence ^ "]") ]
  in
  emit
    ([ ("summary", "true"); ("ops", int done_ops);
       ("elapsed_ms", num (ms elapsed));
       ("setup_ms", "[" ^ String.concat "," (List.rev_map num !setup_ms) ^ "]");
       ("verdict_hits", int verdict_hits);
       ("built_blocks", int stats.Bounded.built_blocks);
       ("solved_solo", int stats.Bounded.solved_solo);
       ("reused_blocks", int stats.Bounded.reused_blocks);
       ("reused_solo", int stats.Bounded.reused_solo) ]
     @ extra)

(* ---------- serve: the request path, replayed in one process ---------- *)

let serve_replay_cmd requests ~store_path ~deadline ~trace ~divergence_ids =
  let lines = read_lines requests in
  let store = Store.open_ store_path in
  let salt = Store.salt_of_options (Pipeline.default_options ()) in
  let before = counters () in
  tracing := trace <> None;
  let texts = ref [] in
  let rows =
    List.mapi
      (fun i line ->
         current_op := i;
         let t0 = now () in
         let id, text, result, hit =
           span "serve" (fun () ->
               match span "jsonl.parse" (fun () -> Jsonl.parse line) with
               | Error message -> failwith message
               | Ok json ->
                 let id = Option.value (Jsonl.member "id" json) ~default:Jsonl.Null in
                 let key =
                   match Jsonl.str id with Some s -> s | None -> Jsonl.to_string id
                 in
                 let text =
                   match Jsonl.str_member "doc" json with
                   | Some t -> t
                   | None -> failwith "request without doc"
                 in
                 let document = Document.parse text in
                 let skey = Store.key ~salt document in
                 let result, hit =
                   match span "store.find" (fun () -> Store.find store skey) with
                   | Some cached ->
                     ({ cached with Harness.doc = key; attempts = 0; fresh = false },
                      true)
                   | None ->
                     let r =
                       span "harness.check_one" (fun () ->
                           Harness.check_one (serve_harness ~deadline) key document)
                     in
                     if Store.cacheable r then
                       span "store.put" (fun () -> Store.put store ~key:skey r);
                     (r, false)
                 in
                 ignore
                   (span "jsonl.render" (fun () ->
                        let body = Harness.journal_line result in
                        "{\"id\":" ^ Jsonl.to_string id ^ ","
                        ^ String.sub body 1 (String.length body - 1)));
                 (key, text, result, hit))
         in
         let wall = now () -. t0 in
         if List.mem id divergence_ids && not (List.mem_assoc text !texts) then
           texts := (text, (id, result)) :: !texts;
         [ ("op", int i); ("id", quote id);
           ("verdict", quote (harness_verdict_name result.Harness.verdict));
           ("engine", quote result.Harness.engine);
           ("attempts", int result.Harness.attempts); ("hit", bool hit);
           ("wall_ms", num (ms wall));
           ("degraded", int (List.length result.Harness.degradation)) ])
      lines
  in
  tracing := false;
  let counted = counters_delta before in
  let store_stats = Store.stats store in
  Store.close store;
  Option.iter write_trace trace;
  List.iter emit rows;
  (* check-vs-serve record for the requested documents, after the
     replay so the ungoverned runs cannot warm it *)
  let divergence =
    List.rev_map
      (fun (text, (id, result)) ->
         let cv, ce = check_path (Document.parse text) in
         obj [ ("doc", quote id); ("check_verdict", quote cv);
               ("check_engine", quote ce);
               ("serve_verdict",
                quote (harness_verdict_name result.Harness.verdict));
               ("serve_engine", quote result.Harness.engine) ])
      !texts
  in
  emit
    [ ("summary", "true"); ("layers", layer_times ()); ("counters", counted);
      ("store_hits", int store_stats.Store.hits);
      ("store_misses", int store_stats.Store.misses);
      ("divergence", "[" ^ String.concat "," divergence ^ "]") ]

(* ---------- command line ---------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec flag name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> flag name rest
    | [] -> None
  in
  let has name = List.mem name args in
  let get name conv default =
    match flag name args with Some v -> conv v | None -> default
  in
  match args with
  | "probe" :: _ -> print_endline "{}"
  | "doc" :: path :: _ when has "--serve-only" -> serve_only_cmd path
  | "doc" :: source :: rest -> doc_cmd source ~trace:(flag "--trace" rest)
  | "edit" :: script :: _ ->
    edit_cmd script
      ~seconds:(get "--seconds" float_of_string 10.)
      ~cycle:(get "--cycle" int_of_string 5)
      ~min_ops:(get "--min-ops" int_of_string 100)
      ~setups:(get "--setups" int_of_string 1)
      ~trace:(flag "--trace" args)
  | "serve-replay" :: requests :: _ ->
    serve_replay_cmd requests
      ~store_path:(get "--store" Fun.id "serve-replay.store")
      ~deadline:(get "--deadline" float_of_string 60.)
      ~trace:(flag "--trace" args)
      ~divergence_ids:
        (get "--divergence-ids" (String.split_on_char ',') [])
  | _ ->
    prerr_endline
      "usage: perfbench.exe (probe | doc SOURCE | edit SCRIPT | \
       serve-replay REQUESTS) [options]";
    exit 3
