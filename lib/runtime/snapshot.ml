(* Serializable progress frontiers ("anytime snapshots").

   A snapshot is a tiny engine-tagged key/value record describing how
   far a long-running search got: the explicit game's bound, the
   symbolic fixpoint's layer, the SAT search's machine size.  Engines
   publish one at every completed escalation step; supervisors
   (harness retries, the server watchdog, the shard router) carry the
   last published snapshot across a preemption so the next attempt
   resumes instead of cold-starting.

   A snapshot travels as one JSON object (see [to_json]); anything that
   does not decode to that shape is [None] and the consumer falls back
   to a cold start — never to wrong state. *)

type t = {
  engine : string;               (* "symbolic" | "explicit" *)
  fields : (string * string) list;
}

let make ~engine fields = { engine; fields }

let engine t = t.engine
let fields t = t.fields

let field t name = List.assoc_opt name t.fields

let int_field t name =
  match field t name with
  | None -> None
  | Some v -> int_of_string_opt v

let with_field t name value =
  { t with fields = (name, value) :: List.remove_assoc name t.fields }

(* ---------- JSON ---------- *)

module Jsonl = Speccc_json.Jsonl

(* The one rendering: the engine tag first, then the fields in order,
   every value a string.  The journal and serve "progress" member and
   the store's SNAP records all carry exactly this object. *)
let to_json t =
  Jsonl.Obj
    (("engine", Jsonl.Str t.engine)
     :: List.map (fun (k, v) -> (k, Jsonl.Str v)) t.fields)

let of_json = function
  | Jsonl.Obj (("engine", Jsonl.Str engine) :: members) ->
    let rec decode acc = function
      | [] -> Some { engine; fields = List.rev acc }
      | (k, Jsonl.Str v) :: rest -> decode ((k, v) :: acc) rest
      | _ :: _ -> None
    in
    decode [] members
  | _ -> None

(* ---------- antichain field codec ----------

   The explicit engine's antichain frontiers are lists of counting
   functions (int arrays, -1 for inactive).  They ride inside an
   ordinary string field: arrays are joined with ':', elements with
   ','.  Decoding is strict; any malformed element rejects the whole
   field and the consumer cold starts. *)

let counts_to_field antichain =
  String.concat ":"
    (List.map
       (fun counts ->
          String.concat ","
            (Array.to_list (Array.map string_of_int counts)))
       antichain)

let counts_of_field s =
  if s = "" then Some []
  else
    let parse_counts part =
      let cells = String.split_on_char ',' part in
      let parsed = List.map int_of_string_opt cells in
      if List.for_all Option.is_some parsed then
        Some (Array.of_list (List.map Option.get parsed))
      else None
    in
    let parts = List.map parse_counts (String.split_on_char ':' s) in
    if List.for_all Option.is_some parts then
      Some (List.map Option.get parts)
    else None

(* ---------- slots ---------- *)

(* A slot is the rendezvous between the engine (publishing progress
   from its own domain) and a supervisor (reading it from the watchdog
   thread after a preemption).  Atomics keep cross-domain reads sound;
   the values themselves are immutable. *)

type slot = {
  latest : t option Atomic.t;    (* most recent frontier published *)
  resume : t option Atomic.t;    (* frontier the next attempt starts from *)
  published : int Atomic.t;
  resumed : int Atomic.t;
}

let slot () =
  { latest = Atomic.make None;
    resume = Atomic.make None;
    published = Atomic.make 0;
    resumed = Atomic.make 0 }

let publish slot t =
  Atomic.set slot.latest (Some t);
  Atomic.incr slot.published

let latest slot = Atomic.get slot.latest

let set_resume slot t = Atomic.set slot.resume t

(* Arm the next attempt with whatever the previous one last published. *)
let rearm slot =
  match Atomic.get slot.latest with
  | None -> ()
  | Some _ as s -> Atomic.set slot.resume s

let resume_for slot ~engine =
  match Atomic.get slot.resume with
  | Some t when t.engine = engine ->
    Atomic.incr slot.resumed;
    Some t
  | Some _ | None -> None

let published_count slot = Atomic.get slot.published
let resumed_count slot = Atomic.get slot.resumed

let clear slot =
  Atomic.set slot.latest None;
  Atomic.set slot.resume None
