type profile = {
  prefix : string;
  lines : int;
  inputs : int;
  outputs : int;
}

let verbs = [| ("triggered", "trigger"); ("started", "start");
               ("issued", "issue"); ("selected", "select");
               ("provided", "provide") |]

let sensor_name profile k = Printf.sprintf "%s_sensor_%d" profile.prefix k

let actuator_name profile k = Printf.sprintf "%s_unit_%d" profile.prefix k

let actuator_verb k = verbs.(k mod Array.length verbs)

let validate profile =
  if profile.lines < 1 || profile.inputs < 1 || profile.outputs < 1 then
    invalid_arg "Specgen.sentences: counts must be positive";
  if profile.outputs > 2 * profile.lines then
    invalid_arg "Specgen.sentences: more than two outputs per line needed"

(* Distribute [count] item indices over [lines] slots: every item
   appears at least once; lines beyond [count] reuse items
   round-robin.  Returns an array of index lists, one per line. *)
let distribute ~count ~lines ~max_per_line =
  let slots = Array.make lines [] in
  let rec assign item =
    if item < count then begin
      let line = item mod lines in
      if List.length slots.(line) < max_per_line then
        slots.(line) <- slots.(line) @ [ item ]
      else begin
        (* find the next line with room *)
        let rec probe offset =
          if offset >= lines then
            invalid_arg "Specgen: distribution overflow"
          else
            let candidate = (line + offset) mod lines in
            if List.length slots.(candidate) < max_per_line then
              slots.(candidate) <- slots.(candidate) @ [ item ]
            else probe (offset + 1)
        in
        probe 1
      end;
      assign (item + 1)
    end
  in
  assign 0;
  (* fill empty slots by reuse *)
  Array.iteri
    (fun line items -> if items = [] then slots.(line) <- [ line mod count ])
    slots;
  slots

let sentences profile =
  validate profile;
  let sensor_slots =
    distribute ~count:profile.inputs ~lines:profile.lines ~max_per_line:3
  in
  let actuator_slots =
    distribute ~count:profile.outputs ~lines:profile.lines ~max_per_line:2
  in
  let guard_phrase line sensors =
    let phrase position k =
      let status =
        (* vary the polarity so "lost"/"available" both occur *)
        if (line + position) mod 3 = 2 then "is lost" else "is available"
      in
      Printf.sprintf "%s %s" (sensor_name profile k) status
    in
    String.concat " and " (List.mapi phrase sensors)
  in
  let response_phrase k =
    let participle, _ = actuator_verb k in
    Printf.sprintf "%s is %s" (actuator_name profile k) participle
  in
  let line_sentence line =
    let sensors = sensor_slots.(line) in
    let actuators = actuator_slots.(line) in
    let guards = guard_phrase line sensors in
    match line mod 4, actuators with
    | 1, [ single ] ->
      (* deadline requirement *)
      let delay = if line mod 8 < 4 then 2 else 4 in
      Printf.sprintf "If %s, %s in %d seconds." guards
        (response_phrase single) delay
    | 2, first :: rest ->
      (* eventuality requirement *)
      let tail =
        String.concat ""
          (List.map (fun k -> " and " ^ response_phrase k) rest)
      in
      Printf.sprintf "When %s, eventually %s%s." guards
        (response_phrase first) tail
    | _, actuators ->
      Printf.sprintf "If %s, %s." guards
        (String.concat " and " (List.map response_phrase actuators))
  in
  List.init profile.lines line_sentence
