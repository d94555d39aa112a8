type item = {
  id : string;
  text : string;
  line : int;
}

type t = item list

(* An identifier prefix is a short colon-terminated token without
   spaces: "Req-08:", "R3:", "REQ_17.1:". *)
let split_identifier line =
  match String.index_opt line ':' with
  | Some pos when pos > 0 && pos <= 24 ->
    let candidate = String.sub line 0 pos in
    if String.contains candidate ' ' then None
    else
      let rest = String.sub line (pos + 1) (String.length line - pos - 1) in
      Some (candidate, String.trim rest)
  | Some _ | None -> None

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  List.mapi
    (fun index (line, content) ->
       match split_identifier content with
       | Some (id, text) when text <> "" -> { id; text; line }
       | Some _ | None ->
         { id = Printf.sprintf "R%d" (index + 1); text = content; line })
    lines

let of_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  parse contents

let of_texts texts =
  List.mapi
    (fun index text ->
       { id = Printf.sprintf "R%d" (index + 1); text; line = index + 1 })
    texts

let texts document = List.map (fun item -> item.text) document

let is_assumption item =
  let lower = String.lowercase_ascii item.id in
  String.length lower >= 6 && String.sub lower 0 6 = "assume"

let key document =
  String.concat "\x1e"
    (List.map (fun item -> item.id ^ "\x1f" ^ item.text) document)

let id_at document index =
  match List.nth_opt document index with
  | Some item -> item.id
  | None -> Printf.sprintf "R%d" (index + 1)

let pp ppf document =
  List.iter
    (fun item -> Format.fprintf ppf "%s: %s@." item.id item.text)
    document
