(* A small, total JSON reader/writer: the one wire format of the repo.

   The repo deliberately carries no JSON dependency.  Every line the
   system writes (journal, store records, serve/route responses, watch
   events, the bench snapshot) is built as a [t] and rendered by
   [to_string], and everything it reads back, including untrusted
   client input, goes through the recursive-descent [parse]: malformed
   input comes back as [Error _], never an exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

type cursor = { text : string; mutable pos : int }

let error cursor message =
  raise (Bad (Printf.sprintf "at byte %d: %s" cursor.pos message))

let peek cursor =
  if cursor.pos < String.length cursor.text then Some cursor.text.[cursor.pos]
  else None

let advance cursor = cursor.pos <- cursor.pos + 1

let rec skip_ws cursor =
  match peek cursor with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance cursor;
    skip_ws cursor
  | Some _ | None -> ()

let expect cursor c =
  match peek cursor with
  | Some got when got = c -> advance cursor
  | Some got -> error cursor (Printf.sprintf "expected %C, got %C" c got)
  | None -> error cursor (Printf.sprintf "expected %C, got end of input" c)

let literal cursor word value =
  let n = String.length word in
  if
    cursor.pos + n <= String.length cursor.text
    && String.sub cursor.text cursor.pos n = word
  then begin
    cursor.pos <- cursor.pos + n;
    value
  end
  else error cursor (Printf.sprintf "expected %s" word)

let hex4 cursor =
  if cursor.pos + 4 > String.length cursor.text then
    error cursor "truncated \\u escape";
  let hex = String.sub cursor.text cursor.pos 4 in
  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  if not (String.for_all is_hex hex) then error cursor "bad \\u escape";
  cursor.pos <- cursor.pos + 4;
  int_of_string ("0x" ^ hex)

(* The code point of a [\u] escape whose four hex digits start at the
   cursor.  A high surrogate must be followed by an escaped low one;
   the pair names one supplementary code point.  A lone surrogate of
   either kind has no UTF-8 encoding and is an error. *)
let code_point cursor =
  let hi = hex4 cursor in
  if hi >= 0xDC00 && hi <= 0xDFFF then error cursor "lone low surrogate"
  else if hi < 0xD800 || hi > 0xDBFF then hi
  else begin
    let text = cursor.text and pos = cursor.pos in
    if pos + 2 > String.length text || text.[pos] <> '\\'
       || text.[pos + 1] <> 'u'
    then error cursor "lone high surrogate";
    cursor.pos <- pos + 2;
    let lo = hex4 cursor in
    if lo < 0xDC00 || lo > 0xDFFF then error cursor "lone high surrogate";
    0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  end

let parse_string cursor =
  expect cursor '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cursor with
    | None -> error cursor "unterminated string"
    | Some '"' -> advance cursor
    | Some '\\' ->
      advance cursor;
      (match peek cursor with
       | None -> error cursor "unterminated escape"
       | Some c ->
         advance cursor;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point cursor))
          | c -> error cursor (Printf.sprintf "bad escape \\%C" c));
         go ())
    | Some c ->
      advance cursor;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

(* RFC 8259: [-] (0 | [1-9] digit* ) [. digit+] [(e|E) [+|-] digit+].
   No leading zeros, no bare fraction or exponent marks. *)
let parse_number cursor =
  let start = cursor.pos in
  let digits () =
    let first = cursor.pos in
    while (match peek cursor with Some '0' .. '9' -> true | _ -> false) do
      advance cursor
    done;
    if cursor.pos = first then error cursor "bad number: expected a digit"
  in
  if peek cursor = Some '-' then advance cursor;
  if peek cursor = Some '0' then advance cursor else digits ();
  if peek cursor = Some '.' then begin
    advance cursor;
    digits ()
  end;
  (match peek cursor with
   | Some ('e' | 'E') ->
     advance cursor;
     (match peek cursor with Some ('+' | '-') -> advance cursor | _ -> ());
     digits ()
   | _ -> ());
  float_of_string (String.sub cursor.text start (cursor.pos - start))

(* [opening], then [item]s separated by commas, then [closing] *)
let parse_seq cursor opening closing item =
  expect cursor opening;
  skip_ws cursor;
  if peek cursor = Some closing then begin
    advance cursor;
    []
  end
  else
    let rec go items =
      let items = item cursor :: items in
      skip_ws cursor;
      match peek cursor with
      | Some ',' ->
        advance cursor;
        go items
      | Some c when c = closing ->
        advance cursor;
        List.rev items
      | _ -> error cursor (Printf.sprintf "expected ',' or %C" closing)
    in
    go []

let rec parse_value cursor =
  skip_ws cursor;
  match peek cursor with
  | None -> error cursor "unexpected end of input"
  | Some '"' -> Str (parse_string cursor)
  | Some '{' -> Obj (parse_seq cursor '{' '}' parse_member)
  | Some '[' -> Arr (parse_seq cursor '[' ']' parse_value)
  | Some 't' -> literal cursor "true" (Bool true)
  | Some 'f' -> literal cursor "false" (Bool false)
  | Some 'n' -> literal cursor "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number cursor)
  | Some c -> error cursor (Printf.sprintf "unexpected %C" c)

and parse_member cursor =
  skip_ws cursor;
  let key = parse_string cursor in
  skip_ws cursor;
  expect cursor ':';
  (key, parse_value cursor)

let parse text =
  let cursor = { text; pos = 0 } in
  match parse_value cursor with
  | value ->
    skip_ws cursor;
    if cursor.pos < String.length text then
      Error (Printf.sprintf "trailing garbage at byte %d" cursor.pos)
    else Ok value
  | exception Bad message -> Error message

(* ---------- printing ---------- *)

let write_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Only what [parse] reads back: non-finite numbers have no JSON
   spelling and render as null; any other float prints with the fewest
   significant digits (15 to 17) that read back to the same float. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let rec shortest precision =
      let s = Printf.sprintf "%.*g" precision f in
      if precision >= 17 || float_of_string s = f then s
      else shortest (precision + 1)
    in
    shortest 15

let write_seq buf opening closing write_item items =
  Buffer.add_char buf opening;
  List.iteri
    (fun i item ->
       if i > 0 then Buffer.add_char buf ',';
       write_item item)
    items;
  Buffer.add_char buf closing

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s -> write_string buf s
  | Arr items -> write_seq buf '[' ']' (write buf) items
  | Obj fields ->
    write_seq buf '{' '}'
      (fun (k, v) ->
         write_string buf k;
         Buffer.add_char buf ':';
         write buf v)
      fields

let to_string value =
  let buf = Buffer.create 256 in
  write buf value;
  Buffer.contents buf

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

(* integral and inside [min_int, max_int] (2^62 itself is out) *)
let int_ = function
  | Num f
    when Float.is_integer f
         && f >= Float.of_int min_int
         && f < -.Float.of_int min_int ->
    Some (int_of_float f)
  | _ -> None

let str_member key json = Option.bind (member key json) str
let num_member key json = Option.bind (member key json) num
let int_member key json = Option.bind (member key json) int_
