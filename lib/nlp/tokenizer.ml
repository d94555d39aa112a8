type token =
  | Word of string
  | Comma
  | Period

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = '\''

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let rec scan i =
    if i >= n then ()
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1)
      | ',' ->
        tokens := Comma :: !tokens;
        scan (i + 1)
      | '.' ->
        tokens := Period :: !tokens;
        scan (i + 1)
      | ';' | ':' ->
        (* Treated as clause separators, like commas. *)
        tokens := Comma :: !tokens;
        scan (i + 1)
      | '(' | ')' | '"' -> scan (i + 1)
      | c when is_word_char c ->
        let j = ref (i + 1) in
        while !j < n && is_word_char text.[!j] do incr j done;
        let word = String.lowercase_ascii (String.sub text i (!j - i)) in
        tokens := Word word :: !tokens;
        scan !j
      | c -> failwith (Printf.sprintf "Tokenizer: unexpected character %C" c)
  in
  scan 0;
  List.rev !tokens

let split_sentences text =
  String.split_on_char '.' text
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
