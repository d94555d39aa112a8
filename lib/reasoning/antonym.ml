type polarity = Positive | Negative

type entry = {
  word : string;
  pair : string;
  polarity : polarity;
  absorb : bool;
}

let pair_abs positive negative = [
  { word = positive; pair = positive; polarity = Positive; absorb = true };
  { word = negative; pair = positive; polarity = Negative; absorb = true };
]

let pair_full positive negative = [
  { word = positive; pair = positive; polarity = Positive; absorb = false };
  { word = negative; pair = positive; polarity = Negative; absorb = false };
]

let defaults =
  List.concat
    [
      (* status adjectives that abbreviate into their subject
         (Sec. IV-D's proposition reduction, appendix convention) *)
      pair_abs "available" "unavailable";
      pair_abs "valid" "invalid";
      pair_abs "high" "low";
      pair_abs "enabled" "disabled";
      pair_abs "on" "off";
      pair_abs "active" "inactive";
      (* descriptive adjectives that keep the word_subject form *)
      pair_full "operational" "inoperative";
      pair_full "clear" "blocked";
      pair_full "ready" "unready";
      pair_full "normal" "abnormal";
      pair_full "open" "closed";
      pair_full "full" "empty";
      pair_full "busy" "idle";
      pair_full "occupied" "free";
      pair_full "successful" "failed";
      pair_full "safe" "unsafe";
      pair_full "healthy" "injured";
      pair_full "correctly" "incorrectly";
      pair_full "successfully" "unsuccessfully";
    ]
  @ [
    (* "lost" also pairs against "available" in the corpus (Req-42):
       the pump sources are "available" or "lost". *)
    { word = "lost"; pair = "available"; polarity = Negative; absorb = true };
  ]

(* Built once and never mutated, so every domain reads it without a
   lock. *)
let table =
  let table = Hashtbl.create 64 in
  List.iter (fun entry -> Hashtbl.replace table entry.word entry) defaults;
  table

let lookup word = Hashtbl.find_opt table word

let antonyms word =
  match lookup word with
  | None -> []
  | Some entry ->
    Hashtbl.fold
      (fun other other_entry acc ->
         if other_entry.pair = entry.pair
         && other_entry.polarity <> entry.polarity
         && other <> word
         then other :: acc
         else acc)
      table []
    |> List.sort compare

let is_negative word =
  match lookup word with
  | Some { polarity = Negative; _ } -> true
  | Some { polarity = Positive; _ } | None -> false
