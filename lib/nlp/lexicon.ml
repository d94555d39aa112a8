type part_of_speech =
  | Noun
  | Verb
  | Adjective
  | Adverb
  | Modal
  | Subordinator
  | Modifier
  | Conjunction
  | Determiner
  | Copula
  | Preposition
  | Negation
  | Number of int
  | Unknown

let closed_classes = [
  (Modal, [ "shall"; "should"; "will"; "would"; "can"; "could"; "must";
            "may"; "might" ]);
  (Subordinator, [ "if"; "after"; "once"; "when"; "whenever"; "while";
                   "before"; "until"; "next" ]);
  (Modifier, [ "globally"; "always"; "sometimes"; "eventually" ]);
  (Conjunction, [ "and"; "or" ]);
  (Determiner, [ "the"; "a"; "an"; "this"; "that"; "its"; "their"; "some";
                 "any"; "each"; "every" ]);
  (Copula, [ "be"; "is"; "are"; "was"; "were"; "been"; "being";
             "remain"; "remains"; "remained"; "become"; "becomes";
             "stay"; "stays" ]);
  (Preposition, [ "in"; "to"; "of"; "on"; "from"; "by"; "at"; "for";
                  "with"; "into"; "within" ]);
  (Negation, [ "not"; "never"; "no" ]);
]

(* Open-class vocabulary of the CARA, TELEPROMISE and rescue-robot
   case studies. *)
let nouns = [
  (* CARA *)
  "cara"; "lstat"; "mode"; "pump"; "cuff"; "signal"; "button"; "alarm";
  "line"; "wave"; "pulse"; "pressure"; "blood"; "occlusion"; "infusate";
  "battery"; "power"; "supply"; "source"; "rate"; "infusion"; "level";
  "monitor"; "care-giver"; "patient"; "selection"; "override";
  "confirmation"; "corroboration"; "reading"; "impedance"; "air"; "reset";
  "second"; "seconds"; "auto-control"; "auto_control"; "manual";
  "wait"; "software"; "system"; "data"; "flow"; "auto"; "control";
  "terminate_auto_control";
  "start_auto_control"; "alarm_reset"; "override_yes"; "override_no";
  "confirmation_yes"; "confirmation_no";
  (* TELEPROMISE *)
  "order"; "item"; "catalog"; "customer"; "payment"; "account"; "stock";
  "article"; "review"; "reviewer"; "editor"; "submission"; "decision";
  "reservation"; "seat"; "request"; "session"; "query"; "response";
  "bulletin"; "board"; "message"; "posting"; "moderator"; "notice";
  "receipt"; "invoice"; "shipment"; "cart"; "user"; "operator";
  "database"; "record"; "page"; "menu"; "service"; "application";
  "information"; "result"; "timeout"; "login"; "password";
  (* robot *)
  "robot"; "room"; "medic"; "person"; "people"; "victim"; "exit";
  "corridor"; "location"; "search"; "mission"; "base";
]

(* Verbs are stored as lemmas; morphology maps inflected forms back. *)
let verbs = [
  "enter"; "leave"; "exit"; "run"; "start"; "stop"; "terminate"; "press";
  "push"; "turn"; "inflate"; "deflate"; "trigger"; "sound"; "issue";
  "select"; "corroborate"; "provide"; "disable"; "enable"; "plug";
  "detect"; "monitor"; "control"; "lose"; "power"; "operate"; "drive";
  "collect"; "measure"; "read"; "alarm"; "reset"; "confirm"; "switch";
  "go"; "use"; "pump"; "occlude"; "clear"; "ready"; "supply"; "backup";
  (* TELEPROMISE *)
  "place"; "ship"; "cancel"; "pay"; "charge"; "refund"; "submit";
  "review"; "accept"; "reject"; "publish"; "reserve"; "release"; "book";
  "request"; "answer"; "display"; "show"; "post"; "remove"; "moderate";
  "notify"; "send"; "receive"; "process"; "validate"; "approve";
  "deliver"; "update"; "log"; "register"; "acknowledge"; "complete";
  "retry"; "expire"; "open"; "close"; "lock"; "unlock"; "grant"; "deny";
  (* robot *)
  "move"; "carry"; "find"; "locate"; "visit"; "rescue"; "pick"; "drop";
  "return"; "explore"; "reach";
]

(* Participle-shaped words that the appendix treats as verbs
   (is pressed ↦ press_x, is running ↦ run_x) are deliberately absent:
   the parser's participle reading must win for them.  "ok" is also
   absent so that named signals like "Air Ok signal" keep their full
   subject. *)
let adjectives = [
  "available"; "unavailable"; "valid"; "invalid"; "low"; "high";
  "ready"; "unready"; "clear"; "blocked"; "operational"; "inoperative";
  "lost"; "present"; "on"; "off"; "open"; "closed"; "full"; "empty";
  "normal"; "abnormal"; "active"; "inactive"; "enabled"; "disabled";
  "occupied"; "free"; "busy"; "idle"; "late"; "early"; "successful";
  "failed"; "injured"; "healthy"; "safe"; "unsafe"; "same"; "different";
  "new"; "old";
]

let adverbs = [
  "immediately"; "promptly"; "quickly"; "slowly"; "correctly";
  "incorrectly"; "successfully"; "unsuccessfully"; "automatically";
  "manually"; "initially"; "continuously";
]

let is_numeral word =
  match int_of_string_opt word with Some _ -> true | None -> false

let number_words = [
  ("one", 1); ("two", 2); ("three", 3); ("four", 4); ("five", 5);
  ("six", 6); ("seven", 7); ("eight", 8); ("nine", 9); ("ten", 10);
]

(* Built once and never mutated, so every domain reads it without a
   lock. *)
let table =
  let table = Hashtbl.create 1024 in
  let register pos word =
    let existing =
      match Hashtbl.find_opt table word with Some l -> l | None -> []
    in
    if not (List.mem pos existing) then
      Hashtbl.replace table word (existing @ [ pos ])
  in
  List.iter (fun (pos, words) -> List.iter (register pos) words)
    closed_classes;
  List.iter (register Noun) nouns;
  List.iter (register Verb) verbs;
  List.iter (register Adjective) adjectives;
  List.iter (register Adverb) adverbs;
  table

let lookup word =
  let word = String.lowercase_ascii word in
  if is_numeral word then [ Number (int_of_string word) ]
  else
    match List.assoc_opt word number_words with
    | Some n -> [ Number n ]
    | None ->
      (match Hashtbl.find_opt table word with
       | Some classes -> classes
       | None -> [ Unknown ])

let has_class word pos = List.mem pos (lookup word)
