(** Minimal JSON: the one wire format of SpecCC.

    The repo carries no JSON dependency.  Every line the system writes
    (the batch journal, verdict-store records, serve and route
    responses, watch events, [BENCH_speccc.json]) is built as a {!t}
    and rendered by {!to_string}, and every line it reads back, client
    input included, goes through {!parse}: a real recursive-descent
    parser, so malformed input becomes [Error _] (a typed
    [bad_request] response in serve mode), never an exception.  The
    two are inverse on finite values: [parse (to_string v) = Ok v]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error.  [\u]
    escapes are decoded to UTF-8, a surrogate pair to the one 4-byte
    sequence of its code point; a lone surrogate is an error.  String
    bytes outside escapes are kept as they are. *)

val to_string : t -> string
(** Compact single-line rendering, safe to embed in JSONL.  String
    bytes [>= 0x80] are written raw; control characters, the double
    quote and the backslash are escaped.  Integral numbers below
    [1e15] print without a fraction; other finite numbers print with
    the fewest significant digits (15 to 17) that read back to the
    same float; NaN and the infinities have no JSON spelling and print
    as [null]. *)

(** {2 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option

val int_ : t -> int option
(** [Some n] only for an integral number inside OCaml's [int] range:
    [2.5] and [1e30] are [None], not a truncation. *)

val str_member : string -> t -> string option
val num_member : string -> t -> float option
val int_member : string -> t -> int option
