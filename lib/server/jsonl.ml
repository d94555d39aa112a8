(* Kept only so the benchmark driver under perfbench/, which names
   [Speccc_server.Jsonl], keeps building; everything in this repo uses
   [Speccc_json.Jsonl] directly. *)
include Speccc_json.Jsonl
