#!/usr/bin/env bash
# Watch-mode smoke: drive one `speccc watch` session through a 10-edit
# JSONL script (consistency-preserving single-sentence edits on a
# CARA-sized document) and assert that
#   - every edit produced a verdict event, all of them consistent,
#   - the session actually reused engine state (arena blocks),
#   - the p95 per-edit wall stays under the latency budget.
# Then a second, short session makes one conflicting edit on the same
# document and asserts that its verdict is inconsistent, that it names
# the culprit `speccc localize` names for the edited document, and that
# the conflicting edit's wall stays under 1000 ms (the explicit rung
# refutes on an output component instead of playing the whole game).
#
# Usage: scripts/watch_smoke.sh [path/to/speccc_cli.exe]
# Env:   SPECCC_WATCH_BUDGET_MS  p95 budget in milliseconds (default 1000)
set -euo pipefail

BIN="${1:-_build/default/bin/speccc_cli.exe}"
test -x "$BIN" || { echo "no binary at $BIN (run dune build first)"; exit 3; }
BUDGET_MS="${SPECCC_WATCH_BUDGET_MS:-1000}"

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

doc="$dir/live.spec"
cat > "$doc" <<'EOF'
R1: If the button is pressed, the pump is started.
R2: If the occlusion is present, the alarm is triggered.
R3: If the pressure is high, the valve is opened.
R4: If the signal is low, the monitor is enabled.
R5: If the button is pressed, the monitor is enabled.
R6: If the occlusion is present, the valve is opened.
R7: If the pressure is high, the alarm is triggered.
R8: If the signal is low, the pump is started.
R9: If the button is pressed, the alarm is triggered.
R10: If the occlusion is present, the pump is started.
R11: If the pressure is high, the monitor is enabled.
R12: If the signal is low, the valve is opened.
R13: When the pump is started, eventually the cuff is inflated.
R14: When the valve is opened, eventually the cuff is inflated.
EOF

out="$dir/out.jsonl"
{
  printf '%s\n' \
    '{"cmd":"edit","id":"R5","text":"If the button is pressed, the valve is opened."}' \
    '{"cmd":"edit","id":"R9","text":"If the button is pressed, the cuff is inflated."}' \
    '{"cmd":"edit","id":"R11","text":"If the pressure is high, the pump is started."}' \
    '{"cmd":"edit","id":"R12","text":"If the signal is low, the alarm is triggered."}' \
    '{"cmd":"edit","id":"R2","text":"If the occlusion is present, the monitor is enabled."}' \
    '{"cmd":"edit","id":"R7","text":"If the pressure is high, the cuff is inflated."}' \
    '{"cmd":"edit","id":"R4","text":"If the signal is low, the pump is started."}' \
    '{"cmd":"edit","id":"R14","text":"When the monitor is enabled, eventually the cuff is inflated."}' \
    '{"cmd":"edit","id":"R6","text":"If the occlusion is present, the alarm is triggered."}' \
    '{"cmd":"edit","id":"R1","text":"If the button is pressed, the monitor is enabled."}' \
    '{"cmd":"stats"}' \
    '{"cmd":"quit"}'
} | "$BIN" watch "$doc" --engine explicit > "$out"

echo "--- session events"
cat "$out"
echo "---"

python3 - "$out" "$BUDGET_MS" <<'PY'
import json, math, sys

events = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
budget_ms = float(sys.argv[2])

verdicts = [e for e in events if e.get("event") == "verdict"]
# seq 1 is the initial (cold) check; the 10 edits follow
assert len(verdicts) == 11, f"expected 11 verdict events, got {len(verdicts)}"
bad = [v for v in verdicts if v["verdict"] != "consistent"]
assert not bad, f"non-consistent verdicts: {bad}"

edits = verdicts[1:]
assert all(v["reused"]["blocks"] > 0 for v in edits), \
    "an edit re-check reused no arena blocks"
assert all(not v["reused"]["verdict_cached"] for v in edits), \
    "an edit unexpectedly hit the whole-document verdict cache"

walls = sorted(v["wall_ms"] for v in edits)
p95 = walls[max(0, min(len(walls) - 1, math.ceil(0.95 * len(walls)) - 1))]
print(f"p95 edit latency: {p95:.3f}ms (budget {budget_ms:.0f}ms)")
assert p95 < budget_ms, f"p95 {p95:.3f}ms over budget {budget_ms:.0f}ms"

stats = [e for e in events if e.get("event") == "stats"]
assert stats and stats[0]["blocks_reused"] > 0, "session reused no blocks"
print("watch smoke: OK")
PY

# --- conflict session: one edit that breaks consistency
conflict='If the button is pressed, the pump is not started.'
edited="$dir/edited.spec"
sed "s/^R9: .*/R9: $conflict/" "$doc" > "$edited"

out2="$dir/conflict.jsonl"
printf '%s\n' \
  "{\"cmd\":\"edit\",\"id\":\"R9\",\"text\":\"$conflict\"}" \
  '{"cmd":"quit"}' \
  | "$BIN" watch "$doc" --engine explicit > "$out2"
loc="$dir/localize.txt"
"$BIN" localize "$edited" --engine explicit > "$loc"

echo "--- conflict session events"
cat "$out2"
echo "--- localize on the edited document"
cat "$loc"
echo "---"

python3 - "$out2" "$loc" <<'PY'
import json, re, sys

events = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
verdicts = [e for e in events if e.get("event") == "verdict"]
assert len(verdicts) == 2, f"expected 2 verdict events, got {len(verdicts)}"
assert verdicts[0]["verdict"] == "consistent", verdicts[0]
edit = verdicts[1]
assert edit["verdict"] == "inconsistent", f"conflict edit: {edit}"

text = open(sys.argv[2]).read()
index = re.search(r"^culprit: requirement (\d+)$", text, re.M).group(1)
expected = re.search(r"^\s*\[" + index + r" = ([^\]]+)\]", text, re.M).group(1)
assert edit.get("culprit") == expected, \
    f"watch culprit {edit.get('culprit')} != localize culprit {expected}"
print(f"conflict culprit: {expected}")
assert edit["wall_ms"] < 1000, f"conflict edit took {edit['wall_ms']:.3f}ms"
print(f"conflict edit wall: {edit['wall_ms']:.3f}ms")
print("watch conflict smoke: OK")
PY
