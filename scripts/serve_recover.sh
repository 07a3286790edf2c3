#!/usr/bin/env sh
# Serve crash-recovery smoke: kill -9 the admission daemon mid-load and
# prove that durable admission state (DESIGN.md §16) loses nothing.
# Asserts
#   * the newest snapshot left by the kill holds exactly its active
#     commits (1 + active lines), the retired ones being in the ledger,
#   * every decision acknowledged before the kill is in the recovered
#     state (acked accepted ids are a subset of the recovered commit
#     ledger, recovered decision count >= acked count),
#   * the recovered commit set passes the independent capacity validator
#     (--dump-state exits 0 with validation_ok),
#   * a restarted daemon resumes from the state dir (prints a
#     "recovered" line), serves the remainder of the trace with zero
#     protocol errors, and drains cleanly,
#   * the final state accounts for every request exactly once,
#   * the durability tax is bounded: serve_load --wal-ab p99 with batch
#     fsync stays within 15% (plus a small absolute floor for timer
#     noise) of the no-WAL baseline.
# Artifacts (recover_requests.ndjson, recover_phase1.ndjson,
# recover_phase2.ndjson, recover_state*.json, serve_recover_ab.csv) are
# left in the working directory for upload.
set -eu

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
slo_ms="${SLO_MS:-2000}"
requests="${REQUESTS:-40}"
state_dir="recover_state"

cmake -B build -S .
cmake --build build -j "$jobs" --target tvnep_serve serve_load
serve=./build/src/serve/tvnep_serve

rm -rf "$state_dir" recover_fifo
"$serve" --emit "$requests" --seed 11 --flex 1.5 --no-drain \
  > recover_requests.ndjson

# --- phase 1: serve with the WAL on, SIGKILL mid-load -----------------------
mkfifo recover_fifo
"$serve" --slo-ms "$slo_ms" --state-dir "$state_dir" \
  --wal-fsync every --snapshot-every 8 \
  < recover_fifo > recover_phase1.ndjson &
daemon_pid=$!
# Paced producer: one request every 50 ms so the kill lands mid-stream.
( while IFS= read -r line; do
    printf '%s\n' "$line" || exit 0
    sleep 0.05
  done < recover_requests.ndjson
  sleep 60 ) > recover_fifo &
producer_pid=$!

# Wait for at least a quarter of the trace to be acknowledged, then kill
# -9 — no drain, no flush, no destructor.
want=$((requests / 4))
for _ in $(seq 1 600); do
  acked=$(grep -c '"type":"decision"' recover_phase1.ndjson 2>/dev/null || true)
  [ "${acked:-0}" -ge "$want" ] && break
  sleep 0.1
done
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
kill "$producer_pid" 2>/dev/null || true
wait "$producer_pid" 2>/dev/null || true
rm -f recover_fifo
acked=$(grep -c '"type":"decision"' recover_phase1.ndjson || true)
echo "serve_recover: SIGKILL after $acked acknowledged decisions"
test "$acked" -ge "$want"

# Snapshots hold the active commits only: the retired ones live in the
# append-only ledger, which holds at least as many as the snapshot counts.
STATE_DIR="$state_dir" python3 - <<'EOF'
import glob, json, os

state_dir = os.environ["STATE_DIR"]
snapshots = sorted(glob.glob(os.path.join(state_dir, "snapshot-*.state")))
assert snapshots, "the killed daemon published no snapshot"
lines = open(snapshots[-1]).read().splitlines()
header = json.loads(lines[0])
assert len(lines) == 1 + header["active"], \
    f"{snapshots[-1]} has {len(lines)} lines, expected 1 + " \
    f"{header['active']} active"
in_ledger = header.get("ledger", 0)
assert in_ledger == header["retired"], \
    f"snapshot keeps {header['retired'] - in_ledger} retired commits inline"
ledger = os.path.join(state_dir, "ledger.jsonl")
held = len(open(ledger).read().splitlines()) - 1 if in_ledger else 0
assert held >= in_ledger, \
    f"ledger holds {held} commits, the snapshot needs {in_ledger}"
print(f"serve_recover: newest snapshot holds {header['active']} active "
      f"commits; the ledger holds {held} retired")
EOF

# --- recovery: dump, validate, diff against the acknowledgements ------------
"$serve" --dump-state --state-dir "$state_dir" > recover_state.json

python3 - <<'EOF'
import json

state = json.loads(open("recover_state.json").read())
assert state["recovered"], "state dir recovered nothing"
assert state["validation_ok"], \
    f"capacity validation failed: {state['validation_errors']}"

acked_accepted, acked = set(), 0
for line in open("recover_phase1.ndjson"):
    line = line.strip()
    if not line:
        continue
    reply = json.loads(line)
    if reply.get("type") != "decision":
        continue
    acked += 1
    if reply.get("accepted"):
        acked_accepted.add(reply["id"])

# Write-ahead means acked => durable: the recovered ledger may hold one
# decision more than was acknowledged (record written, ack never sent),
# never one less.
assert state["decisions"] >= acked, \
    f"lost decisions: acked {acked}, recovered {state['decisions']}"
commit_ids = {c["id"] for c in state["commits"]}
lost = acked_accepted - commit_ids
assert not lost, f"acknowledged commits lost across the kill: {sorted(lost)}"
print(f"serve_recover: {acked} acked decisions all durable, "
      f"{len(acked_accepted)} accepted commits all recovered "
      f"(replayed={state['replayed']}, torn_repaired={state['torn_repaired']})")
EOF

# --- phase 2: restart from the state dir, serve the remainder ---------------
decisions=$(python3 -c \
  "import json; print(json.load(open('recover_state.json'))['decisions'])")
{ tail -n +$((decisions + 1)) recover_requests.ndjson
  printf '{"type":"drain"}\n'; } \
  | "$serve" --slo-ms "$slo_ms" --state-dir "$state_dir" \
      --wal-fsync every --snapshot-every 8 > recover_phase2.ndjson
grep -q '"type":"recovered"' recover_phase2.ndjson
grep -q '"type":"bye"' recover_phase2.ndjson
errors=$(grep -c '"type":"error"' recover_phase2.ndjson || true)
test "${errors:-0}" -eq 0
echo "serve_recover: restarted daemon recovered and drained cleanly"

# --- final ledger: every request decided exactly once -----------------------
"$serve" --dump-state --state-dir "$state_dir" > recover_state_final.json
REQUESTS="$requests" python3 - <<'EOF'
import json, os

requests = int(os.environ["REQUESTS"])
state = json.loads(open("recover_state_final.json").read())
assert state["validation_ok"], \
    f"final capacity validation failed: {state['validation_errors']}"
assert state["decisions"] == requests, \
    f"expected {requests} decisions across both lives, " \
    f"saw {state['decisions']}"
seqs = [c["seq"] for c in state["commits"]]
assert len(seqs) == len(set(seqs)), "duplicate commit seq: double-admission"
assert state["accepted"] == len(seqs), \
    f"accepted counter {state['accepted']} != {len(seqs)} ledger commits"
print(f"serve_recover: final state holds all {requests} decisions, "
      f"{state['accepted']} commits, no duplicates")
EOF

# --- durability tax: WAL A/B p99 bound --------------------------------------
./build/bench/serve_load --scale 5 --mode greedy --wal-ab \
  --state-dir serve_recover_ab_state --csv serve_recover_ab.csv
python3 - <<'EOF'
import csv

rows = {r["wal"]: r for r in csv.DictReader(open("serve_recover_ab.csv"))
        if r["mode"] == "greedy"}
off = float(rows["off"]["p99_ms"])
batch = float(rows["batch"]["p99_ms"])
# 15% relative bar with a 5 ms absolute floor: at sub-millisecond
# baselines the relative bar is pure timer noise.
bound = max(off * 1.15, off + 5.0)
assert batch <= bound, \
    f"batch-fsync p99 {batch:.2f}ms exceeds bound {bound:.2f}ms " \
    f"(off baseline {off:.2f}ms)"
print(f"serve_recover: p99 off={off:.2f}ms batch={batch:.2f}ms "
      f"every={float(rows['every']['p99_ms']):.2f}ms (bound {bound:.2f}ms)")
EOF
echo "serve_recover: OK"
