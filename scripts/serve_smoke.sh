#!/usr/bin/env sh
# Serve smoke: end-to-end check of the tvnep_serve daemon against a
# replayable generator trace. Asserts
#   * the trace replays byte-for-byte (generator determinism),
#   * zero protocol errors — one decision per request, in order, then bye,
#   * p99 admit latency under the SLO (from the --metrics histogram),
#   * a clean SIGTERM drain: bye line, exit status 0,
#   * the telemetry plane: a live /metrics scrape under load passes
#     validate_exposition.py (admission-latency p99, SLO budget gauges and
#     the WAL snapshot histogram present), the request-lifecycle trace
#     passes validate_trace.py --serve-spans (snapshot spans included), and
#     --log writes valid structured JSONL.
# Artifacts (serve_trace.txt, serve_decisions.ndjson, serve_metrics.json,
# serve_exposition.txt, serve_span_trace.json, serve_daemon.log,
# serve_smoke_state/) are left in the working directory for upload.
set -eu

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
slo_ms="${SLO_MS:-2000}"
requests="${REQUESTS:-20}"

cmake -B build -S .
cmake --build build --target tvnep_serve -j "$jobs"
serve=./build/src/serve/tvnep_serve

# --- replayable trace: save, re-emit, must be identical ---------------------
"$serve" --emit "$requests" --seed 7 --flex 1.5 \
  --save-trace serve_trace.txt > serve_requests.ndjson
"$serve" --from-trace serve_trace.txt > serve_replayed.ndjson
cmp serve_requests.ndjson serve_replayed.ndjson
echo "serve_smoke: trace replay is byte-identical"

# --- replay through the daemon, collect decisions + metrics -----------------
"$serve" --slo-ms "$slo_ms" --metrics serve_metrics.json \
  < serve_requests.ndjson > serve_decisions.ndjson

REQUESTS="$requests" SLO_MS="$slo_ms" python3 - <<'EOF'
import json, math, os

requests = int(os.environ["REQUESTS"])
slo_ms = float(os.environ["SLO_MS"])

decisions, errors, byes = [], 0, 0
for line in open("serve_decisions.ndjson"):
    line = line.strip()
    if not line:
        continue
    reply = json.loads(line)
    kind = reply.get("type")
    if kind == "decision":
        decisions.append(reply)
    elif kind == "error":
        errors += 1
    elif kind == "bye":
        byes += 1

assert errors == 0, f"{errors} protocol errors"
assert byes == 1, f"expected one bye, saw {byes}"
assert len(decisions) == requests, \
    f"expected {requests} decisions, saw {len(decisions)}"
for i, decision in enumerate(decisions):
    assert decision["id"] == f"R{i}", \
        f"decision {i} out of order: {decision['id']}"
accepted = sum(1 for d in decisions if d["accepted"])
assert accepted > 0, "daemon accepted nothing"

hist = json.load(open("serve_metrics.json"))["histograms"][
    "serve.admit.latency_ms"]
count = hist["count"]
assert count == requests, f"latency histogram holds {count} samples"
rank = max(1, math.ceil(0.99 * count))
cumulative, p99 = 0, hist["max"]
for upper, bucket_count in hist["buckets"]:
    cumulative += bucket_count
    if cumulative >= rank:
        p99 = min(float(upper), hist["max"])
        break
assert p99 <= slo_ms, f"p99 admit latency {p99}ms exceeds SLO {slo_ms}ms"
print(f"serve_smoke: {len(decisions)} decisions ({accepted} accepted), "
      f"p99 <= {p99:.2f}ms within {slo_ms}ms SLO")
EOF

# --- SIGTERM drain: no drain message, signal instead ------------------------
"$serve" --emit "$requests" --seed 7 --flex 1.5 --no-drain \
  > serve_requests_nodrain.ndjson
{ cat serve_requests_nodrain.ndjson; sleep 30; } \
  | "$serve" --slo-ms "$slo_ms" > serve_drain.ndjson &
pid=$!
# Give the daemon time to work through the queue, then terminate it.
for _ in $(seq 1 300); do
  decided=$(grep -c '"type":"decision"' serve_drain.ndjson 2>/dev/null || true)
  [ "${decided:-0}" -ge "$requests" ] && break
  sleep 0.1
done
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
test "$status" -eq 0 || { echo "serve_smoke: daemon exit $status"; exit 1; }
grep -q '"type":"bye"' serve_drain.ndjson
decided=$(grep -c '"type":"decision"' serve_drain.ndjson)
test "$decided" -eq "$requests"
echo "serve_smoke: SIGTERM drained $decided decisions and said bye (exit 0)"

# --- telemetry plane: live /metrics scrape + span linkage + structured log --
# The WAL is on (a snapshot every 4 decisions), so the scrape and the trace
# carry its snapshot histogram and spans too.
rm -rf serve_smoke_state
{ cat serve_requests_nodrain.ndjson; sleep 30; } \
  | "$serve" --slo-ms "$slo_ms" --metrics-port 0 \
      --state-dir serve_smoke_state --snapshot-every 4 \
      --trace serve_span_trace.json \
      --log serve_daemon.log --log-level debug > serve_live.ndjson &
pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(python3 - <<'EOF' 2>/dev/null || true
import json
for line in open("serve_live.ndjson"):
    try:
        reply = json.loads(line)
    except ValueError:
        continue
    if reply.get("type") == "metrics_listening":
        print(reply["port"])
        break
EOF
)
  [ -n "$port" ] && break
  sleep 0.1
done
test -n "$port" || { echo "serve_smoke: no metrics_listening line"; \
                     kill -TERM "$pid"; exit 1; }

# Scrape while the daemon works the queue; retry until the histograms and
# the SLO gauges have materialized.
python3 - "$port" > serve_exposition.txt <<'EOF'
import sys, time, urllib.request
port = sys.argv[1]
body = ""
for _ in range(100):
    body = urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=5).read().decode()
    if ("serve_admit_latency_ms_p99" in body
            and "serve_slo_budget_remaining" in body
            and "serve_wal_snapshot_ms_count" in body):
        break
    time.sleep(0.2)
sys.stdout.write(body)
EOF
python3 scripts/validate_exposition.py serve_exposition.txt \
  --require serve_admit_latency_ms_p99 \
  --require serve_slo_budget_remaining \
  --require serve_slo_burn_rate \
  --require serve_wal_snapshot_ms_count
echo "serve_smoke: live /metrics scrape is valid exposition"

for _ in $(seq 1 300); do
  decided=$(grep -c '"type":"decision"' serve_live.ndjson 2>/dev/null || true)
  [ "${decided:-0}" -ge "$requests" ] && break
  sleep 0.1
done
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
test "$status" -eq 0 || { echo "serve_smoke: telemetry daemon exit $status"; \
                          exit 1; }

python3 scripts/validate_trace.py serve_span_trace.json --serve-spans

python3 - <<'EOF'
import json
lines = [l for l in open("serve_daemon.log") if l.strip()]
assert lines, "structured log is empty"
levels = {"debug", "info", "warn", "error"}
for lineno, line in enumerate(lines, start=1):
    record = json.loads(line)
    for key in ("ts", "level", "comp", "msg"):
        assert key in record, f"log line {lineno} missing {key!r}"
    assert record["level"] in levels, f"log line {lineno} bad level"
print(f"serve_smoke: {len(lines)} structured log lines are valid JSONL")
EOF
echo "serve_smoke: telemetry plane OK"
