#!/usr/bin/env python3
"""Schema checks for the observability exports (stdlib only).

Usage:
  validate_trace.py TRACE.json [--tree-log TREE.jsonl] [--metrics METRICS.json]
                    [--serve-spans]

Validates:
  * TRACE.json is Chrome trace_event JSON: a {"traceEvents": [...]} object
    whose events carry name/ph/pid/tid/ts (and dur for complete events),
    with non-negative timestamps and well-nested spans per (pid, tid);
    async events ('b'/'e') must carry an id and pair up begin/end per
    (name, id) with begin <= end;
  * with --serve-spans, the daemon's request-lifecycle linkage: every
    serve.request* event carries args.req; per request id there is exactly
    one root "serve.request" span whose args name the path (door/worker)
    and outcome; worker-path requests have a queue b/e pair ending at or
    before the root ends, and their stage spans (step_mip/fastpath/write)
    lie inside the root; every "serve.wal.snapshot" span carries integer
    args active/retired/ledger with ledger <= retired, and, in time order,
    neither retired nor ledger ever shrinks (the ledger is append-only);
  * TREE.jsonl (optional) holds one JSON object per line conforming to the
    obs::TreeLog schema, with unique node ids per context and a monotone
    global bound (non-decreasing for "min", non-increasing for "max");
  * METRICS.json (optional) has counters/gauges/histograms sections with
    internally consistent histograms (bucket counts sum to count).

Exits non-zero (with a message per problem) on any violation; CI fails the
job on that.
"""

import argparse
import json
import sys

PROBLEMS = []


def problem(msg):
    PROBLEMS.append(msg)
    print(f"validate_trace: {msg}", file=sys.stderr)


def validate_chrome_trace(path, serve_spans=False):
    try:
        with open(path, encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        problem(f"{path}: not readable as JSON: {e}")
        return

    if not isinstance(root, dict) or "traceEvents" not in root:
        problem(f"{path}: top level must be an object with 'traceEvents'")
        return
    events = root["traceEvents"]
    if not isinstance(events, list):
        problem(f"{path}: 'traceEvents' must be an array")
        return
    if not events:
        problem(f"{path}: trace contains no events")
        return

    spans_by_track = {}
    async_pairs = {}  # (name, id) -> {"b": [ts], "e": [ts]}
    for i, e in enumerate(events):
        where = f"{path}: event {i}"
        if not isinstance(e, dict):
            problem(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in e:
                problem(f"{where}: missing '{key}'")
        ph = e.get("ph")
        if ph not in ("X", "i", "b", "e"):
            problem(f"{where}: unexpected phase {ph!r}")
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problem(f"{where}: ts must be a non-negative number, got {ts!r}")
            continue
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problem(f"{where}: complete event needs non-negative dur")
                continue
            track = (e.get("pid"), e.get("tid"))
            spans_by_track.setdefault(track, []).append(
                (float(ts), float(ts) + float(dur), e.get("name", "?")))
        elif ph in ("b", "e"):
            if not isinstance(e.get("id"), str) or not e["id"]:
                problem(f"{where}: async event needs a non-empty string 'id'")
                continue
            pair = async_pairs.setdefault((e.get("name", "?"), e["id"]),
                                          {"b": [], "e": []})
            pair[ph].append(float(ts))

    # Per-track nesting: sorted by (start, -end), every span either starts
    # after the enclosing span ended or finishes within it. Async b/e
    # events are exempt by design — concurrent queue residencies overlap.
    for track, spans in sorted(spans_by_track.items()):
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # (end, name) of currently-open spans
        for start, end, name in spans:
            while stack and stack[-1][0] <= start:
                stack.pop()
            if stack and end > stack[-1][0]:
                problem(
                    f"{path}: span '{name}' [{start}, {end}] on track "
                    f"{track} overlaps enclosing '{stack[-1][1]}' "
                    f"(ends {stack[-1][0]})")
            stack.append((end, name))

    # Async begin/end pairing per (name, id).
    for (name, async_id), pair in sorted(async_pairs.items()):
        if len(pair["b"]) != len(pair["e"]):
            problem(f"{path}: async '{name}' id={async_id!r} has "
                    f"{len(pair['b'])} begins but {len(pair['e'])} ends")
            continue
        for begin, end in zip(sorted(pair["b"]), sorted(pair["e"])):
            if end < begin:
                problem(f"{path}: async '{name}' id={async_id!r} ends at "
                        f"{end} before it begins at {begin}")

    print(f"validate_trace: {path}: {len(events)} events, "
          f"{sum(len(s) for s in spans_by_track.values())} spans on "
          f"{len(spans_by_track)} tracks, {len(async_pairs)} async pairs")
    if serve_spans:
        validate_serve_spans(path, events)


def validate_serve_spans(path, events):
    """Request-lifecycle linkage for the serve daemon's spans."""
    EPS = 2.0  # microseconds of clock-capture slack between span stamps
    roots = {}    # req -> list of (start, end, args)
    stages = {}   # req -> list of (name, start, end)
    queues = {}   # req -> {"b": [ts], "e": [ts]}
    tagged = 0
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            continue
        name = e.get("name", "")
        if not name.startswith("serve.request"):
            continue
        args = e.get("args")
        req = args.get("req") if isinstance(args, dict) else None
        if not req:
            problem(f"{path}: event {i} '{name}' lacks args.req")
            continue
        tagged += 1
        ts = float(e.get("ts", 0))
        ph = e.get("ph")
        if ph in ("b", "e"):
            queues.setdefault(req, {"b": [], "e": []})[ph].append(ts)
        elif ph == "X":
            end = ts + float(e.get("dur", 0))
            if name == "serve.request":
                roots.setdefault(req, []).append((ts, end, args))
            else:
                stages.setdefault(req, []).append((name, ts, end))
        # instants (reopt_install) only need the req tag checked above

    validate_snapshot_spans(path, events)
    if not roots:
        problem(f"{path}: --serve-spans found no serve.request root spans")
        return
    for req, root_list in sorted(roots.items()):
        if len(root_list) != 1:
            problem(f"{path}: request {req!r} has {len(root_list)} "
                    f"'serve.request' roots, expected exactly 1")
            continue
        start, end, args = root_list[0]
        request_path = args.get("path")
        if request_path not in ("door", "worker"):
            problem(f"{path}: request {req!r} root has path="
                    f"{request_path!r}, expected door or worker")
            continue
        if args.get("outcome") not in ("accept", "reject"):
            problem(f"{path}: request {req!r} root has outcome="
                    f"{args.get('outcome')!r}")
        queue = queues.get(req)
        if request_path == "worker":
            if queue is None or len(queue["b"]) != 1 or len(queue["e"]) != 1:
                problem(f"{path}: worker request {req!r} lacks a queue "
                        f"begin/end pair")
            elif not (queue["b"][0] <= queue["e"][0] <= start + EPS):
                problem(f"{path}: request {req!r} queue span "
                        f"[{queue['b'][0]}, {queue['e'][0]}] does not end at "
                        f"its root's start {start}")
            # Stage spans decompose the root's latency from inside it.
            for stage_name, stage_start, stage_end in stages.get(req, []):
                if stage_name == "serve.request/parse":
                    if stage_end > start + EPS:
                        problem(f"{path}: request {req!r} parse ends at "
                                f"{stage_end}, after its root starts "
                                f"({start})")
                elif not (start - EPS <= stage_start
                          and stage_end <= end + EPS):
                    problem(f"{path}: request {req!r} stage '{stage_name}' "
                            f"[{stage_start}, {stage_end}] outside root "
                            f"[{start}, {end}]")
        else:  # door: rejected by the reader before any enqueue
            if queue is not None:
                problem(f"{path}: door-rejected request {req!r} has queue "
                        f"events")
        stage_names = {s[0] for s in stages.get(req, [])}
        if "serve.request/parse" not in stage_names:
            problem(f"{path}: request {req!r} has no parse span")
    print(f"validate_trace: {path}: serve-span linkage OK for "
          f"{len(roots)} requests ({tagged} tagged events)")


def validate_snapshot_spans(path, events):
    """The WAL's serve.wal.snapshot spans: counts in args, ledger monotone."""
    snapshots = []
    for i, e in enumerate(events):
        if not isinstance(e, dict) or e.get("name") != "serve.wal.snapshot":
            continue
        args = e.get("args") if isinstance(e.get("args"), dict) else {}
        counts = [args.get(k) for k in ("active", "retired", "ledger")]
        if e.get("ph") != "X" or not all(
                isinstance(c, int) and c >= 0 for c in counts):
            problem(f"{path}: event {i} 'serve.wal.snapshot' needs ph X and "
                    f"non-negative integer args active/retired/ledger, got "
                    f"{args!r}")
            continue
        if counts[2] > counts[1]:
            problem(f"{path}: event {i} snapshot ledger {counts[2]} exceeds "
                    f"retired {counts[1]}")
        snapshots.append((float(e.get("ts", 0)), counts[1], counts[2]))
    snapshots.sort()
    for (_, retired0, ledger0), (ts, retired1, ledger1) in zip(
            snapshots, snapshots[1:]):
        if retired1 < retired0 or ledger1 < ledger0:
            problem(f"{path}: snapshot at {ts} shrank retired/ledger from "
                    f"{retired0}/{ledger0} to {retired1}/{ledger1}")
    if snapshots:
        print(f"validate_trace: {path}: {len(snapshots)} WAL snapshot spans")


TREE_REQUIRED = (
    "node", "depth", "parent_bound", "lp_status", "lp_pivots", "branch_var",
    "branch_frac", "incumbent_updated", "incumbent", "global_bound",
    "open_nodes", "seconds", "sense")
TREE_STATUSES = {
    "branched", "integral", "infeasible", "propagation-infeasible",
    "pruned", "unbounded", "time-limit", "numerical-failure"}


def validate_tree_log(path):
    # A tree log may interleave records of many solves (sweep cells); node
    # uniqueness and bound monotonicity hold per context tag.
    seen_nodes = {}
    last_bound = {}
    records = 0
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as e:
        problem(f"{path}: not readable: {e}")
        return
    if not lines:
        problem(f"{path}: tree log is empty")
        return
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        try:
            r = json.loads(line)
        except json.JSONDecodeError as e:
            problem(f"{where}: not valid JSON: {e}")
            continue
        for key in TREE_REQUIRED:
            if key not in r:
                problem(f"{where}: missing '{key}'")
        records += 1
        status = r.get("lp_status")
        if status not in TREE_STATUSES:
            problem(f"{where}: unexpected lp_status {status!r}")
        sense = r.get("sense")
        if sense not in ("min", "max"):
            problem(f"{where}: unexpected sense {sense!r}")
            continue
        ctx = r.get("ctx", "")
        node = r.get("node")
        if node in seen_nodes.setdefault(ctx, set()):
            problem(f"{where}: duplicate node id {node} in context {ctx!r}")
        seen_nodes[ctx].add(node)
        seconds = r.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            problem(f"{where}: seconds must be non-negative")
        bound = r.get("global_bound")
        if bound is None:
            continue
        prev = last_bound.get(ctx)
        if prev is not None:
            if sense == "min" and bound < prev - 1e-9:
                problem(f"{where}: global_bound regressed {prev} -> {bound} "
                        f"(min must be non-decreasing)")
            if sense == "max" and bound > prev + 1e-9:
                problem(f"{where}: global_bound regressed {prev} -> {bound} "
                        f"(max must be non-increasing)")
        last_bound[ctx] = bound
    print(f"validate_trace: {path}: {records} node records in "
          f"{len(seen_nodes)} contexts")


def validate_metrics(path):
    try:
        with open(path, encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        problem(f"{path}: not readable as JSON: {e}")
        return
    for section in ("counters", "gauges", "histograms"):
        if section not in root or not isinstance(root[section], dict):
            problem(f"{path}: missing '{section}' object")
    for name, h in root.get("histograms", {}).items():
        count = h.get("count", 0)
        buckets = h.get("buckets", [])
        bucket_total = sum(b[1] for b in buckets)
        if bucket_total != count:
            problem(f"{path}: histogram '{name}' buckets sum to "
                    f"{bucket_total}, count is {count}")
        if count > 0 and h.get("min") > h.get("max"):
            problem(f"{path}: histogram '{name}' has min > max")
    print(f"validate_trace: {path}: {len(root.get('counters', {}))} counters, "
          f"{len(root.get('histograms', {}))} histograms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument("--tree-log", help="tree log JSONL file")
    parser.add_argument("--metrics", help="metrics JSON file")
    parser.add_argument("--serve-spans", action="store_true",
                        help="validate serve.request lifecycle linkage")
    args = parser.parse_args()

    validate_chrome_trace(args.trace, serve_spans=args.serve_spans)
    if args.tree_log:
        validate_tree_log(args.tree_log)
    if args.metrics:
        validate_metrics(args.metrics)

    if PROBLEMS:
        print(f"validate_trace: FAILED with {len(PROBLEMS)} problem(s)",
              file=sys.stderr)
        return 1
    print("validate_trace: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
