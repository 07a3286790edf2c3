#!/usr/bin/env python3
"""Validator for Prometheus text exposition format 0.0.4 (stdlib only).

Usage:
  validate_exposition.py FILE [--require METRIC]...

FILE of "-" reads stdin (so `curl .../metrics | validate_exposition.py -`
works in CI). Validates:
  * every non-comment, non-blank line parses as
      metric_name[{label="value",...}] value [timestamp]
    with names matching the exposition grammar and label values using
    only the \\\\, \\" and \\n escapes;
  * `# TYPE` comments name a valid metric, appear at most once per
    metric, and precede that metric's first sample;
  * histogram families (`<name>_bucket` + `<name>_sum`/`<name>_count`):
    per series, cumulative bucket counts are non-decreasing in `le`
    order, an `le="+Inf"` bucket is present, and its count equals the
    matching `<name>_count` sample;
  * the WAL metrics (KNOWN_TYPES) carry their own type when present: the
    snapshot-time histogram and the ledger counter among them;
  * `--require NAME` (repeatable) asserts at least one sample of NAME
    exists — CI uses it to pin the admission-latency p99 and SLO budget
    gauges, and the WAL snapshot metrics.

Exits non-zero with one message per problem.
"""

import argparse
import math
import sys

METRIC_NAME_CHARS_FIRST = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
METRIC_NAME_CHARS = METRIC_NAME_CHARS_FIRST | set("0123456789")
LABEL_NAME_CHARS_FIRST = METRIC_NAME_CHARS_FIRST - set(":")
LABEL_NAME_CHARS = LABEL_NAME_CHARS_FIRST | set("0123456789")

PROBLEMS = []

# The WAL families tvnep_serve exports, with their fixed types; a scrape
# that declares one of them with another type is wrong.
KNOWN_TYPES = {
    "serve_wal_appends": "counter",
    "serve_wal_fsyncs": "counter",
    "serve_wal_io_errors": "counter",
    "serve_wal_snapshots": "counter",
    "serve_wal_append_ms": "histogram",
    "serve_wal_fsync_ms": "histogram",
    "serve_wal_snapshot_ms": "histogram",
    "serve_wal_ledger_commits": "counter",
}


def problem(msg):
    PROBLEMS.append(msg)
    print(f"validate_exposition: {msg}", file=sys.stderr)


def valid_name(name, first_chars, rest_chars):
    return (bool(name) and name[0] in first_chars
            and all(c in rest_chars for c in name[1:]))


def parse_value(text):
    """Exposition float: decimal, scientific, +Inf / -Inf / NaN."""
    if text in ("+Inf", "-Inf", "NaN"):
        return math.inf if text == "+Inf" else (
            -math.inf if text == "-Inf" else math.nan)
    try:
        return float(text)
    except ValueError:
        return None


def parse_labels(text, where):
    """Parses `name="value",...` (no braces); returns a dict or None."""
    labels = {}
    i = 0
    while i < len(text):
        j = i
        while j < len(text) and text[j] not in "=":
            j += 1
        name = text[i:j]
        if not valid_name(name, LABEL_NAME_CHARS_FIRST, LABEL_NAME_CHARS):
            problem(f"{where}: bad label name {name!r}")
            return None
        if j >= len(text) or text[j] != "=" or text[j + 1:j + 2] != '"':
            problem(f'{where}: label {name!r} missing ="')
            return None
        i = j + 2
        value = []
        while True:
            if i >= len(text):
                problem(f"{where}: unterminated label value for {name!r}")
                return None
            c = text[i]
            if c == "\\":
                esc = text[i + 1:i + 2]
                if esc == "\\":
                    value.append("\\")
                elif esc == '"':
                    value.append('"')
                elif esc == "n":
                    value.append("\n")
                else:
                    problem(f"{where}: bad escape \\{esc} in label {name!r}")
                    return None
                i += 2
                continue
            if c == '"':
                i += 1
                break
            if c == "\n":
                problem(f"{where}: raw newline in label {name!r}")
                return None
            value.append(c)
            i += 1
        if name in labels:
            problem(f"{where}: duplicate label {name!r}")
            return None
        labels[name] = "".join(value)
        if i < len(text):
            if text[i] != ",":
                problem(f"{where}: expected ',' between labels, got "
                        f"{text[i]!r}")
                return None
            i += 1
    return labels


def parse_sample(line, where):
    """Returns (name, labels, value) or None (after reporting)."""
    brace = line.find("{")
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            problem(f"{where}: unbalanced braces")
            return None
        name = line[:brace]
        labels = parse_labels(line[brace + 1:close], where)
        if labels is None:
            return None
        rest = line[close + 1:].strip()
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            problem(f"{where}: expected 'name value'")
            return None
        name, rest = parts[0], parts[1].strip()
        labels = {}
    if not valid_name(name, METRIC_NAME_CHARS_FIRST, METRIC_NAME_CHARS):
        problem(f"{where}: bad metric name {name!r}")
        return None
    fields = rest.split()
    if len(fields) not in (1, 2):
        problem(f"{where}: expected value [timestamp], got {rest!r}")
        return None
    value = parse_value(fields[0])
    if value is None:
        problem(f"{where}: bad sample value {fields[0]!r}")
        return None
    if len(fields) == 2:
        try:
            int(fields[1])
        except ValueError:
            problem(f"{where}: bad timestamp {fields[1]!r}")
            return None
    return name, labels, value


def series_key(labels, drop=()):
    return tuple(sorted(
        (k, v) for k, v in labels.items() if k not in drop))


def validate(lines, path):
    samples = []          # (name, labels, value)
    typed = {}            # metric -> declared type
    sampled_names = set()
    for lineno, raw in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("TYPE", "HELP"):
                if len(parts) < 3 or not valid_name(
                        parts[2], METRIC_NAME_CHARS_FIRST, METRIC_NAME_CHARS):
                    problem(f"{where}: malformed # {parts[1]} comment")
                    continue
                if parts[1] == "TYPE":
                    if len(parts) < 4 or parts[3] not in (
                            "counter", "gauge", "histogram", "summary",
                            "untyped"):
                        problem(f"{where}: bad TYPE for {parts[2]!r}")
                        continue
                    if parts[2] in typed:
                        problem(f"{where}: second TYPE for {parts[2]!r}")
                    if parts[2] in sampled_names:
                        problem(f"{where}: TYPE for {parts[2]!r} after its "
                                f"first sample")
                    typed[parts[2]] = parts[3]
            continue
        parsed = parse_sample(line, where)
        if parsed is None:
            continue
        name, labels, value = parsed
        samples.append((name, labels, value))
        sampled_names.add(name)
        # Histogram machinery samples fall under the family's TYPE.
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                sampled_names.add(name[:-len(suffix)])

    for name, want in KNOWN_TYPES.items():
        if name in typed and typed[name] != want:
            problem(f"{path}: {name!r} is typed {typed[name]!r}, "
                    f"expected {want!r}")

    # Histogram invariants, per (family, series-without-le).
    buckets = {}   # (family, series) -> list of (le_value, count)
    counts = {}    # (family, series) -> count sample value
    for name, labels, value in samples:
        if name.endswith("_bucket") and "le" in labels:
            le = parse_value(labels["le"])
            if le is None:
                problem(f"{path}: histogram {name!r} has unparsable "
                        f"le={labels['le']!r}")
                continue
            key = (name[:-len("_bucket")], series_key(labels, drop=("le",)))
            buckets.setdefault(key, []).append((le, value))
        elif name.endswith("_count"):
            counts[(name[:-len("_count")], series_key(labels))] = value
    for (family, series), entries in sorted(buckets.items()):
        entries.sort(key=lambda e: e[0])
        prev = -math.inf
        for le, count in entries:
            if count < prev:
                problem(f"{path}: histogram {family!r} bucket le={le} count "
                        f"{count} below previous {prev} (must be cumulative)")
            prev = count
        if not entries or not math.isinf(entries[-1][0]):
            problem(f"{path}: histogram {family!r} missing le=\"+Inf\" bucket")
            continue
        total = counts.get((family, series))
        if total is None:
            problem(f"{path}: histogram {family!r} has buckets but no "
                    f"{family}_count sample")
        elif entries[-1][1] != total:
            problem(f"{path}: histogram {family!r} +Inf bucket {entries[-1][1]}"
                    f" != {family}_count {total}")

    return samples


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("file", help="exposition text file, or - for stdin")
    parser.add_argument("--require", action="append", default=[],
                        metavar="METRIC",
                        help="fail unless a sample of METRIC exists")
    args = parser.parse_args()

    if args.file == "-":
        lines = sys.stdin.read().splitlines()
        path = "<stdin>"
    else:
        try:
            lines = open(args.file, encoding="utf-8").read().splitlines()
        except OSError as e:
            print(f"validate_exposition: {args.file}: {e}", file=sys.stderr)
            return 1
        path = args.file

    samples = validate(lines, path)
    if not samples and not PROBLEMS:
        problem(f"{path}: no samples found")

    present = {name for name, _, _ in samples}
    for required in args.require:
        if required not in present:
            problem(f"{path}: required metric {required!r} has no sample")

    if PROBLEMS:
        print(f"validate_exposition: FAILED with {len(PROBLEMS)} problem(s)",
              file=sys.stderr)
        return 1
    print(f"validate_exposition: OK ({len(samples)} samples, "
          f"{len(present)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
