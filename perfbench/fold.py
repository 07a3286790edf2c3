#!/usr/bin/env python3
"""Self-time folder for trace_event files (standard library only).

    python3 perfbench/fold.py TRACE.json [TRACE.json ...]

prints one row per span name: count, total and self time in ms.

Complete spans (ph "X") are folded per (pid, tid) track. A span's parent
is the innermost earlier span on its track whose interval contains it,
up to a microsecond of rounding. A span's self time is its duration
minus the part of that interval its direct children cover: the union of
the children, clipped to the parent, so a child that overruns its parent
by a rounding microsecond or two siblings that overlap are never counted
twice.

Async spans (ph "b"/"e") are paired by (cat, name, id) in begin order,
across threads: the daemon begins a request's queue span on its reader
thread and ends it on its worker. They overlap freely, so they nest with
nothing and their self time is their duration. Instants, metadata and
unpaired async events are ignored (unpaired ones are counted).

Reads {"traceEvents": [...]} files, the layout the repository's tracer
and the benchmark driver write.
"""
import json
import sys
from collections import defaultdict, deque


# Timestamps and durations are truncated to whole microseconds, so a child
# may appear to end up to this much after its parent.
ROUNDING_US = 1


class Span:
    __slots__ = ("name", "cat", "track", "ts", "dur", "self_us", "args",
                 "parent", "children")

    def __init__(self, name, cat, track, ts, dur, args):
        self.name = name
        self.cat = cat
        self.track = track
        self.ts = ts
        self.dur = dur
        self.self_us = dur
        self.args = args
        self.parent = None
        self.children = []

    @property
    def end(self):
        return self.ts + self.dur


def load_events(path):
    """Reads the events of one {"traceEvents": [...]} trace file."""
    with open(path) as f:
        return list(json.load(f)["traceEvents"])


def _covered(parent, children):
    """Length of the union of the children's intervals inside the parent."""
    covered = 0
    reach = parent.ts
    for child in sorted(children, key=lambda c: c.ts):
        start = max(child.ts, reach)
        end = min(child.end, parent.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def fold(events):
    """Returns (spans, unpaired): every complete and paired async span with
    its self time, and the number of async begins/ends left unpaired."""
    tracks = defaultdict(list)
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        track = (e.get("pid", 0), e.get("tid", 0))
        span = Span(e.get("name", ""), e.get("cat", ""), track,
                    e.get("ts", 0), e.get("dur", 0), e.get("args", {}))
        tracks[track].append(span)
        spans.append(span)

    for track_spans in tracks.values():
        # Parents sort before the spans they enclose: earlier start first,
        # longer span first on a tie.
        track_spans.sort(key=lambda s: (s.ts, -s.dur))
        stack = []
        for span in track_spans:
            # Close spans that ended before this one starts, or that it
            # outlasts by more than the tracer's one-microsecond rounding.
            while stack and (stack[-1].end <= span.ts or
                             span.end > stack[-1].end + ROUNDING_US):
                stack.pop()
            if stack:
                span.parent = stack[-1]
                stack[-1].children.append(span)
            stack.append(span)
        for span in track_spans:
            if span.children:
                span.self_us = span.dur - _covered(span, span.children)

    begins = defaultdict(deque)
    unpaired = 0
    for e in sorted((e for e in events if e.get("ph") in ("b", "e")),
                    key=lambda e: e.get("ts", 0)):
        key = (e.get("cat", ""), e.get("name", ""), str(e.get("id", "")))
        if e["ph"] == "b":
            begins[key].append(e)
        elif begins[key]:
            b = begins[key].popleft()
            spans.append(Span(key[1], key[0], (b.get("pid", 0), b.get("tid", 0)),
                              b.get("ts", 0), e.get("ts", 0) - b.get("ts", 0),
                              b.get("args", {})))
        else:
            unpaired += 1
    unpaired += sum(len(q) for q in begins.values())
    return spans, unpaired


class NameStats:
    __slots__ = ("count", "total_us", "self_us", "durations")

    def __init__(self):
        self.count = 0
        self.total_us = 0
        self.self_us = 0
        self.durations = []


def aggregate(spans):
    """Per span name: count, total and self time, and every duration."""
    by_name = defaultdict(NameStats)
    for span in spans:
        stats = by_name[span.name]
        stats.count += 1
        stats.total_us += span.dur
        stats.self_us += span.self_us
        stats.durations.append(span.dur)
    return by_name


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    events = []
    for path in argv[1:]:
        events.extend(load_events(path))
    spans, unpaired = fold(events)
    stats = aggregate(spans)
    print(f"{'span':<32} {'count':>8} {'total_ms':>12} {'self_ms':>12}")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_us):
        print(f"{name:<32} {s.count:>8} {s.total_us / 1e3:>12.3f} "
              f"{s.self_us / 1e3:>12.3f}")
    if unpaired:
        print(f"unpaired async events: {unpaired}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
