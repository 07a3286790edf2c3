#!/usr/bin/env python3
"""Tests of fold.py on synthetic traces whose nesting and self times are
known by construction.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import os
import tempfile
import unittest

import fold


def x(name, ts, dur, tid=1, pid=1):
    return {"name": name, "cat": "t", "ph": "X", "pid": pid, "tid": tid,
            "ts": ts, "dur": dur}


def a(ph, name, ts, ident, tid=1):
    return {"name": name, "cat": "q", "ph": ph, "pid": 1, "tid": tid,
            "ts": ts, "id": ident}


def self_by_name(events):
    spans, _ = fold.fold(events)
    return {name: s.self_us for name, s in fold.aggregate(spans).items()}


class FoldTest(unittest.TestCase):
    def test_nested_self_times(self):
        # A[0,100) holds B[10,40) and D[50,90); B holds C[20,30).
        events = [x("A", 0, 100), x("B", 10, 30), x("C", 20, 10),
                  x("D", 50, 40)]
        self.assertEqual(self_by_name(events),
                         {"A": 30, "B": 20, "C": 10, "D": 40})

    def test_parent_links(self):
        spans, _ = fold.fold([x("A", 0, 100), x("B", 10, 30),
                              x("C", 20, 10)])
        by = {s.name: s for s in spans}
        self.assertIsNone(by["A"].parent)
        self.assertIs(by["B"].parent, by["A"])
        self.assertIs(by["C"].parent, by["B"])

    def test_threads_do_not_nest(self):
        # E overlaps A in time but runs on another thread.
        events = [x("A", 0, 100), x("E", 10, 50, tid=2)]
        self.assertEqual(self_by_name(events), {"A": 100, "E": 50})

    def test_processes_do_not_nest(self):
        events = [x("A", 0, 100), x("E", 10, 50, pid=2)]
        self.assertEqual(self_by_name(events), {"A": 100, "E": 50})

    def test_shared_start_orders_longer_first(self):
        # Parent and child start on the same microsecond, in either order.
        events = [x("child", 0, 40), x("parent", 0, 100)]
        self.assertEqual(self_by_name(events), {"parent": 60, "child": 40})

    def test_child_overrun_is_clipped(self):
        # G overruns F by a rounding microsecond: only 5 us of F are covered.
        events = [x("F", 200, 10), x("G", 205, 6)]
        self.assertEqual(self_by_name(events), {"F": 5, "G": 6})

    def test_overlapping_children_counted_once(self):
        # K[30,60) outlasts K[10,50), so both are children of P; together
        # they cover [10, 60) of it.
        events = [x("P", 0, 100), x("K", 10, 40), x("K", 30, 30)]
        spans, _ = fold.fold(events)
        self.assertEqual(fold.aggregate(spans)["P"].self_us, 50)

    def test_siblings_after_close(self):
        # A span starting exactly where the previous one ends is a sibling.
        events = [x("P", 0, 100), x("S", 0, 50), x("S", 50, 50)]
        self.assertEqual(self_by_name(events), {"P": 0, "S": 100})

    def test_repeated_names_sum(self):
        events = [x("P", 0, 100), x("L", 10, 10), x("L", 30, 20),
                  x("P", 200, 10)]
        spans, _ = fold.fold(events)
        stats = fold.aggregate(spans)
        self.assertEqual(stats["L"].count, 2)
        self.assertEqual(stats["L"].total_us, 30)
        self.assertEqual(stats["P"].self_us, 70 + 10)
        self.assertEqual(sorted(stats["P"].durations), [10, 100])

    def test_async_pairs_across_threads(self):
        # Begun on the reader thread, ended on the worker; r2 overlaps r1.
        events = [a("b", "queue", 0, "r1", tid=1), a("b", "queue", 10, "r2"),
                  a("e", "queue", 30, "r2", tid=2),
                  a("e", "queue", 70, "r1", tid=2)]
        spans, unpaired = fold.fold(events)
        stats = fold.aggregate(spans)["queue"]
        self.assertEqual(unpaired, 0)
        self.assertEqual(sorted(stats.durations), [20, 70])
        self.assertEqual(stats.self_us, 90)

    def test_async_does_not_nest_with_complete_spans(self):
        events = [x("work", 0, 100), a("b", "queue", 10, "r1"),
                  a("e", "queue", 20, "r1")]
        self.assertEqual(self_by_name(events), {"work": 100, "queue": 10})

    def test_unpaired_async_is_counted_not_folded(self):
        events = [a("b", "queue", 0, "r1"), a("e", "queue", 5, "r9")]
        spans, unpaired = fold.fold(events)
        self.assertEqual(spans, [])
        self.assertEqual(unpaired, 2)

    def test_instants_ignored(self):
        events = [x("A", 0, 10), {"name": "i", "ph": "i", "ts": 5, "tid": 1}]
        self.assertEqual(self_by_name(events), {"A": 10})

    def test_load_trace_events_object(self):
        events = [x("A", 0, 100), x("B", 10, 30)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": events}, f)
            self.assertEqual(fold.load_events(path), events)


if __name__ == "__main__":
    unittest.main()
