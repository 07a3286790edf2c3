#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload exact_solve|admit_exact|ingest_wal
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds tvnep_serve and the
tvbench driver from ../src into .bench_build/ (or $CARGO_TARGET_DIR).
Every run checks the program's outputs and prints, as its last stdout
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, folded from a traced run,
preceded by a layer-share table. README.md explains the workloads.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import fold

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {"exact_solve": "exact", "admit_exact": "admit",
             "ingest_wal": "ingest"}
DEADLINE_S = 175.0  # the whole run, build excluded

END_TO_END_UNITS = {
    "setup_s": "s",
    "per_s": "1/s",
    "revenue": "demand.h",
    "accept_ratio": "ratio",
    "slo_ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "tvnep.build_ms": "ms", "mip.solve_ms": "ms", "presolve.ms": "ms",
    "lp.phase1_ms": "ms", "lp.phase2_ms": "ms", "lp.dual_ms": "ms",
    "mip.root_lp_ms": "ms", "mip.cut_loop_ms": "ms", "mip.tree_ms": "ms",
    "mip.heuristic_ms": "ms", "admission.step_self_ms": "ms",
    "lp.pivots": "count", "lp.refactorizations": "count",
    "lp.warm_fallback_ratio": "ratio", "mip.nodes": "count",
    "mip.cuts_added": "count", "mip.cut_rounds": "count",
    "mip.rc_fixed": "count", "presolve.rows_removed": "count",
    "admission.exact_ms_p50": "ms", "admission.exact_ms_p99": "ms",
    "admission.fastpath_ms_p50": "ms", "admission.shed_timeout": "count",
    "admission.shed_infeasible": "count", "admission.shed_too_large": "count",
    "admission.exact_ratio": "ratio", "admission.wasted_share": "ratio",
    "admission.component_mean": "requests",
    "codec.parse_us": "us", "codec.write_us": "us", "fastpath.us_p50": "us",
    "daemon.queue_ms_p50": "ms", "daemon.queue_ms_p99": "ms",
    "daemon.overload_rejects": "count",
    "wal.append_ms_p50": "ms", "wal.append_ms_p99": "ms",
    "wal.fsync_ms_p50": "ms", "wal.fsync_ms_p99": "ms",
    "wal.snapshots": "count", "wal.snapshot_ms": "ms",
    "wal.bytes_per_decision": "bytes", "driver.late_ms_max": "ms",
    "trace.overhead": "ratio",
}

# Layer → span names whose self time it owns. WAL time has no spans: it
# comes from the daemon's serve.wal.* histograms (see layer_shares).
LAYER_SPANS = {
    "tvnep": ["tvnep.build"],
    "presolve": ["presolve.run", "presolve.round"],
    "lp": ["lp.phase1", "lp.phase2", "lp.dual"],
    "mip": ["mip.solve", "mip.solve_tree", "mip.root_lp", "mip.node_lp",
            "mip.cut_loop", "mip.heuristic_dive"],
    "admission": ["serve.step", "admission.admit", "serve.request/step_mip"],
    "fastpath": ["serve.fastpath", "admission.fastpath",
                 "serve.request/fastpath"],
    "codec": ["serve.request/parse", "serve.request/write"],
    "daemon": ["serve.request/queue", "serve.request"],
}
LAYERS = list(LAYER_SPANS) + ["wal", "other"]
PER_LAYER_UNITS.update({f"share.{layer}": "ratio" for layer in LAYERS})
# The driver's span around one operation of each workload.
OPERATION_SPAN = {"exact_solve": "bench.solve", "admit_exact": "bench.arrival",
                  "ingest_wal": "bench.request"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the driver and the daemon; returns their
    paths. Build output goes to a log file beside the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; run from a checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    log_path = os.path.join(ROOT, base, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tvbench",
                  "tvnep_serve", "-j", "4"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed, see {log_path}")
    driver = os.path.join(build_dir, "tvbench")
    serve = os.path.join(build_dir, "tvnep_src", "serve", "tvnep_serve")
    for path in (driver, serve):
        if not os.access(path, os.X_OK):
            fail(f"build produced no {path}")
    return driver, serve, os.path.join(ROOT, base)


def run_driver(driver, serve, workload, seed, seconds, trace, out_dir,
               started):
    cmd = [driver, WORKLOADS[workload], "--seed", str(seed),
           "--seconds", str(seconds), "--out", out_dir,
           "--trace", "1" if trace else "0"]
    if workload == "ingest_wal":
        cmd += ["--serve", serve]
    timeout = max(10.0, DEADLINE_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


# ----- per-layer metrics from a traced run ------------------------------

def histogram_quantile(h, q):
    """The registry's own quantile rule (obs/metrics.cpp): nearest rank
    over log2 buckets, interpolated inside the bucket, clamped to
    [min, max]."""
    count = h.get("count", 0)
    if count <= 0:
        return 0.0
    rank = max(1, -(-q * count // 1))
    seen = 0
    for upper, n in h["buckets"]:
        if seen + n >= rank:
            lower = upper / 2
            value = lower + (upper - lower) * (rank - seen) / n
            return min(max(value, h["min"]), h["max"])
        seen += n
    return h["max"]


def quantile(values, q):
    """Linear-interpolation quantile, the driver's convention."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def load_json(path, default):
    if not os.path.isfile(path):
        return default
    with open(path) as f:
        return json.load(f)


def self_ms(stats, *names):
    """Summed self time of the named spans, in ms."""
    return sum(stats[n].self_us for n in names if n in stats) / 1e3


def layer_shares(workload, stats, histograms):
    """Each layer's share of end-to-end time: its spans' self time over the
    summed duration of the driver's operation spans. WAL appends and
    fsyncs run inside the engine's spans, so their histogram time is
    moved out of admission and fastpath pro rata."""
    op = stats.get(OPERATION_SPAN[workload])
    total_ms = op.total_us / 1e3 if op else 0.0
    times = {layer: self_ms(stats, *names)
             for layer, names in LAYER_SPANS.items()}
    wal_ms = sum(histograms.get(n, {}).get("sum", 0.0)
                 for n in ("serve.wal.append_ms", "serve.wal.fsync_ms"))
    engine_ms = times["admission"] + times["fastpath"]
    wal_ms = min(wal_ms, engine_ms)
    if engine_ms > 0:
        for layer in ("admission", "fastpath"):
            times[layer] -= wal_ms * times[layer] / engine_ms
    times["wal"] = wal_ms
    times["other"] = max(0.0, total_ms - sum(times.values()))
    shares = {layer: (times[layer] / total_ms if total_ms > 0 else 0.0)
              for layer in LAYERS}
    return total_ms, times, shares


def claims(workload, shares, stats, total_ms):
    """The dominant-layer claims of the benchmark's README, checked."""
    solver = shares["mip"] + shares["lp"] + shares["presolve"]
    if workload == "exact_solve":
        return [("mip+lp+presolve dominate", solver > 0.5,
                 f"{solver:.1%} of solve time")]
    if workload == "admit_exact":
        root_ms = sum(stats[n].total_us for n in ("mip.root_lp", "mip.cut_loop")
                      if n in stats) / 1e3
        root = root_ms / total_ms if total_ms > 0 else 0.0
        return [("step MIP (mip+lp+presolve) dominates", solver > 0.5,
                 f"{solver:.1%} of decision time"),
                ("root LP + cut loop are most of it", root > solver / 2,
                 f"{root:.1%} of decision time")]
    io = shares["codec"] + shares["wal"] + shares["daemon"]
    return [("codec+WAL+queue dominate", io > solver and io > 0.5,
             f"{io:.1%} of request latency"),
            ("mip+lp+presolve a small share", solver < 0.1,
             f"{solver:.1%} of request latency")]


def per_layer(workload, driver_out, out_dir):
    events = []
    for name in ("program_trace.json", "bench_trace.json"):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            events.extend(fold.load_events(path))
    spans, _ = fold.fold(events)
    stats = fold.aggregate(spans)
    registry = load_json(os.path.join(out_dir, "program_metrics.json"), {})
    counters = registry.get("counters", {})
    histograms = registry.get("histograms", {})

    def total_ms(name):
        return stats[name].total_us / 1e3 if name in stats else 0.0

    def durations(name):
        return stats[name].durations if name in stats else []

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def driver(name):
        return float(driver_out.get(name, 0.0))

    warm = counters.get("lp.warm_starts", 0.0)
    m = {
        "tvnep.build_ms": total_ms("tvnep.build"),
        "mip.solve_ms": total_ms("mip.solve"),
        "presolve.ms": self_ms(stats, "presolve.run", "presolve.round"),
        "lp.phase1_ms": self_ms(stats, "lp.phase1"),
        "lp.phase2_ms": self_ms(stats, "lp.phase2"),
        "lp.dual_ms": self_ms(stats, "lp.dual"),
        "mip.root_lp_ms": self_ms(stats, "mip.root_lp"),
        "mip.cut_loop_ms": self_ms(stats, "mip.cut_loop"),
        "mip.tree_ms": self_ms(stats, "mip.solve_tree", "mip.node_lp"),
        "mip.heuristic_ms": self_ms(stats, "mip.heuristic_dive"),
        "admission.step_self_ms": self_ms(stats, "serve.step"),
        "lp.pivots": counters.get("mip.lp_pivots", 0.0),
        "lp.refactorizations": counters.get("lp.refactorizations", 0.0),
        "lp.warm_fallback_ratio":
            counters.get("lp.dual_fallbacks", 0.0) / warm if warm else 0.0,
        "mip.nodes": counters.get("mip.nodes", 0.0),
        "mip.cuts_added": counters.get("mip.cuts.added", 0.0),
        "mip.cut_rounds": driver("mip.cut_rounds"),
        "mip.rc_fixed": driver("mip.rc_fixed"),
        "presolve.rows_removed": counters.get("presolve.rows_removed", 0.0),
        "admission.exact_ms_p50": driver("admission.exact_ms_p50"),
        "admission.exact_ms_p99": driver("admission.exact_ms_p99"),
        "admission.fastpath_ms_p50": driver("admission.fastpath_ms_p50"),
        "admission.shed_timeout": driver("admission.shed_timeout"),
        "admission.shed_infeasible": driver("admission.shed_infeasible"),
        "admission.shed_too_large": driver("admission.shed_too_large"),
        "admission.exact_ratio": driver("admission.exact_ratio"),
        "admission.wasted_share": driver("admission.wasted_share"),
        "admission.component_mean": driver("admission.component_mean"),
        "codec.parse_us": mean(durations("serve.request/parse")),
        "codec.write_us": mean(durations("serve.request/write")),
        "fastpath.us_p50": quantile(durations("serve.fastpath"), 0.5),
        "daemon.queue_ms_p50":
            quantile(durations("serve.request/queue"), 0.5) / 1e3,
        "daemon.queue_ms_p99":
            quantile(durations("serve.request/queue"), 0.99) / 1e3,
        "daemon.overload_rejects": counters.get("serve.reject.overload", 0.0)
        + counters.get("serve.reject.queue_full", 0.0),
        "wal.append_ms_p50":
            histogram_quantile(histograms.get("serve.wal.append_ms", {}), 0.5),
        "wal.append_ms_p99":
            histogram_quantile(histograms.get("serve.wal.append_ms", {}), 0.99),
        "wal.fsync_ms_p50":
            histogram_quantile(histograms.get("serve.wal.fsync_ms", {}), 0.5),
        "wal.fsync_ms_p99":
            histogram_quantile(histograms.get("serve.wal.fsync_ms", {}), 0.99),
        "wal.snapshots": counters.get("serve.wal.snapshots", 0.0),
        "wal.snapshot_ms": driver("wal.snapshot_ms"),
        "wal.bytes_per_decision": driver("wal.bytes_per_decision"),
        "driver.late_ms_max": driver("driver.late_ms_max"),
        "trace.overhead": driver("trace.overhead"),
    }
    total, times, shares = layer_shares(workload, stats, histograms)
    for layer in LAYERS:
        m[f"share.{layer}"] = shares[layer]

    print(f"layer shares of end-to-end time, {workload} "
          f"(traced, {total:.1f} ms in {OPERATION_SPAN[workload]} spans):")
    for layer in sorted(LAYERS, key=lambda l: -shares[l]):
        print(f"  {layer:<10} {times[layer]:>12.1f} ms  {shares[layer]:>7.1%}")
    for claim, held, detail in claims(workload, shares, stats, total):
        print(f"  claim: {claim}: {'confirmed' if held else 'NOT confirmed'}"
              f" ({detail})")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true",
                        help="keep the run directory (traces, WAL)")
    args = parser.parse_args()

    driver, serve, base = build()
    started = time.monotonic()
    out_dir = os.path.join(base, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        out = run_driver(driver, serve, args.workload, args.seed,
                         args.seconds, args.trace, out_dir, started)
        for error in out.get("errors", []):
            print(f"check failed: {error}", file=sys.stderr)
        if not out["correct"]:
            metrics = {}
        elif args.trace:
            values = per_layer(args.workload, out, out_dir)
            metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                       for name, value in values.items()}
        else:
            # Shown, not gated: these move too much between runs
            # (README.md, caveats).
            print(f"{args.workload}: {int(out['samples'])} operations, "
                  f"ms_mean={out['ms_mean']:.4f} ms_p50={out['ms_p50']:.4f} "
                  f"ms_p90={out['ms_p90']:.4f} ms_p99={out['ms_p99']:.4f}"
                  + (f" refused={int(out['refused'])}" if "refused" in out
                     else ""))
            metrics = {name: {"value": out[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        if not args.keep:
            shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
