#!/usr/bin/env python3
"""Runs one workload once per seed and summarises each end-to-end metric.

    python3 perfbench/repeat.py --workload admit_exact --seeds 1-10
                                [--seconds 30] [--json OUT.json]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: their distance as a
share of the median, which must stay within the metric's bound in
BENCHMARK.json. The figures run.py shows but does not gate (latency
percentiles, refusals) are summarised the same way under "shown". With
--json it also writes the raw values and the summaries, the format of
perfbench/BASELINE.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--json")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        # The line before the result: "<workload>: N operations, k=v ...".
        shown = dict(item.split("=") for item in lines[-2].split()
                     if "=" in item)
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"]
                                 for k, v in result["metrics"].items()},
                     "shown": {k: float(v) for k, v in shown.items()}})
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()))

    summary, shown = {}, {}
    for key, out in (("metrics", summary), ("shown", shown)):
        for name in runs[0][key]:
            out[name] = summarise([r[key][name] for r in runs])
            s = out[name]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{name:<14} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={spread}"
                  + ("" if key == "metrics" else "  (shown, not gated)"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary, "shown": shown},
                      f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
