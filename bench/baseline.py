"""Measure the benchmark's baseline and write it to ``bench/baseline.json``.

    python3 bench/baseline.py --seeds 401-410 --seconds 30

Runs every workload once per seed untraced, in its own process, and once
traced with the first seed. For each end-to-end metric it records the
median over the seeds and the distance between the first and third
quartile as a share of the median, as ``statistics.quantiles(n=4)`` gives
them. Any run that fails or reports a wrong answer stops it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"baseline: {workload} seed {seed} trace {trace} is wrong:\n{proc.stdout}")
    return result["metrics"]


def summary(runs):
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": float(f"{statistics.median(values):.6g}"),
                     "iqr_over_median": round((q3 - q1) / statistics.median(values), 4),
                     "unit": runs[0][name]["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="401-410", help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = ap.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    seeds = range(first, last + 1)
    sys.path.insert(0, str(BENCH.parent / "src"))
    from workloads import WORKLOADS

    end_to_end, per_layer = {}, {}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run(name, seed, args.seconds, 0))
            print(name, seed, {k: round(m["value"], 6) for k, m in runs[-1].items()}, flush=True)
        end_to_end[name] = summary(runs)
        per_layer[name] = {k: float(f"{m['value']:.6g}")
                           for k, m in run(name, first, args.seconds, 1).items()}
    Path(args.out).write_text(json.dumps({
        "what": "Baseline of the benchmark in BENCHMARK.json, from bench/baseline.py.",
        "machine": f"Python {platform.python_version()} on {platform.system()}, "
                   f"{os.cpu_count()} CPUs of a shared host",
        "end_to_end": {
            "runs": f"one run per seed, seeds {first}..{last}, --trace 0 --seconds "
                    f"{args.seconds:g}; median, and quartile distance over median, over the "
                    f"{len(seeds)} runs",
            "workloads": end_to_end},
        "per_layer": {
            "runs": f"one run per workload, seed {first}, --trace 1 --seconds {args.seconds:g}",
            "workloads": per_layer},
    }, indent=2) + "\n")


if __name__ == "__main__":
    main()
