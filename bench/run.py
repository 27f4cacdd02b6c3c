"""Benchmark for lockstep: time to verdict on scaled scenario families.

    python3 bench/run.py                  # every workload, each in its own process
    python3 bench/run.py --workload lost-update --seed 1 --seconds 30 --trace 0

One run measures one workload. With ``--trace 0`` it runs one warm-up
verdict, then repeats, for the rest of ``--seconds``, a short burst of
set-ups (build, validate, compile), one verdict and a block of reference
work, and reports the medians of set-up and verdict times, untraced. Those
times are scaled to a nominal speed of the shared CPU, measured by the
reference work around them (see ``reference.py``). With ``--trace 1`` it
alternates untraced and traced verdicts and reports per-layer calls and
self time from the traced verdict of median duration. Every answer is
checked against its known value. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Each workload runs in its own process because peak RSS is a lifetime
high-water mark of the process.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up of one workload takes about a millisecond, and the speed of a shared
# CPU drifts over seconds, so set-up is timed in a short burst before every
# verdict and the median is taken over all bursts.
SETUP_BURST_S = 0.25
SETUP_MIN_REPS = 5


def _import_lockstep():
    """Put this checkout's ``src`` first on the path and refuse any other copy."""
    if not (SRC / "lockstep" / "__init__.py").is_file():
        sys.exit(f"bench: no lockstep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lockstep
    if SRC not in Path(lockstep.__file__).resolve().parents:
        sys.exit(f"bench: imported lockstep from {lockstep.__file__}, not {SRC}")


def _time_setup(workload, seed, setup, times):
    """Append set-up timings for one burst; return the last set-up's systems."""
    start = time.perf_counter()
    for rep in itertools.count():
        if rep >= SETUP_MIN_REPS and time.perf_counter() - start >= SETUP_BURST_S:
            return systems
        t0 = time.perf_counter()
        systems = setup(workload, seed)
        times.append(time.perf_counter() - t0)


def _repeat(seconds, once):
    """Call ``once`` until the next call would end past ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(once())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def end_to_end(workload, seed, seconds):
    from workloads import setup
    start = time.perf_counter()
    # A warm-up verdict fills the caches, and its high-water mark is the
    # peak RSS: later verdicts raise it a little through heap fragmentation,
    # and the reference work below must not count.
    tallies = [workload.verdict(setup(workload, seed), seed)]
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times, verdicts, raw, units = [], [], [], []
    units.append(reference.block(reference.SHARE * (time.perf_counter() - start)))

    def once():
        before = units[-1]
        burst = []
        systems = _time_setup(workload, seed, setup, burst)
        gc.collect()
        t0 = time.perf_counter()
        tallies.append(workload.verdict(systems, seed))
        dt = time.perf_counter() - t0
        units.append(reference.block(reference.SHARE * dt))
        setup_times.extend(reference.scale(t, before, before) for t in burst)
        verdicts.append(reference.scale(dt, before, units[-1]))
        raw.append(dt)

    _repeat(seconds - (time.perf_counter() - start), once)
    states, transitions = workload.work(setup(workload, seed), seed)
    verdict_s = statistics.median(verdicts)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdict_s": (verdict_s, "s"),
        "states_per_s": (states / verdict_s, "1/s"),
        "transitions_per_s": (transitions / verdict_s, "1/s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    notes = [f"{len(verdicts)} verdicts, {states} states, {transitions} transitions each",
             f"unscaled: verdict median {statistics.median(raw):.6g} s, "
             f"reference unit median {statistics.median(units):.6g} s "
             f"(nominal {reference.NOMINAL_S} s)"]
    walks = tallies[0].walks
    if walks:
        notes.append(f"walks_per_s = {walks / verdict_s:.6g} 1/s")
    return tallies, metrics, notes


def per_layer(workload, seed, seconds):
    from tracer import LAYERS, Tracer
    from workloads import setup
    systems = setup(workload, seed)
    tallies = [workload.verdict(systems, seed)]   # warm-up

    def once():
        gc.collect()
        t0 = time.perf_counter()
        tally = workload.verdict(systems, seed)
        plain = time.perf_counter() - t0
        tallies.append(tally)
        gc.collect()
        with Tracer() as tracer:
            traced_systems = setup(workload, seed)
            t0 = time.perf_counter()
            tally = workload.verdict(traced_systems, seed)
            traced = time.perf_counter() - t0
        tallies.append(tally)
        return plain, traced, tracer, tally

    runs = _repeat(seconds, once)
    overhead = statistics.median(r[1] for r in runs) / statistics.median(r[0] for r in runs)
    _, _, tr, tally = sorted(runs, key=lambda r: r[1])[(len(runs) - 1) // 2]
    if any((r[2].calls, r[2].extra, r[2].edges) != (tr.calls, tr.extra, tr.edges)
           for r in runs):
        tally.problems.append("traced call counts differ between identical verdicts")

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tr.calls[layer], "count")
        metrics[f"{layer}.s"] = (tr.self_s(layer), "s")
    offered = tr.calls["kernel.enabled_actions"]
    metrics["kernel.enabled_actions.width"] = (
        tr.extra["kernel.enabled_actions"] / offered if offered else 0.0, "actions")
    metrics["monitors.hits"] = (
        sum(tr.extra[layer] for layer in LAYERS if layer.startswith("monitors.")), "count")
    # Under explore every System.apply is one transition and every
    # state_hash is one recorded monitor hit.
    applied = tr.edges.get(("explorer.explore", "kernel.apply"), 0)
    new_states = tally.explored - tr.calls["explorer.explore"]
    metrics["explorer.dedup_ratio"] = (
        (applied - new_states) / applied if applied else 0.0, "ratio")
    recorded = tr.edges.get(("explorer.explore", "kernel.state_hash"), 0)
    metrics["explorer.record.kept_ratio"] = (
        tally.kept / recorded if recorded else 0.0, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    notes = [f"{len(runs)} untraced/traced verdict pairs; calls by caller:"]
    notes += [f"  {layer} <- {caller or 'bench'}: {n}"
              for (caller, layer), n in sorted(tr.edges.items(), key=lambda e: -e[1])]
    return tallies, metrics, notes


def run_one(args):
    _import_lockstep()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    tallies, metrics, notes = measure(workload, args.seed, args.seconds)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    print(f"{workload.name} (seed {args.seed}, trace {args.trace}): {notes[0]}")
    for line in notes[1:]:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for p in dict.fromkeys(problems):
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Every workload in its own process; exit non-zero if any run failed."""
    _import_lockstep()
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; default: all, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
