"""Tests for the benchmark itself, at sizes that run in seconds.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lockstep import explorer, kernel

import families
import reference
import workloads
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent

SMALL = [
    workloads.lost_update(incs=(2, 2), states=147, transitions=214),
    workloads.torn_read(writers=2, width=2, readers=2, states=1331, transitions=1854,
                        witness=3),
    workloads.shortest_relay(relays=2, messages=2, states=72, transitions=115, witness=6),
    workloads.walks_catalog(walks=20),
]


@pytest.mark.parametrize("incs", [(1, 1), (2, 2), (1, 1, 1), (3, 3), (2, 1, 1)])
def test_lost_update_matches_multinomial(incs):
    report = explorer.explore(families.lost_update(incs, random.Random(0)))
    assert report.schedules_complete == families.lost_update_schedules(incs)
    assert report.violation_classes == frozenset()


@pytest.mark.parametrize("writers,width,readers", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_torn_read_matches_multinomial(writers, width, readers):
    report = explorer.explore(families.torn_read(writers, width, readers, random.Random(0)))
    assert report.schedules_complete == families.torn_read_schedules(writers, width, readers)
    assert report.violation_classes == {"torn_read"}


def test_multinomial_closed_forms():
    assert families.lost_update_schedules((3, 3, 3)) == 227_873_431_500
    assert families.lost_update_schedules((3, 3, 2)) == 6_544_057_520
    assert families.torn_read_schedules(4, 2, 2) == 7_484_400


def _answers(scenario, kind):
    sys_ = kernel.System(scenario)
    report = explorer.explore(sys_)
    witness = explorer.find_shortest(sys_, kind)
    return (report.states_visited, report.schedules_complete,
            report.violation_classes, witness and len(witness.trace))


@pytest.mark.parametrize("build,kind", [
    (lambda rng: families.lost_update((2, 1), rng), "deadlock"),
    (lambda rng: families.torn_read(3, 2, 1, rng), "torn_read"),
    (lambda rng: families.relay_chain(3, 2, rng), "deadlock"),
])
def test_seed_changes_documents_but_no_answer(build, kind):
    docs = {build(random.Random(seed)).serialize() for seed in range(6)}
    assert len(docs) > 1
    assert len({_answers(build(random.Random(seed)), kind) for seed in range(6)}) == 1


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_verdict_answers_are_right(workload):
    tally = workload.verdict(workloads.setup(workload, 3), 3)
    assert tally.attempted > 0
    assert (tally.failed, tally.problems) == (0, [])


def test_reference_is_fixed_work_and_scales_to_nominal_speed():
    assert reference.unit() == 12 ** 4
    nominal = reference.NOMINAL_S
    assert reference.scale(3.0, nominal, nominal) == pytest.approx(3.0)
    # A CPU that runs the reference at half speed halves the scaled time.
    assert reference.scale(3.0, 2 * nominal, 2 * nominal) == pytest.approx(1.5)
    assert reference.block(0.0) > 0


def test_raising_operation_counts_as_failed():
    tally = workloads.Tally()
    tally.check("ok", lambda: None)
    tally.check("wrong", lambda: "states 1, expected 2")
    tally.check("raises", lambda: 1 // 0)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.problems[1].startswith("raises: raised ZeroDivisionError")


def _traced(workload, seed):
    with Tracer() as tracer:
        workload.verdict(workloads.setup(workload, seed), seed)
    return tracer


def _counted(workload, seed):
    """Distinct states and System.apply calls of one verdict, counted."""
    systems = workloads.setup(workload, seed)
    seen, transitions = set(), 0
    for sys_ in systems:
        seen.add(sys_.initial_state())
        apply = sys_.apply

        def counted(state, action, apply=apply):
            nonlocal transitions
            transitions += 1
            post = apply(state, action)
            seen.add(post)
            return post

        sys_.apply = counted
    workload.verdict(systems, seed)
    return len(seen), transitions


@pytest.mark.parametrize("workload", SMALL[:3] + [
    workloads.WORKLOADS[n] for n in ("lost-update", "torn-read", "shortest-relay")],
    ids=lambda w: w.name)
def test_known_work_is_what_a_verdict_does(workload):
    assert workload.work(None, 4) == _counted(workload, 4)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_counts_repeat(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    assert (first.calls, first.extra, first.edges) == (second.calls, second.extra, second.edges)
    assert first.calls["scenarios.validate"] == len(workloads.setup(workload, 5))
    assert first.calls["programs.compile"] > 0
    # At this commit every transition, walk steps included, is one
    # System.apply call, so the reference walker agrees with the program.
    _, transitions = workload.work(workloads.setup(workload, 5), 5)
    assert first.calls["kernel.apply"] == transitions


def test_traced_counts_at_benchmark_size():
    tracer = _traced(workloads.WORKLOADS["lost-update"], 7)
    assert tracer.calls["kernel.apply"] == 112_086
    assert tracer.calls["kernel.state.hash"] == 275_187
    assert tracer.calls["kernel.state.eq"] == 124_004
    assert tracer.calls["kernel.state_hash"] == 0


def test_tracer_sees_every_memo_lookup_and_restores_originals():
    originals = kernel.GlobalState.__hash__, kernel.System.apply, explorer.explore
    with Tracer() as tracer:
        explorer.explore(workloads.setup(SMALL[0], 0)[0])
    assert (kernel.GlobalState.__hash__, kernel.System.apply, explorer.explore) == originals
    # explore looks every post state up in its memo, then reads or stores it.
    assert tracer.edges[("explorer.explore", "kernel.state.hash")] >= \
        2 * tracer.calls["kernel.apply"]
    assert set(tracer.calls) == set(LAYERS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lost-update", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "torn-read", "--seed", "2",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
