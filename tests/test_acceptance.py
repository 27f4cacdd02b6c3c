"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Every criterion is checked at full strength — exhaustive exploration with
default bounds, value sets computed from the exploration itself, and the
10,000-walk random cross-validation. Expect this module to take on the
order of ten seconds, dominated by criterion 9.
"""

import math
import time

import pytest

import lockstep.scenarios as s
from lockstep.catalog import CATALOG, catalog_check, get
from lockstep.explorer import (explore, find_shortest, random_walks, terminal_values,
                               verify_violation)
from lockstep.kernel import System

WALK_SEED = 20260815


@pytest.fixture(scope="module")
def systems():
    return {e.name: System(e.build()) for e in CATALOG}


@pytest.fixture(scope="module")
def reports(systems):
    return {name: explore(sys) for name, sys in systems.items()}


def verdict(n, ok, text):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {n}: {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_01_catalog_conformance():
    t0 = time.time()
    rows = catalog_check()
    elapsed = time.time() - t0
    bad = [r.name for r in rows if not r.ok]
    ok = len(rows) == 14 and not bad and elapsed < 60
    verdict(1, ok, f"catalog-check 14/14 entries match documented outcomes "
                   f"in {elapsed:.1f}s (<60s); failures: {bad or 'none'}")


def test_criterion_02_problem_reproduction(reports):
    designated = {"torn-read-raw": "torn_read",
                  "lost-message-basic": "lost_message",
                  "undisciplined-third-party": "torn_read",
                  "deadlock-direct-duplex": "deadlock"}
    problems = []
    for name, cls in designated.items():
        report = reports[name]
        if cls not in report.violation_classes:
            problems.append(f"{name}: {cls} not found")
            continue
        sc = get(name)
        shortest = find_shortest(sc, cls)
        if shortest is None:
            problems.append(f"{name}: no minimal counterexample")
            continue
        if not verify_violation(sc, shortest):
            problems.append(f"{name}: minimal counterexample does not replay")
        dfs_len = min(len(v.trace) for v in report.violations if v.cls == cls)
        if len(shortest.trace) > dfs_len:
            problems.append(f"{name}: BFS witness longer than DFS witness")
    verdict(2, not problems,
            f"4 failure scenarios each yield the designated violation with a "
            f"replayable minimal counterexample; problems: {problems or 'none'}")


def test_criterion_03_solution_verification(reports):
    fixed = ("torn-read-locked", "status-channel-exact",
             "deadlock-fixed-indirect", "duplex-strict")
    problems = []
    for name in fixed:
        r = reports[name]
        if r.bounds_hit:
            problems.append(f"{name}: bounds hit")
        if r.violations:
            problems.append(f"{name}: {sorted(r.violation_classes)}")
    verdict(3, not problems,
            f"4 corrected scenarios explore to completion with zero violations; "
            f"problems: {problems or 'none'}")


def test_criterion_04_exactly_once_in_order(systems, reports):
    report = reports["status-channel-exact"]
    want = ((1,), (2,), (3,))
    logs = terminal_values(systems["status-channel-exact"], "ch", ("sent", "received"))
    ok = (not report.bounds_hit
          and report.states_visited < 10_000
          and all(received == sent == want for sent, received in logs))
    verdict(4, ok, f"status channel delivers exactly-once in order over the full "
                   f"graph ({report.states_visited} states < 10000)")


def test_criterion_05_lost_update_oracle(systems):
    lost = terminal_values(systems["register-lost-update"], "reg", ("content",))
    lost_values = {content[0] for (content,) in lost}
    atomic = terminal_values(systems["register-atomic-update"], "reg", ("content",))
    atomic_values = {content[0] for (content,) in atomic}
    ok = min(lost_values) == 2 and max(lost_values) == 6 and atomic_values == {6}
    verdict(5, ok, f"divisible increments reach terminal values "
                   f"{sorted(lost_values)} (min 2, max 6, emergent from "
                   f"exploration); atomic updates always end at 6")


def test_criterion_06_schedule_count_sanity():
    steps = [s.local("x", [1]), s.local("x", [2]), s.local("x", [3])]
    sc = s.Scenario.from_parts("independent", 1, [],
                               [s.process(0, *steps), s.process(1, *steps)])
    report = explore(sc)
    expected = math.comb(6, 3)
    ok = report.schedules_complete == expected == 20
    verdict(6, ok, f"two independent 3-step processes: schedulesComplete = "
                   f"{report.schedules_complete}, C(6,3) = {expected}")


def test_criterion_07_dekker_verification(reports):
    r = reports["dekker-mutex"]
    ok = (not r.bounds_hit
          and "monitor_assert:mutual_exclusion" not in r.violation_classes
          and "deadlock" not in r.violation_classes
          and not r.violations)
    verdict(7, ok, f"dekker-mutex complete ({r.states_visited} states, "
                   f"{r.schedules_complete} schedules): mutual exclusion holds, "
                   f"no deadlock")


def test_criterion_08_decomposition_equivalence(systems):
    relay = terminal_values(systems["decomposition-equivalence"], 2, ("r1", "r2", "r3"))
    cell = terminal_values(systems["lost-message-basic"], 1, ("r1", "r2", "r3"))
    ok = relay == cell and len(relay) == 20
    verdict(8, ok, f"reader-observed sequence sets for the one-slot cell and "
                   f"the two-rendezvous relay are equal ({len(relay)} sequences)")


def test_criterion_09_explorer_cross_validation(reports):
    problems = []
    for e in CATALOG:
        report = reports[e.name]
        walks = random_walks(e.build(), walks=10_000, seed=WALK_SEED)
        extra = walks.classes - report.violation_classes
        if extra:
            problems.append(f"{e.name}: walks found {sorted(extra)} the explorer missed")
        for v in report.violations:
            if not verify_violation(e.build(), v):
                problems.append(f"{e.name}: witness for {v.cls} failed to replay")
    verdict(9, not problems,
            f"10000 random schedules per scenario found no class the exhaustive "
            f"search missed, and every reported class replays; "
            f"problems: {problems or 'none'}")


def test_criterion_10_determinism(reports):
    problems = []
    for e in CATALOG:
        a, b = reports[e.name], explore(e.build())
        if (a.violation_classes != b.violation_classes
                or len(a.violations) != len(b.violations)
                or a.schedules_complete != b.schedules_complete
                or a.states_visited != b.states_visited):
            problems.append(e.name)
    verdict(10, not problems,
            f"explore() twice per scenario: identical classes, counts, and "
            f"schedulesComplete; diverged: {problems or 'none'}")
