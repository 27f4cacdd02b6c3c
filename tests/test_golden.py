"""Golden reports: observable output pinned across refactors of the engine.

``tests/data/golden_reports.json`` holds, for every catalog entry and for a
few small scenarios that reach ops the catalog never uses (``check``,
``if_status``, ``assert_local``, a read before the first write), the full
exploration report (classes, witness traces, state hashes, state and
schedule counts), the sorted hashes of every terminal state and of every
reachable state, the shortest witness of each class and the classes of a
seeded batch of random walks. A refactor of the kernel, the mechanisms or
the explorer must reproduce it byte for byte, so saved witnesses stay
verifiable.

Regenerate the fixture only for an intended observable change::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib

import pytest

import lockstep.scenarios as s
from lockstep import catalog
from lockstep.explorer import explore, find_shortest, random_walks
from lockstep.kernel import System

from helpers import reachable

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_reports.json"


def _op_scenarios():
    """Small scenarios for the ops and corner cases the catalog does not reach."""
    out = []
    for kind in ("status_channel", "last_message_channel"):
        out.append(s.Scenario.from_parts(
            f"check-{kind}", 1,
            [getattr(s, kind)("ch")],
            [s.process(0, s.check("ch", "a"), s.write("ch", [1]), s.check("ch", "b"),
                       s.write("ch", [2])),
             s.process(1, s.check("ch", "c"), s.read("ch", "v"), s.check("ch", "d"))],
            [s.sent_received_order("ch")]))
    out.append(s.Scenario.from_parts(
        "check-duplex_channel", 1,
        [s.duplex_channel("dx", 0, 1, last_message=True)],
        [s.process(0, s.check("dx", "a"), s.write("dx", [1]), s.check("dx", "b"),
                   s.write("dx", [2])),
         s.process(1, s.check("dx", "c"), s.read("dx", "v"), s.write("dx", [3]),
                   s.check("dx", "d"))],
        [s.lost_unread("dx"), s.recipient_tag("dx")]))
    out.append(s.Scenario.from_parts(
        "if-status-both-branches", 1,
        [s.status_channel("sc")],
        [s.process(0, s.write("sc", [1])),
         s.process(1, s.if_status("sc", full=[s.read("sc", "v"), s.local("t", [1])],
                                  empty=[s.local("t", [0])]))],
        [s.terminal_assert(1, "t", [1])]))
    out.append(s.Scenario.from_parts(
        "assert-local-pass-and-fail", 1,
        [s.message_cell("mc")],
        [s.process(0, s.local("x", [1]), s.assert_local("x", [1]), s.write("mc", [2])),
         s.process(1, s.read("mc", "y"), s.assert_local("y", [2]),
                   s.assert_local("y", None))]))
    out.append(s.Scenario.from_parts(
        "read-before-first-write", 1,
        [s.message_cell("mc")],
        [s.process(0, s.read("mc", "v"), s.local("n", None), s.read("mc", "w")),
         s.process(1, s.write("mc", [3]), s.write("mc", [4]))],
        [s.lost_unread("mc")]))
    return out


def _cases():
    """name -> (scenario, classes to search shortest witnesses for)."""
    out = {e.name: (e.build(), e.expected_classes) for e in catalog.entries()}
    out.update((sc.name, (sc, explore(sc).violation_classes)) for sc in _op_scenarios())
    return out


def golden_doc(scenario, classes):
    sys = System(scenario)
    report = explore(sys)
    shortest = {}
    for cls in sorted(classes):
        v = find_shortest(sys, cls)
        shortest[cls] = None if v is None else v.to_doc()
    states = reachable(sys)
    hashes = sorted(sys.state_hash(st) for st in states)
    return {
        "report": report.to_doc(),
        "terminal_hashes": sorted(sys.state_hash(st) for st in states if sys.all_terminated(st)),
        "reachable_states": len(hashes),
        "reachable_digest": hashlib.sha256("\n".join(hashes).encode()).hexdigest(),
        "shortest": shortest,
        "walk_classes": sorted(random_walks(sys, walks=200, seed=11).classes),
    }


def build_golden():
    return {name: golden_doc(*case) for name, case in _cases().items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(_cases())


def test_op_scenarios_reach_their_ops(golden):
    """The extra scenarios exercise both if_status branches and a failed assert."""
    ifs = golden["if-status-both-branches"]
    assert ifs["report"]["schedules_complete"] > 1
    classes = [v["class"] for v in ifs["report"]["violations"]]
    assert classes == ["monitor_assert:terminal_assert"]  # the empty branch ran
    failed = golden["assert-local-pass-and-fail"]["report"]["violations"]
    assert [v["class"] for v in failed] == ["monitor_assert:assert_local"]


@pytest.mark.parametrize("name", sorted(_cases()))
def test_reproduces_golden_report(golden, name):
    assert golden_doc(*_cases()[name]) == golden[name]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
