"""Symmetry reduction: interchangeable processes share one memo entry.

``explore`` keys its memo by a representative state in which the slots of
each group of interchangeable processes are sorted. The report must not change:
the differential tests run every scenario reduced and unreduced (the group
detector patched to find no group) and compare everything ``explore``
reports, and check the counts against the independent oracles.
"""

import math
import random

import pytest

import lockstep.scenarios as s
from lockstep import catalog, explorer
from lockstep.explorer import Bounds, _interchangeable, _Orbits, explore
from lockstep.kernel import System
from lockstep.monitors import compile_monitors

from helpers import (CountingSystem, bench_families, maximal_schedule_count, reachable,
                     sorted_groups_form, swapped)
from test_golden import _op_scenarios

families = bench_families()

FAMILY_CASES = [("lost_update", ((2, 2),)), ("lost_update", ((2, 2, 1),)),
                ("lost_update", ((3, 3, 3),)), ("torn_read", (2, 2, 2)),
                ("torn_read", (3, 2, 2))]


def _groups(sys):
    return _interchangeable(sys, compile_monitors(sys))


def _family(name, args, seed=0):
    return getattr(families, name)(*args, random.Random(seed))


def _differential_cases():
    out = [pytest.param(lambda name=name: catalog.get(name), id=name)
           for name in catalog.names()]
    out += [pytest.param(lambda sc=sc: sc, id=sc.name) for sc in _op_scenarios()]
    out += [pytest.param(lambda name=name, args=args: _family(name, args),
                         id=f"{name}-{args}") for name, args in FAMILY_CASES]
    return out


def _observed(sys, report):
    return (report.to_doc(),
            [(v.cls, v.detail, v.trace, v.state_hash) for v in report.violations],
            sorted(sys.state_hash(st) for st in report.terminal_states))


def _both(sys, monkeypatch, bounds=None):
    """explore's report with symmetry reduction, and without it."""
    reduced = explore(sys, bounds)
    with monkeypatch.context() as m:
        m.setattr(explorer, "_interchangeable", lambda sys, monitors: ())
        unreduced = explore(sys, bounds)
    return reduced, unreduced


@pytest.mark.parametrize("build", _differential_cases())
def test_reduced_and_unreduced_reports_agree(build, monkeypatch):
    sys = System(build())
    reduced, unreduced = _both(sys, monkeypatch)
    assert _observed(sys, reduced) == _observed(sys, unreduced)
    assert reduced.states_visited == len(reachable(sys))
    assert reduced.schedules_complete == maximal_schedule_count(sys)
    assert reduced.distinct_terminal_states == len(reduced.terminal_states)


@pytest.mark.parametrize("depth", range(0, 16, 3))
@pytest.mark.parametrize("build", [
    pytest.param(lambda: catalog.get("register-lost-update"), id="register-lost-update"),
    pytest.param(lambda: _family("lost_update", ((2, 2, 1),)), id="lost_update-2-2-1"),
    pytest.param(lambda: _family("torn_read", (2, 2, 2)), id="torn_read-2x2x2")])
def test_a_depth_bound_cuts_both_runs_alike(build, depth, monkeypatch):
    """Memo entries cut by the depth bound are keyed canonically too, so a
    shallower swap of a cut state expands it again, as the state would be."""
    sys = System(build())
    reduced, unreduced = _both(sys, monkeypatch, Bounds(max_depth=depth))
    assert _observed(sys, reduced) == _observed(sys, unreduced)


def test_the_state_bound_counts_orbits():
    """Stored entries stand for at most ``max_states`` states, and a bound
    that fits every state is not hit."""
    sys = System(_family("lost_update", ((2, 2),)))
    total = len(reachable(sys))
    for max_states in range(total + 2):
        report = explore(sys, Bounds(max_states=max_states))
        assert report.states_visited <= max(1, max_states)
        assert report.bounds_hit == (max_states < total)


def test_the_differential_runs_reduce():
    """Every bench family case and two catalog entries have a group, so the
    differential above compares runs that really differ."""
    for name, args in FAMILY_CASES:
        assert _groups(System(_family(name, args)))
    assert [name for name in catalog.names() if _groups(System(catalog.get(name)))] \
        == ["register-atomic-update", "register-lost-update"]


# -- group detection ---------------------------------------------------------------


def test_lost_update_groups_the_equal_programs():
    """p0 and p1 add three times, p2 twice."""
    assert _groups(System(_family("lost_update", ((3, 3, 2),)))) == ((0, 1),)


def test_torn_read_groups_the_readers_not_the_writers():
    """The writers write different words; the readers have equal programs
    and equal torn_value monitors."""
    assert _groups(System(_family("torn_read", (3, 2, 2)))) == ((3, 4),)


def _pair(steps, monitors=(), mechanisms=None):
    mechanisms = mechanisms or [s.shared_register("reg", [0])]
    return System(s.Scenario.from_parts(
        "pair", 1, mechanisms, [s.process(0, *steps), s.process(1, *steps)], list(monitors)))


RACE = [s.read("reg", "t"), s.local("g", s.applied("inc", "t")), s.write("reg", s.var("g"))]


def test_an_unlocked_race_is_a_group():
    assert _groups(_pair(RACE)) == ((0, 1),)


@pytest.mark.parametrize("system", [
    pytest.param(lambda: _pair([s.lock("reg"), *RACE, s.unlock("reg")]), id="locks"),
    pytest.param(lambda: _pair([*RACE, s.assert_local("g", [1])]), id="assert_local"),
    pytest.param(lambda: _pair(RACE, [s.mutual_exclusion([(0, "g"), (1, "g")])]),
                 id="mutual_exclusion"),
    pytest.param(lambda: _pair(RACE, [s.terminal_assert(1, "g", [1])]), id="terminal_assert"),
    pytest.param(lambda: _pair([s.write("mc", [1])], mechanisms=[s.message_cell("mc")]),
                 id="message_cell"),
])
def test_no_group(system):
    assert _groups(system()) == ()


def _readers(allowed_1):
    steps = [s.read_word("cell", 0, "w0"), s.read_word("cell", 1, "w1")]
    return System(s.Scenario.from_parts(
        "readers", 2, [s.raw_cell("cell", [0, 0])],
        [s.process(0, *steps), s.process(1, *steps)],
        [s.torn_value("cell", [[0, 0]], 0, ["w0", "w1"]),
         s.torn_value("cell", allowed_1, 1, ["w0", "w1"])]))


def test_every_monitor_names_the_pids_it_holds():
    """Group detection learns which processes a monitor reads or reports
    only from ``named()``, so a monitor holding a pid must name it there."""
    kinds = set()
    for name in catalog.names():
        sys = System(catalog.get(name))
        for monitor in compile_monitors(sys):
            held = ({getattr(monitor, "pid", None)} | set(getattr(monitor, "pids", ()))
                    | {pid for pid, _ in getattr(monitor, "markers", ())}) - {None}
            assert {pid for pid, _ in monitor.named()} == held
            kinds.add(type(monitor).__name__)
    assert {"LocalAsserts", "MutualExclusion", "TornValue", "TerminalAssert"} <= kinds


def test_torn_value_monitors_must_be_equal():
    assert _groups(_readers([[0, 0]])) == ((0, 1),)
    assert _groups(_readers([[0, 0], [1, 1]])) == ()


# -- orbits --------------------------------------------------------------------------


@pytest.mark.parametrize("name, args, groups", [
    pytest.param("lost_update", ((2, 2, 1),), ((0, 1),), id="one-pair"),
    pytest.param("lost_update", ((2, 2, 2),), ((0, 1, 2),), id="group-of-three"),
    pytest.param("lost_update", ((1, 1, 2, 2),), ((0, 1), (2, 3)), id="two-pairs"),
    pytest.param("torn_read", (2, 2, 2), ((2, 3),), id="readers-pair")])
def test_orbits_partition_the_reachable_states(name, args, groups):
    """Each reachable state's key is one of its images, which share that key,
    number its orbit size, and are reachable; two states share a key exactly
    when they share the sorted-groups form; the orbits of the distinct keys
    cover every state once."""
    sys = System(_family(name, args))
    assert _groups(sys) == groups
    orbits = _Orbits(sys, groups)
    states = reachable(sys)
    keys = {}
    by_form = {}         # sorted-groups form -> the keys of its states
    for state in states:
        images = orbits.images(state)
        key = orbits.key(state)
        assert images[0] == state and len(set(images)) == len(images)
        assert key in images
        assert {orbits.key(image) for image in images} == {key}
        assert set(images) <= states
        assert len(images) == orbits.size(key)
        keys[key] = len(images)
        by_form.setdefault(sorted_groups_form(sys, groups, state), set()).add(key)
    assert sum(keys.values()) == len(states)
    assert all(len(form_keys) == 1 for form_keys in by_form.values())
    assert len(by_form) == len(keys)


@pytest.mark.parametrize("name, args", [
    pytest.param("lost_update", ((2, 2, 1),), id="lost_update-2-2-1"),
    pytest.param("torn_read", (2, 2, 2), id="torn_read-2x2x2")])
def test_a_lone_pair_swaps_as_the_list_swap_did(name, args):
    """Differential against the list-built swap the lone pair's ``itemgetter``
    replaced: at every reachable state, the key and the images agree."""
    sys = System(_family(name, args))
    (pair,) = _groups(sys)
    orbits = _Orbits(sys, (pair,))
    a, b = (sys.n_mechs + p for p in pair)
    for state in reachable(sys):
        assert orbits.key(state) == (state if state[a] <= state[b] else swapped(state, a, b))
        assert orbits.images(state) == \
            ([state] if state[a] == state[b] else [state, swapped(state, a, b)])


@pytest.mark.parametrize("step", [pytest.param(s.local("g", [1]), id="local"),
                                  pytest.param(s.write_word("cell", 0, 1), id="write_word")])
def test_a_large_group_of_equal_slots_lists_its_one_terminal_at_once(step):
    """Fourteen one-step processes form one group. Their 2**14 states fall
    into 15 orbits, and the one terminal state, where every member's slot
    is equal, is listed without trying 14! orderings of the members."""
    n = 14
    cells = [s.raw_cell("cell", [0])] if step["op"] == "write_word" else []
    sys = System(s.Scenario.from_parts("many", 1, cells, [s.process(p, step) for p in range(n)]))
    assert _groups(sys) == (tuple(range(n)),)
    report = explore(sys)
    assert report.states_visited == 2 ** n
    assert report.distinct_terminal_states == 1
    assert report.schedules_complete == math.factorial(n)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name, args, expanded, applied", [
    pytest.param("lost_update", ((3, 3, 2),), 25_441, 56_917, id="lost_update-3-3-2"),
    pytest.param("torn_read", (3, 2, 2), 7_842, 12_950, id="torn_read-3x2x2")])
def test_explore_expands_each_entry_once_and_applies_each_edge_once(
        name, args, expanded, applied, seed):
    """``explore`` asks the kernel for the edges of each stored entry once,
    and takes each edge of an expanded entry once."""
    sys = CountingSystem(_family(name, args, seed))
    explore(sys)
    assert (sum(sys.offered.values()), sum(sys.applied.values())) == (expanded, applied)
    assert max(sys.offered.values()) == max(sys.applied.values()) == 1


def test_a_four_process_group_stores_one_entry_per_orbit():
    """623 435 states are reached, but each of the 29 995 canonical entries is
    expanded once; unreduced, every state would be."""
    incs = (2, 2, 2, 2)
    sys = CountingSystem(_family("lost_update", (incs,)))
    assert _groups(sys) == ((0, 1, 2, 3),)
    report = explore(sys)
    assert report.states_visited == 623_435
    assert report.schedules_complete == families.lost_update_schedules(incs)
    assert sum(sys.offered.values()) == 29_995
