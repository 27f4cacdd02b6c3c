"""Symmetry reduction: interchangeable processes share one memo entry.

``explore`` keys its memo by a representative state in which the slots of
each group of interchangeable processes are sorted. The report must not change:
the differential tests run every scenario reduced and unreduced (the group
detector patched to find no group) and compare everything ``explore``
reports, and check the counts against the independent oracles.
"""

import math
import random
import types
from collections import Counter

import pytest

import lockstep.scenarios as s
from lockstep import catalog, explorer
from lockstep.explorer import Bounds, _interchangeable, _Orbits, explore
from lockstep.kernel import System
from lockstep.monitors import compile_monitors

from helpers import (CountingSystem, bench_families, maximal_schedule_count, reachable,
                     reference_images, reference_orbit, sorted_groups_form, swapped)
from test_golden import _op_scenarios

families = bench_families()

FAMILY_CASES = [("lost_update", ((2, 2),)), ("lost_update", ((2, 2, 1),)),
                ("lost_update", ((3, 3, 3),)), ("torn_read", (2, 2, 2)),
                ("torn_read", (3, 2, 2))]


def _groups(sys):
    return _interchangeable(sys, compile_monitors(sys))


def _family(name, args, seed=0):
    return getattr(families, name)(*args, random.Random(seed))


def _writers(scenario, pids):
    """The data group of the writers ``pids``, each of which writes one word
    of its own, as the first step of its document names it."""
    steps = {doc["id"]: doc["steps"] for doc in scenario.processes}
    return tuple((p, (steps[p][0]["word"],)) for p in pids)


def _differential_cases():
    out = [pytest.param(lambda name=name: catalog.get(name), id=name)
           for name in catalog.names()]
    out += [pytest.param(lambda sc=sc: sc, id=sc.name) for sc in _op_scenarios()]
    out += [pytest.param(lambda name=name, args=args: _family(name, args),
                         id=f"{name}-{args}") for name, args in FAMILY_CASES]
    return out


def _observed(report):
    return (report.to_doc(),
            [(v.cls, v.detail, v.trace, v.state_hash) for v in report.violations])


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
    assert _observed(reduced) == _observed(unreduced)
    states = reachable(sys)
    assert reduced.states_visited == len(states)
    assert reduced.schedules_complete == maximal_schedule_count(sys)
    assert reduced.distinct_terminal_states == sum(map(sys.all_terminated, states))


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
    assert _observed(reduced) == _observed(unreduced)


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
    """Every bench family case and three catalog entries have a group, so the
    differential above compares runs that really differ."""
    for name, args in FAMILY_CASES:
        assert _groups(System(_family(name, args)))
    assert [name for name in catalog.names() if _groups(System(catalog.get(name)))] \
        == ["torn-read-raw", "register-atomic-update", "register-lost-update"]


# -- group detection ---------------------------------------------------------------


def test_lost_update_groups_the_equal_programs():
    """p0 and p1 add three times, p2 twice."""
    assert _groups(System(_family("lost_update", ((3, 3, 2),)))) == ((0, 1),)


@pytest.mark.parametrize("args", [(2, 2, 2), (3, 2, 2)], ids=["2x2x2", "3x2x2"])
def test_torn_read_groups_the_writers_by_data_and_the_readers_by_pid(args):
    """The writers write different words, so they form a data group; the
    readers have equal programs and equal torn_value monitors, whose allowed
    values the renaming keeps."""
    writers, _, readers = args
    scenario = _family("torn_read", args)
    assert _groups(System(scenario)) == (_writers(scenario, range(writers)),
                                         tuple(range(writers, writers + readers)))


def _pair(steps, monitors=(), mechanisms=None):
    mechanisms = mechanisms or [s.shared_register("reg", [0])]
    return System(s.Scenario.from_parts(
        "pair", 1, mechanisms, [s.process(0, *steps), s.process(1, *steps)], list(monitors)))


RACE = [s.read("reg", "t"), s.local("g", s.applied("inc", "t")), s.write("reg", s.var("g"))]


def _two_writers(writer=lambda w: (), reader=(), monitors=(), initial=(0, 0), mechanism="cell"):
    """Two writers, of word 1 and word 2, each followed by the steps
    ``writer(word)``, on a two-word raw cell or, given ``mechanism="reg"``, a
    one-word shared register; and a reader p2 with ``reader`` steps, if any."""
    if mechanism == "cell":
        mechanisms = [s.raw_cell("cell", list(initial))]
        steps = lambda w: [s.write_word("cell", 0, w), s.write_word("cell", 1, w), *writer(w)]
    else:
        mechanisms = [s.shared_register("reg", list(initial[:1]))]
        steps = lambda w: [s.write("reg", [w]), *writer(w)]
    procs = [s.process(p, *steps(w)) for p, w in enumerate((1, 2))]
    if reader:
        procs.append(s.process(2, *reader))
    return System(s.Scenario.from_parts("writers", 2 if mechanism == "cell" else 1, mechanisms,
                                        procs, list(monitors)))


READ = [s.read_word("cell", 0, "a"), s.read_word("cell", 1, "b")]


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
    # each case below breaks one part of the data-group rule for two writers
    # whose programs differ only in their words
    pytest.param(lambda: _two_writers(lambda w: [s.if_word("cell", 0, w, [s.local("x", None)])]),
                 id="if_word"),
    pytest.param(lambda: _two_writers(lambda w: [s.wait_word("cell", 1, w)]), id="wait_word"),
    pytest.param(lambda: _two_writers(reader=[s.wait_word("cell", 0, 1)]),
                 id="another-program"),
    pytest.param(lambda: _two_writers(lambda w: [s.write_word("cell", 1, 3 - w)]),
                 id="one-word-two-writers"),
    pytest.param(lambda: _two_writers(initial=(0, 1)), id="initial"),
    pytest.param(lambda: _two_writers(reader=[*READ, s.assert_local("a", 1)]),
                 id="assert_local-expected"),
    pytest.param(lambda: _two_writers(reader=READ, monitors=[s.terminal_assert(2, "a", 1)]),
                 id="terminal_assert-expected"),
    pytest.param(lambda: _two_writers(
        reader=[s.read("reg", "t"), s.local("g", s.applied("inc", "t"))], mechanism="reg"),
        id="inc"),
    pytest.param(lambda: _two_writers(reader=[s.update("reg", "inc")], mechanism="reg"),
                 id="update"),
    pytest.param(lambda: _two_writers(reader=READ, monitors=[
        s.torn_value("cell", [[0, 0], [1, 1]], 2, ["a", "b"])]), id="torn_value-allowed"),
    pytest.param(lambda: _two_writers(reader=[s.read("reg", "t"), s.read("reg", "u")], monitors=[
        s.mutual_exclusion([(2, "t"), (2, "u")])], mechanism="reg"), id="mutual_exclusion-word"),
    pytest.param(lambda: _two_writers(lambda w: [s.lock("reg"), s.unlock("reg")],
                                      mechanism="reg"), id="writer-locks"),
])
def test_no_group(system):
    assert _groups(system()) == ()


def test_writers_of_their_own_words_form_a_data_group():
    assert _groups(System(catalog.get("torn-read-raw"))) == (((0, (1,)), (1, (2,))),)
    assert _groups(_two_writers()) == (((0, (1,)), (1, (2,))),)
    assert _groups(_two_writers(mechanism="reg")) == (((0, (1,)), (1, (2,))),)
    assert _groups(_two_writers(reader=READ, monitors=[
        s.torn_value("cell", [[0, 0], [1, 1], [2, 2]], 2, ["a", "b"])])) \
        == (((0, (1,)), (1, (2,))),)


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


@pytest.mark.parametrize("build, groups", [
    pytest.param(lambda: _family("lost_update", ((2, 2, 1),)), lambda sc: ((0, 1),),
                 id="one-pair"),
    pytest.param(lambda: _family("lost_update", ((2, 2, 2),)), lambda sc: ((0, 1, 2),),
                 id="group-of-three"),
    pytest.param(lambda: _family("lost_update", ((1, 1, 2, 2),)), lambda sc: ((0, 1), (2, 3)),
                 id="two-pairs"),
    pytest.param(lambda: _family("torn_read", (2, 2, 2)),
                 lambda sc: (_writers(sc, (0, 1)), (2, 3)), id="writers-and-readers"),
    pytest.param(lambda: _family("torn_read", (2, 2, 1)), lambda sc: (_writers(sc, (0, 1)),),
                 id="writers"),
    pytest.param(lambda: catalog.get("torn-read-raw"), lambda sc: (_writers(sc, (0, 1)),),
                 id="torn-read-raw")])
def test_orbits_partition_the_reachable_states(build, groups):
    """Each reachable state's key is a reachable state that is its own key,
    and as many reachable states share a key as its orbit size says; two
    states share a key exactly when they share a form built apart from
    ``_Orbits``, the sorted-groups form or, with a data group, the reference
    orbit."""
    scenario = build()
    sys, groups = System(scenario), groups(scenario)
    assert _groups(sys) == groups
    data = any(type(g[0]) is tuple for g in groups)
    orbits = _Orbits(sys, groups)
    states = reachable(sys)
    keys = Counter()     # key -> how many reachable states have it
    by_form = {}         # sorted-groups form -> the keys of its states
    for state in states:
        key = orbits.key(state)
        keys[key] += 1
        form = frozenset(reference_orbit(sys, groups, state)) if data \
            else sorted_groups_form(sys, groups, state)
        by_form.setdefault(form, set()).add(key)
    for key, n in keys.items():
        assert key in states and orbits.key(key) == key
        assert orbits.size(key) == n
    assert all(len(form_keys) == 1 for form_keys in by_form.values())
    assert len(by_form) == len(keys)


@pytest.mark.parametrize("seed", range(20))
def test_keys_and_sizes_match_the_recursive_arrangements(seed):
    """Differential against the ``Counter``, recursive-arrangement and
    ``product`` listing of an orbit: one to three groups of 2-6 slots, at
    states with repeated values. Every image has the least image as its key,
    and that key's size is the number of images. A lone pair, drawn alone,
    takes the compare-and-swap path."""
    rng = random.Random(seed)
    sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 2))] + [2] * rng.randint(0, 1)
    n_mechs, n_procs = rng.randint(0, 2), sum(sizes) + rng.randint(0, 2)
    pids = rng.sample(range(n_procs), sum(sizes))
    groups, at = [], 0
    for size in sizes:
        groups.append(tuple(sorted(pids[at:at + size])))
        at += size
    sys = types.SimpleNamespace(n_mechs=n_mechs, n_procs=n_procs)
    orbits = _Orbits(sys, groups)
    for _ in range(10):
        hi = rng.randint(0, 2)
        state = tuple(rng.randint(0, hi) for _ in range(n_mechs + n_procs))
        images = reference_images(orbits.slots, state)
        least = min(images)
        assert {orbits.key(image) for image in images} == {least}
        assert orbits.size(least) == len(images)


@pytest.mark.parametrize("name, args", [
    pytest.param("lost_update", ((2, 2, 1),), id="one-pair"),
    pytest.param("lost_update", ((2, 2, 2),), id="group-of-three"),
    pytest.param("lost_update", ((1, 1, 2, 2),), id="two-pairs"),
    pytest.param("torn_read", (3, 2, 2), id="readers-pair")])
def test_keys_and_sizes_of_the_families_match_the_recursive_arrangements(name, args):
    """At every reachable state of a family, under its pid groups alone, the
    reference images are reachable, share the least of them as their key,
    and number that key's size."""
    sys = System(_family(name, args))
    orbits = _Orbits(sys, [g for g in _groups(sys) if type(g[0]) is int])
    states = reachable(sys)
    for state in states:
        images = reference_images(orbits.slots, state)
        least = min(images)
        assert set(images) <= states
        assert {orbits.key(image) for image in images} == {least}
        assert orbits.size(least) == len(images)


@pytest.mark.parametrize("name, args", [
    pytest.param("lost_update", ((2, 2, 1),), id="lost_update-2-2-1"),
    pytest.param("torn_read", (2, 2, 2), id="torn_read-2x2x2")])
def test_a_lone_pair_swaps_as_the_list_swap_did(name, args):
    """Differential against the list-built swap the lone pair's ``itemgetter``
    replaced: at every reachable state, the key agrees, and its orbit holds
    one state when the two slots are equal and two otherwise."""
    sys = System(_family(name, args))
    (pair,) = [g for g in _groups(sys) if type(g[0]) is int]   # torn_read's readers
    orbits = _Orbits(sys, (pair,))
    a, b = (sys.n_mechs + p for p in pair)
    for state in reachable(sys):
        key = orbits.key(state)
        assert key == (state if state[a] <= state[b] else swapped(state, a, b))
        assert orbits.size(key) == (1 if state[a] == state[b] else 2)


@pytest.mark.parametrize("step", [pytest.param(s.local("g", [1]), id="local"),
                                  pytest.param(s.write_word("cell", 0, 1), id="write_word")])
def test_a_large_group_of_equal_slots_lists_its_one_terminal_at_once(step):
    """Fourteen one-step processes form one group. Their 2**14 states fall
    into 15 orbits, and the one terminal state, where every member's slot
    is equal, is counted once without trying 14! orderings of the members."""
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
    pytest.param("torn_read", (3, 2, 2), 1_375, 2_344, id="torn_read-3x2x2")])
def test_explore_expands_each_entry_once_and_applies_each_edge_once(
        name, args, expanded, applied, seed):
    """``explore`` asks the kernel for the edges of each stored entry once,
    and takes each edge of an expanded entry once."""
    sys = CountingSystem(_family(name, args, seed))
    explore(sys)
    assert (sum(sys.offered.values()), sum(sys.applied.values())) == (expanded, applied)
    assert max(sys.offered.values()) == max(sys.applied.values()) == 1


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _family("torn_read", (2, 2, 2)), id="torn_read-2x2x2"),
    pytest.param(lambda: _family("torn_read", (3, 2, 2)), id="torn_read-3x2x2"),
    pytest.param(lambda: catalog.get("torn-read-raw"), id="torn-read-raw")])
def test_data_group_keys_are_the_least_reference_images(build):
    """Differential against ``helpers.reference_orbit``, which renames decoded
    parts with no intern table: at every reachable state, the key is the least
    reference image, and the orbit size is the number of distinct images."""
    sys = System(build())
    groups = _groups(sys)
    assert any(type(g[0]) is tuple for g in groups)
    orbits = _Orbits(sys, groups)
    states = reachable(sys)
    left = set(states)
    while left:   # one reference orbit serves each of its states
        orbit = reference_orbit(sys, groups, next(iter(left)))
        assert orbit <= left
        least = min(orbit)
        assert orbits.size(least) == len(orbit)
        for state in orbit:
            assert orbits.key(state) == least
        left -= orbit


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
