"""Exploration tests: counting, witnesses, bounds, cross-validation."""

import ast
import json
import math
import pathlib
import random
import sys as _sys
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lockstep.scenarios as s
from lockstep import catalog, explorer, monitors
from lockstep.explorer import (Bounds, ExplorationReport, Violation, WalkSummary,
                               _Checks, explore, find_shortest, random_walks,
                               replay_with_checks, resolve_bounds,
                               terminal_mechanism_states, terminal_variable_values,
                               verify_violation)
from lockstep.kernel import KernelError, NotEnabledAtStep, System

from helpers import (CountingSystem, bench_families, first_witnesses, maximal_schedule_count,
                     reachable, reference_replay_with_checks, shortest_lengths,
                     walkable_classes)
from test_golden import FIXTURE, _cases, _op_scenarios
from test_kernel import SCENARIOS
from test_monitors import unguarded_sections


def two_independent():
    """Two processes of three local steps each; nothing shared."""
    steps = [s.local("x", [1]), s.local("x", [2]), s.local("x", [3])]
    return s.Scenario.from_parts("independent", 1, [],
                                 [s.process(0, *steps), s.process(1, *steps)])


def empty_scenario():
    return s.Scenario.from_parts("empty", 1, [], [])


class TestCounting:
    def test_independent_processes_count_is_a_binomial(self):
        report = explore(two_independent())
        assert report.schedules_complete == math.comb(6, 3) == 20
        assert report.states_visited == 16  # pc pairs: 4 * 4
        assert report.distinct_terminal_states == 1
        assert not report.bounds_hit

    def test_empty_scenario_has_one_empty_schedule(self):
        report = explore(empty_scenario())
        assert report.schedules_complete == 1
        assert report.states_visited == 1
        assert report.distinct_terminal_states == 1
        assert report.violations == ()

    def test_counts_match_independent_recursion(self):
        for name in ("lost-message-basic", "duplex-last-message",
                     "register-atomic-update"):
            sys = System(catalog.get(name))
            report = explore(sys)
            assert report.schedules_complete == maximal_schedule_count(sys)
            assert report.states_visited == len(reachable(sys))


class TestDeadlockReporting:
    def test_exactly_one_deadlock_class(self):
        report = explore(catalog.get("deadlock-direct-duplex"))
        assert report.violation_classes == {"deadlock"}
        v = report.violations[0]
        assert v.kind == "deadlock"
        assert "p0" in v.detail and "p1" in v.detail
        assert len(v.trace) == 2  # the two locals; then nobody can move

    def test_deadlocked_schedules_still_count_as_maximal(self):
        report = explore(catalog.get("deadlock-direct-duplex"))
        assert report.schedules_complete == 2
        assert report.distinct_terminal_states == 0  # deadlock is not termination

    def test_witness_replays(self):
        sc = catalog.get("deadlock-direct-duplex")
        v = explore(sc).violations[0]
        assert verify_violation(sc, v)


class TestFindShortest:
    def test_shortest_torn_read(self):
        sc = catalog.get("torn-read-raw")
        v = find_shortest(sc, "torn_read")
        assert v is not None and v.kind == "torn_read"
        assert verify_violation(sc, v)

    def test_never_longer_than_the_dfs_witness(self):
        for name in ("torn-read-raw", "undisciplined-third-party",
                     "lost-message-basic", "deadlock-direct-duplex",
                     "duplex-last-message"):
            sc = catalog.get(name)
            for dfs_v in explore(sc).violations:
                bfs_v = find_shortest(sc, dfs_v.cls)
                assert bfs_v is not None
                assert len(bfs_v.trace) <= len(dfs_v.trace)

    def test_full_class_string_is_accepted(self):
        sc = catalog.get("duplex-last-message")
        v = find_shortest(sc, "lost_message:own-outgoing")
        assert v is not None and v.detail == "own-outgoing"

    def test_absent_class_gives_none(self):
        assert find_shortest(catalog.get("status-channel-exact"), "lost_message") is None
        assert find_shortest(catalog.get("status-channel-exact"), "deadlock") is None

    def test_empty_scenario_gives_none(self):
        assert find_shortest(empty_scenario(), "deadlock") is None

    def test_a_hit_in_the_initial_state_is_a_zero_step_witness(self):
        # each process receives before it sends, so neither can move
        sc = s.Scenario.from_parts(
            "receive-first", 1, [s.direct_channel("a"), s.direct_channel("b")],
            [s.process(0, s.receive("a", "x"), s.send("b", [1])),
             s.process(1, s.receive("b", "y"), s.send("a", [1]))])
        v = find_shortest(sc, "deadlock")
        assert v.trace.events == ()
        assert verify_violation(sc, v)


class TestBounds:
    def test_depth_bound_truncates_and_poisons_the_count(self):
        report = explore(catalog.get("register-lost-update"), Bounds(max_depth=2))
        assert report.bounds_hit
        assert report.schedules_complete is None

    def test_state_bound_truncates(self):
        report = explore(catalog.get("register-lost-update"),
                         Bounds(max_depth=200, max_states=10))
        assert report.bounds_hit
        assert report.schedules_complete is None

    def test_dict_bounds_accepted(self):
        report = explore(catalog.get("register-lost-update"), {"max_depth": 2})
        assert report.bounds_hit

    def test_scenario_embedded_bounds_are_honored(self):
        sc = s.Scenario.from_parts(
            "bounded", 1, [s.shared_register("reg", [0])],
            [s.process(0, s.loop(3, [s.update("reg", "inc")])),
             s.process(1, s.loop(3, [s.update("reg", "inc")]))],
            bounds={"max_depth": 2})
        assert explore(sc).bounds_hit
        # an explicit override wins over the embedded bounds
        assert not explore(sc, Bounds()).bounds_hit

    def test_resolve_bounds_defaults(self):
        sys = System(two_independent())
        b = resolve_bounds(sys, None)
        assert b == Bounds(max_depth=200, max_states=1_000_000)

    def test_bounds_do_not_invent_violations(self):
        report = explore(catalog.get("register-lost-update"), Bounds(max_depth=3))
        assert report.violations == ()

    def test_a_dict_overrides_only_the_bounds_it_names(self):
        sc = with_bounds("register-lost-update", {"max_states": 5})
        assert resolve_bounds(System(sc), {"max_depth": 50}) == Bounds(50, 5)
        assert resolve_bounds(System(sc), {}) == Bounds(200, 5)
        report = explore(sc, {"max_depth": 50})
        assert (report.states_visited, report.bounds_hit) == (5, True)
        assert not explore(sc, {"max_states": 1000}).bounds_hit

    @pytest.mark.parametrize("search", [
        lambda sys, bounds: find_shortest(sys, "deadlock", bounds),
        lambda sys, bounds: random_walks(sys, walks=200, seed=3, bounds=bounds)],
        ids=["find_shortest", "random_walks"])
    def test_every_strategy_reads_the_merged_bounds(self, search):
        sc = with_bounds("register-lost-update", {"max_states": 5})
        merged, spelled_out, unbounded = (CountingSystem(sc) for _ in range(3))
        assert search(merged, {"max_depth": 50}) == search(spelled_out, Bounds(50, 5))
        assert (merged.offered, merged.applied) == (spelled_out.offered, spelled_out.applied)
        search(unbounded, Bounds(max_depth=50))
        assert (merged.offered, merged.applied) != (unbounded.offered, unbounded.applied)

    @pytest.mark.parametrize("override,field", [
        ({"max_depth": -1}, "bounds.max_depth: "),
        ({"max_depth": True}, "bounds.max_depth: "),
        ({"max_states": 2.5}, "bounds.max_states: "),
        ({"max_states": "5"}, "bounds.max_states: "),
        ({"max_dept": 3}, "bounds: "),
        (Bounds(max_states=-1), "bounds.max_states: "),
        (5, "bounds: ")])
    @pytest.mark.parametrize("strategy", [
        lambda bounds: explore(catalog.get("duplex-strict"), bounds),
        lambda bounds: find_shortest(catalog.get("duplex-strict"), "deadlock", bounds),
        lambda bounds: random_walks(catalog.get("duplex-strict"), walks=10, bounds=bounds),
        lambda bounds: catalog.catalog_check(only=["duplex-strict"], bounds=bounds)],
        ids=["explore", "find_shortest", "random_walks", "catalog_check"])
    def test_a_bad_override_raises_naming_its_field(self, strategy, override, field):
        with pytest.raises(ValueError) as raised:
            strategy(override)
        assert str(raised.value).startswith(field)

    def test_an_unknown_override_key_is_named(self):
        with pytest.raises(ValueError) as raised:
            explore(catalog.get("duplex-strict"), {"max_dept": 3})
        assert str(raised.value) == "bounds: unknown field 'max_dept'"

    @pytest.mark.parametrize("walks", [-1, 2.5, True, "5", None])
    def test_walks_must_be_a_non_negative_integer(self, walks):
        with pytest.raises(ValueError, match="^walks: "):
            random_walks(catalog.get("duplex-strict"), walks=walks)


def with_bounds(name, bounds):
    """The catalog scenario ``name`` with ``bounds`` embedded in its document."""
    return s.Scenario.from_doc({**catalog.get(name).to_doc(), "bounds": bounds})


class TestRandomWalks:
    def test_same_seed_same_summary(self):
        sc = catalog.get("torn-read-raw")
        a = random_walks(sc, walks=300, seed=11)
        b = random_walks(sc, walks=300, seed=11)
        assert a == b
        assert a.walks == 300

    def test_walk_classes_never_exceed_exhaustive_classes(self):
        sc = catalog.get("torn-read-raw")
        exhaustive = explore(sc).violation_classes
        w = random_walks(sc, walks=500, seed=3)
        assert w.classes <= exhaustive

    def test_walks_find_the_easy_violation(self):
        w = random_walks(catalog.get("deadlock-direct-duplex"), walks=50, seed=0)
        assert w.classes == {"deadlock"}


def reference_walks(sys, walks, seed, bounds=None):
    """The uncached walker that random_walks replaced: every step computes the
    enabled actions, applies the chosen one and runs every monitor afresh."""
    b = resolve_bounds(sys, bounds)
    checks = _Checks(sys)
    rng = random.Random(seed)
    classes = set()

    def collect(hits):
        for hk, hn, hd in hits:
            classes.add(Violation(hk, hn, hd, None, "").cls)

    init = sys.initial_state()
    for _ in range(walks):
        state = init
        collect(checks.state(state))
        steps = 0
        while True:
            edges = sys.enabled_actions(state)
            if not edges:
                collect(checks.sink(state))
                break
            if steps >= b.max_depth:
                break
            ev = edges[rng.randrange(len(edges))]
            post = sys.apply(state, ev)
            collect(checks.event(state, ev, post))
            collect(checks.state(post))
            state = post
            steps += 1
    return WalkSummary(walks=walks, classes=frozenset(classes))


# (seed, bounds, walk counts). deadlock-direct-duplex deadlocks after 2
# steps, so depth 2 puts a sink exactly at the cut-off, where the sink check
# must come first. With one walk and two the pass before the walks gives up
# on most scenarios and every walk runs; with a thousand it finishes, so the
# walks stop in the middle of a call once they hold every class it found.
WALK_CASES = [(seed, bounds, (1, 2, 1000)) for seed in (5, 2026)
              for bounds in (None, Bounds(max_depth=1), Bounds(max_depth=2), Bounds(max_depth=3))]
# max_states 0-3 fill most graphs, so most steps run uncached, and cap the pass
# at three states, so it gives up and the walks never stop early; a thousand
# walks there would add only time.
WALK_CASES += [(5, Bounds(max_states=max_states), (1, 2, 200)) for max_states in range(4)]


def viewed_counts(sys):
    """A ``CountingSystem``'s counts keyed by views, which two Systems that
    interned their parts in different orders share: (applied by (view,
    action), offered by view)."""
    applied, offered = Counter(), Counter()
    for (state, action), n in sys.applied.items():
        applied[sys.view(state), action] += n
    for state, n in sys.offered.items():
        offered[sys.view(state)] += n
    return applied, offered


def pass_before_the_walks(sys, walks, bounds=None):
    """What ``random_walks(sys, walks, bounds=bounds)``'s pass before its
    first walk returns: the classes every walk could collect, or None."""
    b = resolve_bounds(sys, bounds)
    return explorer._walk_classes(_Checks(sys), sys.initial_state(), b.max_depth,
                                  min(walks, b.max_states))


def assert_walks_match_the_uncached_reference(sc):
    for seed, bounds, walk_counts in WALK_CASES:
        for walks in walk_counts:
            cached, reference, alone = CountingSystem(sc), CountingSystem(sc), CountingSystem(sc)
            got = random_walks(cached, walks=walks, seed=seed, bounds=bounds)
            assert got == reference_walks(reference, walks, seed, bounds), (seed, bounds, walks)
            # Take away what the pass before the walks applied and offered,
            # as a call of the pass alone shows it; the rest is the walks'.
            everything = pass_before_the_walks(alone, walks, bounds)
            applied, offered = viewed_counts(cached)
            applied_by_pass, offered_by_pass = viewed_counts(alone)
            applied, offered = applied - applied_by_pass, offered - offered_by_pass
            # No edge is applied that no walk took, and when the pass gave up,
            # so that every walk runs, every such edge is.
            taken = viewed_counts(reference)[0].keys()
            assert applied.keys() <= taken
            if everything is None:
                assert applied.keys() == taken
            if bounds is None or bounds.max_states > 3:
                # Each edge taken is applied, and each state reached offered
                # its actions, once per call.
                assert max(applied.values(), default=1) == 1
                assert max(offered.values()) == 1


@pytest.mark.parametrize("name", catalog.names())
def test_walks_match_the_uncached_reference(name):
    assert_walks_match_the_uncached_reference(catalog.get(name))


def test_a_full_walk_graph_steps_afresh():
    sys = CountingSystem(catalog.get("register-lost-update"))
    reference = CountingSystem(catalog.get("register-lost-update"))
    random_walks(sys, walks=50, seed=1, bounds=Bounds(max_states=3))
    reference_walks(reference, 50, 1)
    # States past the first three are not kept, so revisiting them recomputes.
    assert any(n > 1 for n in sys.offered.values())
    # Only a step between two kept states is served from the graph, and an
    # acyclic walk takes at most two such steps.
    assert sum(sys.applied.values()) >= sum(reference.applied.values()) - 2 * 50


def draws_per_call(monkeypatch, sc, walk_counts, seed, bounds=None):
    """The ``getrandbits`` calls ``random_walks`` makes for each walk count,
    through a ``random.Random`` subclass patched into ``explorer.random``."""
    draws = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            draws[-1] += 1
            return super().getrandbits(k)

    monkeypatch.setattr(explorer, "random", types.SimpleNamespace(Random=CountingRandom))
    for walks in walk_counts:
        draws.append(0)
        random_walks(sc, walks=walks, seed=seed, bounds=bounds)
    return draws


@pytest.mark.parametrize("seed", [0, 1, 5, 2026])
def test_walks_draw_on_in_a_closed_walk_graph_when_the_pass_gives_up(monkeypatch, seed):
    """status-channel-exact's graph is closed after its first walk: every
    edge of its 7 reachable states is taken. With fewer walks than that the
    pass before them gives up, so the class stop never fires and each added
    walk draws, only redrawing stored edges: six walks draw more than three
    do, and find what the reference walker finds."""
    sc = catalog.get("status-channel-exact")
    assert len(reachable(System(sc))) == 7
    assert pass_before_the_walks(System(sc), 6) is None
    few, many = draws_per_call(monkeypatch, sc, (3, 6), seed)
    assert 0 < few < many
    assert random_walks(sc, walks=6, seed=seed) == reference_walks(System(sc), 6, seed)


@pytest.mark.parametrize("max_states", [16, 17])
def test_walks_draw_on_in_a_walk_graph_that_holds_every_state(monkeypatch, max_states):
    """register-atomic-update has 16 reachable states. A graph with room for
    16 holds them all and links each edge between them when first taken, as
    one with room for 17 does. With fewer walks than states the pass before
    them gives up, so every walk runs: at seed 1 each of the thirteenth to
    fifteenth walks draws, and they find what the reference walker finds."""
    sc = catalog.get("register-atomic-update")
    assert len(reachable(System(sc))) == 16
    b = Bounds(max_states=max_states)
    assert pass_before_the_walks(System(sc), 15, b) is None
    thirteen, fourteen, fifteen = draws_per_call(monkeypatch, sc, (13, 14, 15), 1, b)
    assert thirteen < fourteen < fifteen
    assert random_walks(sc, walks=15, seed=1, bounds=b) == reference_walks(System(sc), 15, 1, b)


def walks_to_find(sys, seed, classes):
    """How many of ``reference_walks``' walks it takes to find ``classes``."""
    walks = 0
    while not reference_walks(sys, walks, seed).classes >= classes:
        walks += 1
    return walks


@pytest.mark.parametrize("seed", [1, 9901])
@pytest.mark.parametrize("name", catalog.names())
def test_walks_stop_once_they_hold_every_class_a_walk_can_find(monkeypatch, name, seed):
    """Every catalog entry has at most 677 states, so before a thousand walks
    the pass finishes and the walks stop at the first walk after which they
    hold every class explore finds: the kth walk draws, and a thousand walks
    draw what k do. An entry with no class draws nothing."""
    sc = catalog.get(name)
    report = explore(sc)
    assert not report.bounds_hit
    k = walks_to_find(System(sc), seed, report.violation_classes)
    assert (k == 0) == (not report.violation_classes)
    draws = draws_per_call(monkeypatch, sc, (max(k - 1, 0), k, 1000), seed)
    assert draws[2] == draws[1] and (k == 0 or draws[0] < draws[1])
    assert random_walks(sc, walks=1000, seed=seed) == \
        WalkSummary(1000, report.violation_classes)


def test_walks_that_are_fewer_than_the_states_never_stop_for_their_classes(monkeypatch):
    """register-lost-update has 677 states and never closes its graph, so
    with fewer walks than that the pass gives up and each added walk draws."""
    sc = catalog.get("register-lost-update")
    draws = draws_per_call(monkeypatch, sc, range(13), 1)
    assert all(a < b for a, b in zip(draws, draws[1:]))
    assert random_walks(sc, walks=12, seed=1) == reference_walks(System(sc), 12, 1)




@pytest.mark.parametrize("max_states", [1, 2, 3])
@pytest.mark.parametrize("name", catalog.names())
def test_walks_in_a_full_walk_graph_never_stop_early(monkeypatch, name, max_states):
    """Every catalog entry has more than three states, so a graph with room
    for three or fewer is full before it is closed, and every walk draws:
    each added walk adds draws."""
    draws = draws_per_call(monkeypatch, catalog.get(name), range(13), 1,
                           Bounds(max_states=max_states))
    assert all(a < b for a, b in zip(draws, draws[1:]))


def _walk_differential_scenarios():
    """The bench's three families at small sizes and the golden op scenarios."""
    families, rng = bench_families(), random.Random(0)
    return ([families.lost_update((2, 2), rng), families.torn_read(2, 2, 2, rng),
             families.relay_chain(2, 2, rng)] + _op_scenarios())


@pytest.mark.parametrize("sc", _walk_differential_scenarios(), ids=lambda sc: sc.name)
def test_walks_match_the_uncached_reference_beyond_the_catalog(sc):
    assert_walks_match_the_uncached_reference(sc)


@pytest.mark.parametrize("sc", [catalog.get(n) for n in catalog.names()]
                         + _walk_differential_scenarios(), ids=lambda sc: sc.name)
def test_the_pass_before_the_walks_finds_what_brute_force_does(sc):
    """The pass returns every class a walk within the depth bound could
    collect, as ``walkable_classes`` finds them from every reachable state's
    distance, and gives up exactly when the states within that depth
    outnumber its budget."""
    sys = System(sc)
    checks = _Checks(sys)
    for depth in (None, 0, 1, 2, 3):
        max_depth = resolve_bounds(sys, None if depth is None else {"max_depth": depth}).max_depth
        want, held = walkable_classes(sys, max_depth)
        for budget, got in ((held - 1, None), (held, want), (held + 1, want)):
            assert explorer._walk_classes(checks, sys.initial_state(), max_depth,
                                          budget) == got, (depth, budget)


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 6, 10, None])
@pytest.mark.parametrize("sc", [catalog.get(n) for n in catalog.names()]
                         + _walk_differential_scenarios(), ids=lambda sc: sc.name)
def test_both_callers_of_the_breadth_first_search_agree_with_both_oracles(sc, depth):
    """Within a depth bound, the classes the pass before the walks finds, the
    classes find_shortest finds a witness of, the classes ``walkable_classes``
    finds from relaxed distances, and the classes of explore whose shortest
    prefix (``shortest_lengths``) fits are one set."""
    sys = System(sc)
    b = resolve_bounds(sys, None if depth is None else {"max_depth": depth})
    found, lengths = explore(sys).violation_classes, shortest_lengths(sys)
    want = walkable_classes(sys, b.max_depth)[0]
    assert want == {c for c in found if lengths[c] <= b.max_depth}
    assert want == {c for c in found if find_shortest(sys, c, b) is not None}
    assert want == pass_before_the_walks(sys, b.max_states, b)


def test_an_edge_index_is_drawn_as_randrange_draws_it():
    """random_walks draws an index below n by redrawing getrandbits(n.bit_length())
    until it is below n. Same-seed walk summaries rest on that being what
    Random.randrange(n) does; if a Python release changes it, this fails."""
    for seed in range(10):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 71):
            for _ in range(3):
                i = ours.getrandbits(n.bit_length())
                while i >= n:
                    i = ours.getrandbits(n.bit_length())
                assert i == theirs.randrange(n), (seed, n)


def root_deadlock():
    """One process waiting for a word that is never written: the initial
    state is a sink."""
    return s.Scenario.from_parts("root-deadlock", 1, [s.raw_cell("c", [0])],
                                 [s.process(0, s.wait_word("c", 0, 1))])


@pytest.mark.parametrize("sc", [catalog.get(n) for n in catalog.names()] + [root_deadlock()],
                         ids=lambda sc: sc.name)
def test_no_walk_finds_nothing_and_a_depth_0_walk_checks_only_the_root(sc):
    sys = System(sc)
    checks = _Checks(sys)
    init = sys.initial_state()
    root = {Violation(*hit, None, "").cls
            for hit in checks.state(init) + list(checks.edges(init)[1])}
    for seed in (0, 1, 2):
        assert random_walks(sys, walks=0, seed=seed) == WalkSummary(0, frozenset())
        got = random_walks(sys, walks=1, seed=seed, bounds=Bounds(max_depth=0))
        assert got == WalkSummary(1, frozenset(root))
    if sc.name == "root-deadlock":
        assert root == {"deadlock"}


class TestReplayChecks:
    def test_classes_at_the_end_of_a_witness(self):
        sc = catalog.get("torn-read-raw")
        v = explore(sc).violations[0]
        final, classes = replay_with_checks(sc, v.trace)
        assert "torn_read" in classes
        assert System(sc).state_hash(final) == v.state_hash

    def test_innocent_prefix_has_no_classes(self):
        sc = catalog.get("torn-read-raw")
        _, classes = replay_with_checks(sc, [(0, ("write_word", 0, 1), "cell")])
        assert classes == set()

    def test_verify_rejects_a_tampered_hash(self):
        sc = catalog.get("torn-read-raw")
        v = explore(sc).violations[0]
        fake = Violation(v.kind, v.name, v.detail, v.trace, "0" * 16)
        assert not verify_violation(sc, fake)

    def test_verify_rejects_a_mislabelled_class(self):
        sc = catalog.get("torn-read-raw")
        v = explore(sc).violations[0]
        fake = Violation("deadlock", None, None, v.trace, v.state_hash)
        assert not verify_violation(sc, fake)


class TestTerminalQueries:
    def test_variable_values(self):
        sys = System(catalog.get("status-channel-exact"))
        report = explore(sys)
        got = terminal_variable_values(sys, report, 1, ("r1", "r2", "r3"))
        assert got == {((1,), (2,), (3,))}

    def test_unbound_names_read_as_none(self):
        sys = System(catalog.get("status-channel-exact"))
        report = explore(sys)
        assert terminal_variable_values(sys, report, 0, ("nope",)) == {(None,)}

    def test_mechanism_states(self):
        sys = System(catalog.get("register-atomic-update"))
        report = explore(sys)
        regs = terminal_mechanism_states(sys, report, "reg")
        assert {m.content for m in regs} == {(6,)}


class TestDeterminism:
    def test_explore_twice_is_identical(self):
        for name in ("torn-read-raw", "duplex-last-message", "dekker-mutex"):
            sc = catalog.get(name)
            assert explore(sc) == explore(sc)

    def test_violation_doc_round_trip(self):
        v = explore(catalog.get("deadlock-direct-duplex")).violations[0]
        assert Violation.from_doc(v.to_doc()) == v

    def test_every_golden_violation_round_trips(self):
        golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
        docs = [v for case in golden.values() for v in case["report"]["violations"]
                + [v for v in case["shortest"].values() if v]]
        assert len(docs) == 24
        for doc in docs:
            assert Violation.from_doc(doc).to_doc() == doc

    @pytest.mark.parametrize("field, value", [
        ("kind", None), ("kind", 5), ("state_hash", None), ("state_hash", ["x"]),
        ("name", 5), ("detail", ["p1.y"]), ("class", 5), ("class", "deadlock"),
        ("trace", None), ("trace", {"events": [5]})])
    def test_a_malformed_violation_raises_naming_its_field(self, field, value):
        doc = {**explore(catalog.get("torn-read-raw")).violations[0].to_doc(), field: value}
        with pytest.raises(ValueError) as raised:
            Violation.from_doc(doc)
        assert str(raised.value).startswith(field)

    def test_a_class_must_be_the_one_its_kind_makes(self):
        doc = {**explore(catalog.get("torn-read-raw")).violations[0].to_doc(),
               "class": "deadlock"}
        with pytest.raises(ValueError, match="^class: 'deadlock' is not the class of kind "
                                             "'torn_read', which is 'torn_read'$"):
            Violation.from_doc(doc)

    def test_a_violation_is_an_object(self):
        with pytest.raises(ValueError, match="^violation: expected an object, got \\[\\]$"):
            Violation.from_doc([])

    def test_report_doc_shape(self):
        doc = explore(catalog.get("status-channel-exact")).to_doc()
        assert set(doc) == {"scenario", "states_visited", "distinct_terminal_states",
                            "schedules_complete", "bounds_hit", "violations"}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       name=st.sampled_from(["torn-read-raw", "lost-message-basic",
                             "duplex-last-message", "status-channel-exact"]))
def test_walk_classes_are_a_subset_of_exhaustive(seed, name):
    sc = catalog.get(name)
    exhaustive = explore(sc).violation_classes
    assert random_walks(sc, walks=40, seed=seed).classes <= exhaustive


def torn_read_3x2x2():
    """Three writers each write their own value into both words of a raw
    cell while two readers read both words, each under a torn_value monitor:
    thousands of hits of one class."""
    values = (1, 2, 3)
    names = ("w0", "w1")
    allowed = [[0, 0]] + [[v, v] for v in values]
    procs = [s.process(p, *(s.write_word("cell", i, v) for i in range(2)))
             for p, v in enumerate(values)]
    watchers = []
    for p in (3, 4):
        procs.append(s.process(p, *(s.read_word("cell", i, n) for i, n in enumerate(names))))
        watchers.append(s.torn_value("cell", allowed, p, list(names)))
    return s.Scenario.from_parts("torn-read-3x2x2", 2, [s.raw_cell("cell", [0, 0])],
                                 procs, watchers)


WITNESS_SCENARIOS = ([catalog.get(n) for n in catalog.names()] + _op_scenarios()
                     + [torn_read_3x2x2()])


@pytest.mark.parametrize("scenario", WITNESS_SCENARIOS, ids=lambda sc: sc.name)
def test_violations_are_the_first_witness_of_each_class(scenario):
    """explore builds a witness only for a new class; an eager oracle that
    builds one for every hit keeps the same witnesses in the same order."""
    got = [(v.kind, v.name, v.detail, v.trace, v.state_hash)
           for v in explore(scenario).violations]
    assert got == first_witnesses(System(scenario))


class CountingHashes(System):
    def __init__(self, scenario):
        super().__init__(scenario)
        self.hashed = 0

    def state_hash(self, state):
        self.hashed += 1
        return super().state_hash(state)


class TestWitnessCost:
    def test_one_state_hash_per_kept_witness(self):
        sys = CountingHashes(torn_read_3x2x2())
        report = explore(sys)
        assert [v.cls for v in report.violations] == ["torn_read"]
        assert sys.hashed == len(report.violations)

    def test_torn_value_scans_once_per_reader_state(self, monkeypatch):
        made = []

        class CountingTornValue(monitors.TornValue):
            def __init__(self, doc):
                super().__init__(doc)
                self.scans = 0
                made.append(self)

            def scan(self, store):
                self.scans += 1
                return super().scan(store)

        monkeypatch.setitem(monitors.KINDS, "torn_value",
                            (CountingTornValue, *monitors.KINDS["torn_value"][1:]))
        sys = System(torn_read_3x2x2())
        explore(sys)
        states = reachable(sys)
        assert [m.pid for m in made] == [3, 4]
        for m in made:
            assert m.scans == len({sys.view(st).procs[m.pid] for st in states})

    @pytest.mark.parametrize("scenario", [torn_read_3x2x2(), catalog.get("dekker-mutex"),
                                          unguarded_sections()], ids=lambda sc: sc.name)
    def test_states_build_no_view_and_verdicts_run_once_per_parts(self, monkeypatch,
                                                                   scenario):
        """A view is built only for a kept witness's hash and a terminal state
        of the report; each watch's verdict runs once per distinct parts it reads."""
        views = []
        decode = System.view
        monkeypatch.setattr(System, "view", lambda sys, st: views.append(st) or decode(sys, st))
        runs = []  # (monitor index, slots, parts) of each verdict run

        def counted(sys):
            made = monitors.compile_monitors(sys)
            for k, m in enumerate(made):
                def watches(n_mechs, n_procs, inner=m.watches, k=k):
                    return [(slots, lambda *parts, slots=slots, verdict=verdict:
                             runs.append((k, slots, parts)) or verdict(*parts))
                            for slots, verdict in inner(n_mechs, n_procs)]
                m.watches = watches
            return made

        monkeypatch.setattr(explorer, "compile_monitors", counted)
        sys = System(scenario)
        report = explore(sys)
        assert len(views) <= len(report.violations) + report.distinct_terminal_states
        monkeypatch.undo()

        made = monitors.compile_monitors(sys)
        parts = [view.mechs + view.procs for view in map(sys.view, reachable(sys))]
        expected = {(k, slots, tuple(map(p.__getitem__, slots))) for p in parts
                    for k, m in enumerate(made) for slots, _ in m.watches(sys.n_mechs, sys.n_procs)}
        assert len(runs) == len(set(runs))
        assert set(runs) == expected


def fault_on_unwritten_read():
    """p0 may read the cell before p1 writes it, and then inc(None) faults."""
    return s.Scenario.from_parts(
        "fault-on-unwritten-read", 1, [s.message_cell("mc")],
        [s.process(0, s.read("mc", "t"), s.local("g", s.applied("inc", "t"))),
         s.process(1, s.write("mc", [1]))])


@pytest.mark.xfail(strict=True, raises=KernelError,
                   reason="a reachable program fault aborts explore (ROADMAP open item 2)")
def test_a_reachable_fault_does_not_abort_explore():
    assert isinstance(explore(fault_on_unwritten_read()), ExplorationReport)


def test_a_state_at_the_depth_bound_applies_nothing():
    """The faulting step leaves depth 1, so a search cut at depth 1 never
    applies it, and one cut at depth 2 does."""
    sc = fault_on_unwritten_read()
    assert explore(sc, Bounds(max_depth=1)).bounds_hit
    assert find_shortest(sc, "deadlock", Bounds(max_depth=1)) is None
    for search in (lambda b: explore(sc, b), lambda b: find_shortest(sc, "deadlock", b)):
        with pytest.raises(KernelError, match="cannot apply inc"):
            search(Bounds(max_depth=2))


# -- the transition layer --------------------------------------------------------

GOLDEN_CASES = _cases()  # name -> (scenario, classes it reaches)
SHORTEST_CASES = [(name, cls) for name, (_, classes) in sorted(GOLDEN_CASES.items())
                  for cls in sorted(classes)]


@pytest.mark.parametrize("depth", ["0", "L-1", "L", "L+1"])
@pytest.mark.parametrize("name, cls", SHORTEST_CASES)
def test_a_depth_bound_cuts_the_shortest_witness_exactly(name, cls, depth):
    """Below the unbounded witness's length L there is no witness; at L and
    above, the bounded search returns the unbounded witness."""
    sys = System(GOLDEN_CASES[name][0])
    unbounded = find_shortest(sys, cls)
    length = len(unbounded.trace.events)
    d = {"0": 0, "L-1": length - 1, "L": length, "L+1": length + 1}[depth]
    got = find_shortest(sys, cls, Bounds(max_depth=d))
    if d < length:
        assert got is None
    else:
        assert (got.trace, got.state_hash) == (unbounded.trace, unbounded.state_hash)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_replay_with_checks_agrees_with_the_reference_replay(name):
    """On every prefix of every saved witness, the same final state and classes
    as a replay by its own enabled/apply loop; on a stale step, the same error."""
    scenario, classes = GOLDEN_CASES[name]
    sys = System(scenario)
    bogus = (sys.n_procs, ("local",), None)  # no process offers it
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    docs = golden["report"]["violations"] + [v for v in golden["shortest"].values() if v]
    assert len(docs) == 2 * len(classes)
    for trace in (Violation.from_doc(v).trace for v in docs):
        for k in range(len(trace.events) + 1):
            prefix = trace.events[:k]
            assert replay_with_checks(sys, prefix) == reference_replay_with_checks(sys, prefix)
            errors = []
            for replay in (replay_with_checks, reference_replay_with_checks):
                with pytest.raises(NotEnabledAtStep) as ei:
                    replay(sys, prefix + (bogus,))
                errors.append((ei.value.index, ei.value.enabled))
            assert errors[0] == errors[1] and errors[0][0] == k


def _layer_scenarios():
    """The catalog, the golden op scenarios, torn-read 3x2x2 and the bench's
    three families at small sizes."""
    families, rng = bench_families(), random.Random(0)
    return WITNESS_SCENARIOS + [families.lost_update((2, 2), rng),
                                families.torn_read(2, 2, 2, rng),
                                families.relay_chain(2, 2, rng),
                                families.relay_chain(3, 2, rng)]


LAYER_SCENARIOS = _layer_scenarios()


@pytest.mark.parametrize("scenario", LAYER_SCENARIOS, ids=lambda sc: sc.name)
def test_edges_then_step_is_the_kernel_then_the_hooks(scenario):
    """At every reachable state, ``edges`` gives the kernel's edges, whose
    actions are its enabled actions in its order, and takes nothing, with
    sink hits only where there is no edge; ``step`` on each edge takes it
    once and gives the kernel's post state for its action and every
    monitor's event hits on that edge, in monitor order, in ``hits``."""
    sys = CountingSystem(scenario)
    states = reachable(sys)
    checks = _Checks(sys)
    for state in states:
        sys.applied.clear()
        edges, sink = checks.edges(state)
        assert [edge[0] for edge in edges] == System.enabled_actions(sys, state)
        assert sink == (() if edges else checks.sink(state))
        assert not sys.applied
        for edge in edges:
            ev = edge[0]
            post = checks.step(state, edge)
            assert sys.applied == {(state, ev): 1}
            assert post == System.apply(sys, state, ev)
            prev_view, post_view = sys.view(state), sys.view(post)
            assert list(checks.hits) == [hit for m in checks.monitors
                                         for hit in m.on_event(sys, prev_view, ev, post_view)]
            sys.applied.clear()


@pytest.mark.parametrize("scenario", LAYER_SCENARIOS, ids=lambda sc: sc.name)
def test_warm_offer_tables_answer_as_cold_ones(scenario):
    """A System whose offer tables hold every reachable view, with every
    edge's move filled, offers what one that computes each state's offers
    afresh does, and taking each edge gives the view and hash the cold
    System's ``apply`` does, also where the move was filled at another state
    with the same offer key (``TestCaches`` in test_kernel.py pins that
    moves are shared so). The two Systems are walked in step, so each state
    is the same in both, packed by each its own way."""
    warm, cold = System(scenario), System(scenario)
    states = reachable(warm)
    pairs = {warm.initial_state(): cold.initial_state()}
    level = list(pairs)
    while level:
        below = []
        for state in level:
            cold._views = tuple({} for _ in cold._views)  # no offer or move is cached
            edges = warm.edges(state)
            assert [edge[0] for edge in edges] == cold.enabled_actions(pairs[state])
            for edge in edges:
                assert edge[1] is not None
                post, cold_post = warm.take(state, edge), cold.apply(pairs[state], edge[0])
                assert warm.view(post) == cold.view(cold_post)
                assert warm.state_hash(post) == cold.state_hash(cold_post)
                if post not in pairs:
                    pairs[post] = cold_post
                    below.append(post)
        level = below
    assert pairs.keys() == states


class CallerRecordingSystem(System):
    """Records, for every call that asks the kernel for a state's edges or
    takes one, the calling function's name and whether it is a method of the
    transition layer (Python 3.10 has no ``co_qualname``)."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.callers = set()

    def _record(self):
        frame = _sys._getframe(2)
        self.callers.add((frame.f_code.co_name,
                          isinstance(frame.f_locals.get("self"), explorer._Checks)))

    def take(self, state, edge):
        self._record()
        return super().take(state, edge)

    def edges(self, state):
        self._record()
        return super().edges(state)


def test_every_strategy_steps_only_through_the_transition_layer():
    """With an event hook to run, every step is the layer's ``step``. (With
    none, ``step`` is the kernel's ``take`` itself, called by the strategy.)"""
    system = CallerRecordingSystem(catalog.get("lost-message-basic"))
    assert _Checks(system).on_event
    explore(system)
    witness = find_shortest(system, "lost_message")
    random_walks(system, walks=50, seed=1)
    replay_with_checks(system, witness.trace)
    assert system.callers == {("edges", True), ("step", True)}


KERNEL_STEPS = {"take", "edges", "apply", "enabled_actions"}
# The functions that expand states and take edges: one depth-first search, one
# breadth-first search, the walks and the replay.
SEARCHES = {"explore", "_breadth_first", "random_walks", "replay_with_checks"}


def kernel_steps_outside_the_layer(source):
    """Each ``(line, text)`` in ``source`` outside class ``_Checks`` that calls
    ``take``, ``edges``, ``apply`` or ``enabled_actions`` on anything but a
    ``_Checks`` (named ``checks``), or reads one of them off a System
    (named ``sys`` or ``<...>.sys``), which would let a strategy step by an
    alias. Also each read of a ``_Checks``' ``edges`` or ``step`` outside
    the top-level functions ``SEARCHES``, so a further search loop, such
    as a second breadth-first one, is found."""
    found, todo = [], [(ast.parse(source), None)]
    while todo:
        node, within = todo.pop()   # within: the name of the top-level def, if any
        if isinstance(node, ast.ClassDef) and node.name == "_Checks":
            continue
        if within is None and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            within = node.name
        todo.extend((child, within) for child in ast.iter_child_nodes(node))
        if (isinstance(node, ast.Attribute) and node.attr in ("edges", "step")
                and isinstance(node.value, ast.Name) and node.value.id == "checks"
                and within not in SEARCHES):
            found.append((node.lineno, ast.unparse(node)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called, of = node.func, node.func.value
            if called.attr in KERNEL_STEPS and not (isinstance(of, ast.Name)
                                                    and of.id == "checks"):
                found.append((called.lineno, ast.unparse(called)))
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_STEPS:
            of = node.value
            if (isinstance(of, ast.Name) and of.id == "sys") or (
                    isinstance(of, ast.Attribute) and of.attr == "sys"):
                found.append((node.lineno, ast.unparse(node)))
    return sorted(set(found))  # a call off a System is found as both


def test_no_code_outside_the_transition_layer_steps_the_kernel():
    """The static half of the pin above, which also covers a System with no
    event hook: no module of the package but the kernel, which defines them,
    asks a System for a state's edges or takes one, except in ``_Checks``."""
    package = pathlib.Path(explorer.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "kernel.py":
            assert kernel_steps_outside_the_layer(path.read_text(encoding="utf-8")) == [], \
                path.name


def test_the_static_pin_finds_a_strategy_that_steps_the_kernel():
    source = pathlib.Path(explorer.__file__).read_text(encoding="utf-8")
    for bypass in ("step = sys.take", "post = sys.apply(state, ev)",
                   "edges = self.sys.edges(state)", "acts = node.enabled_actions(state)"):
        tree = source.replace("    sys = as_system(scenario)\n",
                              f"    sys = as_system(scenario)\n    {bypass}\n")
        assert len(kernel_steps_outside_the_layer(tree)) >= 5, bypass


def test_the_static_pin_finds_a_search_loop_outside_the_searches():
    """A ``_Checks``' ``edges`` or ``step`` read in ``find_shortest`` or
    ``verify_violation`` (two of the five functions that open with
    ``sys = as_system(scenario)``), or in a new function, is found."""
    source = pathlib.Path(explorer.__file__).read_text(encoding="utf-8")
    for bypass in ("step = checks.step", "edges, sink = checks.edges(init)"):
        tree = source.replace("    sys = as_system(scenario)\n",
                              f"    sys = as_system(scenario)\n    {bypass}\n")
        assert len(kernel_steps_outside_the_layer(tree)) == 2, bypass
    third = ("\n\ndef _levels(checks, level):\n"
             "    for state, edges in level:\n"
             "        yield [(post, checks.edges(post)[0]) for post in\n"
             "               (checks.step(state, edge) for edge in edges)]\n")
    assert len(kernel_steps_outside_the_layer(source + third)) == 2


# -- the bounds ------------------------------------------------------------------

def stored_states(strategy, store, *args, **kwargs):
    """Run ``strategy`` and return how many states its local dict ``store``
    holds when it returns."""
    sizes = []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is strategy.__code__:
            sizes.append(len(frame.f_locals[store]))

    previous = _sys.getprofile()
    _sys.setprofile(watch)
    try:
        strategy(*args, **kwargs)
    finally:
        _sys.setprofile(previous)
    return sizes[-1]


@pytest.mark.parametrize("max_states", [0, 1, 2, 3])
@pytest.mark.parametrize("name", catalog.names())
def test_every_strategy_stores_at_most_max_states(name, max_states):
    """The initial state is always stored, and a new state only while fewer
    than ``max_states`` are held."""
    sc = catalog.get(name)
    b = Bounds(max_states=max_states)
    limit = max(1, max_states)
    assert stored_states(explore, "memo", sc, b) <= limit
    assert explore(sc, b).states_visited <= limit
    # a class no monitor reports, so the search runs until the store is full
    assert stored_states(find_shortest, "parents", sc, "no-such-class", b) <= limit
    assert stored_states(random_walks, "nodes", sc, walks=20, seed=1, bounds=b) <= limit


def assert_then_fail():
    """One process: a local step, then an assert that fails."""
    return s.Scenario.from_parts("assert-then-fail", 1, [],
                                 [s.process(0, s.local("x", [1]), s.assert_local("x", [0]))])


@pytest.mark.parametrize("max_states, found", [(1, False), (2, True)])
def test_a_state_found_when_the_store_is_full_is_still_checked(max_states, found):
    """The failing assert is a hit on the third state. With room for two
    states it is checked though not stored; with room for one, the second
    state is not expanded, so the third is never reached."""
    sc = assert_then_fail()
    b = Bounds(max_states=max_states)
    report = explore(sc, b)
    assert report.bounds_hit and report.schedules_complete is None
    assert report.states_visited == max_states
    assert (report.violation_classes == {"monitor_assert:assert_local"}) == found
    assert (find_shortest(sc, "monitor_assert", b) is not None) == found


@pytest.mark.parametrize("max_states", [0, 1])
def test_walks_under_a_tiny_state_bound_match_the_uncached_reference(max_states):
    for name in catalog.names():
        b = Bounds(max_states=max_states)
        sc = catalog.get(name)
        assert random_walks(sc, walks=50, seed=7, bounds=b) == \
            reference_walks(System(sc), 50, 7, b)


def choose_rejoin():
    """A choose whose arms take one and two steps to reach the same state,
    then an assert that fails: the shortest witness has three steps, and the
    depth-first search meets the rejoined state first by the longer arm."""
    return s.Scenario.from_parts(
        "choose-rejoin", 1, [s.raw_cell("c1", [0]), s.raw_cell("c2", [0])],
        [s.process(0, s.choose([s.write_word("c1", 0, 0)],
                               [s.wait_word("c2", 0, 0), s.wait_word("c2", 0, 0)]),
                   s.local("x", [1]), s.assert_local("x", [0]))])


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_a_shorter_path_expands_a_cut_state_again(depth):
    sys = System(choose_rejoin())
    b = Bounds(max_depth=depth)
    report = explore(sys, b)
    shortest = find_shortest(sys, "monitor_assert:assert_local", b)
    assert (shortest is not None) == (depth >= 3)
    assert report.violation_classes == ({"monitor_assert:assert_local"} if depth >= 3
                                        else frozenset())
    for v in report.violations:
        assert len(v.trace) <= depth and verify_violation(sys, v)


@pytest.mark.parametrize("name, cls", SHORTEST_CASES)
def test_explore_reports_a_class_iff_a_bounded_search_finds_it(name, cls):
    """At depth bounds around the shortest witness's length L, explore
    reports a class exactly when find_shortest finds a witness of it."""
    sys = System(GOLDEN_CASES[name][0])
    length = len(find_shortest(sys, cls).trace)
    for d in (length - 1, length, length + 1):
        b = Bounds(max_depth=d)
        report = explore(sys, b)
        assert (cls in report.violation_classes) == (find_shortest(sys, cls, b) is not None)
        assert (cls in report.violation_classes) == (d >= length)
        for v in report.violations:
            assert len(v.trace) <= d and verify_violation(sys, v)


def terminal_beside_a_read():
    """p0 writes 1, then 2, to a message cell; p1 either does a local step
    and then reads the cell, or reads a raw cell's word. A
    sent_received_order hit is a state hit when p1 reads the cell after
    both writes (4 steps) and a terminal hit when p1 takes the other arm
    (3 steps): a search that checks a sink one level late returns the 4."""
    return s.Scenario.from_parts(
        "terminal-beside-a-read", 1, [s.message_cell("m"), s.raw_cell("r", [0])],
        [s.process(0, s.write("m", [1]), s.write("m", [2])),
         s.process(1, s.choose([s.local("x", [0]), s.read("m", "t")],
                               [s.read_word("r", 0, "z")]))],
        [s.sent_received_order("m")])


@pytest.mark.parametrize("kind", ["monitor_assert:sent_received_order", "monitor_assert"])
def test_a_sink_hit_is_checked_at_the_depth_it_is_reached(kind):
    sys = System(terminal_beside_a_read())
    v = find_shortest(sys, kind)
    assert len(v.trace) == shortest_lengths(sys)[kind] == 3
    assert verify_violation(sys, v)


def _shortest_scenarios():
    """The catalog, the kernel tests' scenarios and the layer scenarios, once each."""
    by_name = {}
    for sc in SCENARIOS + LAYER_SCENARIOS:
        by_name.setdefault(sc.name, sc)
    return list(by_name.values())


@pytest.mark.parametrize("scenario", _shortest_scenarios(), ids=lambda sc: sc.name)
def test_find_shortest_returns_a_shortest_witness_of_every_class(scenario):
    """For every class explore reports and every bare kind among them,
    find_shortest's witness is as long as the shortest schedule prefix that
    ends in it, and replays to it."""
    sys = System(scenario)
    lengths = shortest_lengths(sys)
    report = explore(sys)
    assert not report.bounds_hit
    assert lengths.keys() == report.violation_classes | {v.kind for v in report.violations}
    for kind, length in lengths.items():
        v = find_shortest(sys, kind)
        assert len(v.trace) == length, kind
        assert verify_violation(sys, v), kind
