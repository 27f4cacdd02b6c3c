"""Catalog conformance: frozen counts, value oracles, and the check runner."""

import dataclasses
import math

import pytest

from lockstep import catalog, machines
from lockstep.catalog import (CATALOG, catalog_check, entries, fact_problems, get, get_entry,
                              names)
from lockstep.explorer import Bounds, explore, terminal_values
from lockstep.kernel import System

from helpers import (brute_cell_reader_sequences, brute_lost_updates,
                     brute_torn_reads, maximal_schedule_count, reachable)

# (states visited, distinct terminal states, complete maximal schedules),
# confirmed by the independent BFS / path-count oracles below for the small
# entries and frozen here against drift.
EXPECTED = {
    "torn-read-raw": (133, 36, 90),               # 90 = 6!/(2!*2!*2!)
    "torn-read-locked": (61, 6, 6),               # three atomic blocks: 3!
    "undisciplined-third-party": (127, 16, 90),
    "lost-message-basic": (69, 20, 20),           # 20 = C(6,3)
    "status-channel-exact": (7, 1, 1),            # guards force one schedule
    "deadlock-direct-duplex": (4, 0, 2),
    "deadlock-fixed-indirect": (8, 1, 3),
    "duplex-strict": (5, 1, 1),
    "duplex-last-message": (8, 2, 2),
    "last-message-unidirectional": (7, 1, 1),
    "register-atomic-update": (16, 1, 20),        # 20 = C(6,3)
    "register-lost-update": (677, 27, 48620),     # 48620 = C(18,9)
    "dekker-mutex": (448, 2, 7625520),
    "decomposition-equivalence": (70, 20, 20),
}


@pytest.fixture(scope="module")
def reports():
    return {e.name: explore(System(e.build())) for e in CATALOG}


class TestShape:
    def test_fourteen_entries(self):
        assert len(CATALOG) == 14

    def test_names_are_unique_and_consistent(self):
        ns = names()
        assert len(set(ns)) == 14
        assert ns == [e.name for e in entries()]

    def test_scenario_names_match_entry_names(self):
        for e in CATALOG:
            assert e.build().name == e.name

    def test_builds_are_fresh_copies(self):
        a, b = get("dekker-mutex"), get("dekker-mutex")
        assert a == b and a is not b

    def test_unknown_name_is_a_keyerror(self):
        with pytest.raises(KeyError, match="no-such"):
            get_entry("no-such")

    def test_docs_are_present(self):
        for e in CATALOG:
            assert e.summary and e.outcome


class TestFrozenCounts:
    def test_expected_covers_the_catalog(self):
        assert set(EXPECTED) == set(names())

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_counts(self, name, reports):
        r = reports[name]
        assert not r.bounds_hit
        assert (r.states_visited, r.distinct_terminal_states,
                r.schedules_complete) == EXPECTED[name]

    @pytest.mark.parametrize("name", ["torn-read-locked", "undisciplined-third-party",
                                      "deadlock-fixed-indirect", "dekker-mutex"])
    def test_counts_against_independent_oracle(self, name, reports):
        sys = System(get(name))
        assert reports[name].states_visited == len(reachable(sys))
        assert reports[name].schedules_complete == maximal_schedule_count(sys)

    def test_expected_classes(self, reports):
        for e in CATALOG:
            assert reports[e.name].violation_classes == e.expected_classes, e.name


class TestValueOracles:
    def test_torn_read_raw_matches_word_level_brute_force(self):
        explored = terminal_values(System(get("torn-read-raw")), 2, ("a", "b"))
        brute = brute_torn_reads([[(0, 1), (1, 1)], [(0, 2), (1, 2)]], [0, 1], width=2)
        assert explored == brute
        assert not brute <= {(0, 0), (1, 1), (2, 2)}  # some assembly is torn

    def test_torn_read_locked_reads_only_whole_values(self):
        explored = terminal_values(System(get("torn-read-locked")), 2, ("a", "b"))
        assert explored <= {(0, 0), (1, 1), (2, 2)}

    def test_lost_update_terminal_values_match_brute_force(self):
        regs = terminal_values(System(get("register-lost-update")), "reg", ("content",))
        explored = {content[0] for (content,) in regs}
        assert explored == brute_lost_updates(2, 3) == {2, 3, 4, 5, 6}

    def test_decomposition_matches_the_overwrite_cell_model(self):
        model = brute_cell_reader_sequences([1, 2, 3], 3)
        relay = terminal_values(System(get("decomposition-equivalence")), 2, ("r1", "r2", "r3"))
        cell = terminal_values(System(get("lost-message-basic")), 1, ("r1", "r2", "r3"))
        assert relay == cell == model
        # and the model has a closed combinatorial form: monotone progress counts
        def v(k):
            return None if k == 0 else (k,)
        closed = {(v(k1), v(k2), v(k3))
                  for k1 in range(4) for k2 in range(k1, 4) for k3 in range(k2, 4)}
        assert model == closed and len(model) == 20


def _start(sys, source, names):
    """What ``names`` of ``source`` hold at the initial state, as a set of one tuple."""
    view = sys.view(sys.initial_state())
    if isinstance(source, int):
        return {tuple(dict(view.procs[source].store).get(n) for n in names)}
    return {tuple(getattr(view.mechs[sys.mech_index[source]], n) for n in names)}


# (entry, the report fields to replace, or a function of the observed terminal
# values and their values at the initial state that gives the values to
# observe instead, the problem fact_problems must report then): each fact an
# entry holds, failed once
BROKEN_FACTS = [
    ("status-channel-exact", lambda got, start: start,
     "terminal ch.sent/received not as expected: unexpected [((), ())], "
     "missing [(((1,), (2,), (3,)), ((1,), (2,), (3,)))]"),
    ("status-channel-exact", {"states_visited": 10_000},
     "visited 10000 states, expected fewer than 10000"),
    ("duplex-strict", {"schedules_complete": 2},
     "2 schedules, expected exactly 1"),
    ("last-message-unidirectional", lambda got, start: start,
     "terminal p1.r not as expected: unexpected [(None,)], missing [((3,),)]"),
    ("last-message-unidirectional", lambda got, start: got | start,
     "terminal p1.r not as expected: unexpected [(None,)], missing []"),
    ("register-atomic-update", lambda got, start: start,
     "terminal reg.content not as expected: unexpected [((0,),)], missing [((6,),)]"),
    ("register-lost-update", lambda got, start: start,
     "terminal reg.content not as expected: unexpected [((0,),)], "
     "missing [((2,),), ((3,),), ((4,),), ((5,),), ((6,),)]"),
    ("register-lost-update", lambda got, start: got - {((6,),)},
     "terminal reg.content not as expected: unexpected [], missing [((6,),)]"),
    ("register-lost-update", lambda got, start: set(),
     "terminal reg.content not as expected: unexpected [], "
     "missing [((2,),), ((3,),), ((4,),), ((5,),), ((6,),)]"),
    # one sequence is kept; the missing ones mix None and tuples, which only sort by repr
    ("decomposition-equivalence", lambda got, start: {max(got, key=repr)},
     "terminal p2.r1/r2/r3 not as in lost-message-basic p1.r1/r2/r3: unexpected [], "
     "missing [((1,), (1,), (1,)), ((1,), (1,), (2,)), "),
]


@pytest.mark.parametrize("name,change,problem", BROKEN_FACTS)
def test_each_fact_reports_its_failure(reports, name, change, problem, monkeypatch):
    """A broken observation is injected where ``fact_problems`` reads the
    entry's terminal values; a ``like`` entry's values are read unchanged."""
    entry = get_entry(name)
    sys = System(entry.build())
    assert fact_problems(entry, sys, reports[name]) == []
    broken = reports[name]
    if callable(change):
        def observed(s, source, names, real=catalog.terminal_values):
            got = real(s, source, names)
            return change(got, _start(s, source, names)) if s is sys else got
        monkeypatch.setattr(catalog, "terminal_values", observed)
    else:
        broken = dataclasses.replace(broken, **change)
    problems = fact_problems(entry, sys, broken)
    assert any(p.startswith(problem) for p in problems), problems


def test_the_facts_name_what_their_entries_have():
    """Each observed variable is one its process's program uses, each observed
    field one of its mechanism's snapshot, and each cross-entry reference names
    a catalog entry and a source that entry has; an observation gives either
    a literal set or a reference."""
    def assert_has(name, source, observed):
        sys = System(get(name))
        if isinstance(source, int):
            assert 0 <= source < sys.n_procs, (name, source)
            assert set(observed) <= sys.programs[source].vars, (name, source, observed)
        else:
            assert source in sys.mech_index, (name, source)
            mech = sys.view(sys.initial_state()).mechs[sys.mech_index[source]]
            fields = {f.name for f in dataclasses.fields(mech)}
            assert set(observed) <= fields, (name, source, observed)

    observing = [e for e in CATALOG if e.observe]
    assert len(observing) == 5
    for e in observing:
        ob = e.observe
        assert ob.names and bool(ob.values) != bool(ob.like), e.name
        assert_has(e.name, ob.source, ob.names)
        if ob.like:
            other, source = ob.like
            assert other in names() and other != e.name, e.name
            assert_has(other, source, ob.names)


@pytest.fixture(scope="module")
def full_rows():
    return {row.name: row for row in catalog_check()}


@pytest.mark.parametrize("name", names())
def test_an_entry_checked_alone_gives_its_full_run_row(full_rows, name):
    assert catalog_check(only=[name]) == [full_rows[name]]


class TestCatalogCheck:
    def test_everything_passes(self):
        rows = catalog_check()
        assert len(rows) == 14
        assert all(r.ok for r in rows), [r for r in rows if not r.ok]

    def test_only_filter(self):
        rows = catalog_check(only=["dekker-mutex"])
        assert [r.name for r in rows] == ["dekker-mutex"]

    @pytest.mark.parametrize("only", [["nosuch"], ["dekker-mutex", "nosuch", "other"]])
    def test_an_unknown_name_raises_before_anything_is_explored(self, monkeypatch, only):
        monkeypatch.setattr(catalog, "explore", lambda *a: pytest.fail("explored"))
        with pytest.raises(KeyError) as err:
            catalog_check(only=only)
        assert err.value.args[0] == "no catalog scenario named 'nosuch'; see 'lockstep list'"

    def test_tight_bounds_are_reported_not_hidden(self):
        rows = catalog_check(bounds=Bounds(max_depth=2))
        assert not all(r.ok for r in rows)
        assert any("bounds" in p for r in rows for p in r.problems)

    def test_removing_the_write_guard_is_caught(self, monkeypatch):
        # sensitivity check: a broken empty/full guard must not slip through
        monkeypatch.setattr(machines.StatusChannel, "can_write",
                            lambda self, pid: True)
        rows = catalog_check(only=["status-channel-exact"])
        assert not rows[0].ok
        assert "lost_message" in " ".join(rows[0].problems)

    def test_removing_the_duplex_dest_guard_is_caught(self, monkeypatch):
        monkeypatch.setattr(machines.DuplexChannel, "can_read",
                            lambda self, pid: self.content is not None)
        rows = catalog_check(only=["duplex-strict"])
        assert not rows[0].ok
