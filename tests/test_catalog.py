"""Catalog conformance: frozen counts, value oracles, and the check runner."""

import math

import pytest

from lockstep import catalog, machines
from lockstep.catalog import CATALOG, catalog_check, entries, get, get_entry, names
from lockstep.explorer import Bounds, explore, terminal_mechanism_states
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
    def test_torn_read_raw_matches_word_level_brute_force(self, reports):
        sys = System(get("torn-read-raw"))
        from lockstep.explorer import terminal_variable_values
        explored = terminal_variable_values(sys, reports["torn-read-raw"], 2, ("a", "b"))
        brute = brute_torn_reads([[(0, 1), (1, 1)], [(0, 2), (1, 2)]], [0, 1], width=2)
        assert explored == brute
        assert not brute <= {(0, 0), (1, 1), (2, 2)}  # some assembly is torn

    def test_torn_read_locked_reads_only_whole_values(self, reports):
        sys = System(get("torn-read-locked"))
        from lockstep.explorer import terminal_variable_values
        explored = terminal_variable_values(sys, reports["torn-read-locked"], 2, ("a", "b"))
        assert explored <= {(0, 0), (1, 1), (2, 2)}

    def test_lost_update_terminal_values_match_brute_force(self, reports):
        regs = terminal_mechanism_states(System(get("register-lost-update")),
                                         reports["register-lost-update"], "reg")
        explored = {m.content[0] for m in regs}
        assert explored == brute_lost_updates(2, 3) == {2, 3, 4, 5, 6}

    def test_decomposition_matches_the_overwrite_cell_model(self, reports):
        from lockstep.explorer import terminal_variable_values
        model = brute_cell_reader_sequences([1, 2, 3], 3)
        relay = terminal_variable_values(System(get("decomposition-equivalence")),
                                         reports["decomposition-equivalence"],
                                         2, ("r1", "r2", "r3"))
        cell = terminal_variable_values(System(get("lost-message-basic")),
                                        reports["lost-message-basic"],
                                        1, ("r1", "r2", "r3"))
        assert relay == cell == model
        # and the model has a closed combinatorial form: monotone progress counts
        def v(k):
            return None if k == 0 else (k,)
        closed = {(v(k1), v(k2), v(k3))
                  for k1 in range(4) for k2 in range(k1, 4) for k3 in range(k2, 4)}
        assert model == closed and len(model) == 20


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
