"""The benchmark's scenario families at small sizes.

``bench/families.py`` builds the scaled scenarios the benchmark times and
gives their schedule counts in closed form. Here the explorer must match
those counts, and its state counts must match a plain breadth-first
search, on sizes that run in well under a second.
"""

import random

import pytest

from lockstep.explorer import explore, find_shortest
from lockstep.kernel import GlobalState, System

from helpers import bench_families, maximal_schedule_count, reachable, schedules_to

families = bench_families()


@pytest.mark.parametrize("incs", [(1, 1), (2, 2), (1, 1, 1), (2, 1, 1), (3, 2)])
def test_lost_update_counts(incs):
    sys = System(families.lost_update(incs, random.Random(0)))
    report = explore(sys)
    assert report.schedules_complete == families.lost_update_schedules(incs)
    assert report.states_visited == len(reachable(sys))
    assert report.violation_classes == frozenset()


@pytest.mark.parametrize("writers,width,readers", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_torn_read_counts(writers, width, readers):
    sys = System(families.torn_read(writers, width, readers, random.Random(0)))
    report = explore(sys)
    assert report.schedules_complete == families.torn_read_schedules(writers, width, readers)
    assert report.states_visited == len(reachable(sys))
    assert report.violation_classes == {"torn_read"}


@pytest.mark.parametrize("relays,messages,states,schedules,shortest", [
    (2, 1, 17, 18, 4), (2, 2, 82, 302, 6), (3, 2, 328, 41_970, 9), (2, 3, 377, 5_978, 8)])
def test_relay_chain_counts(relays, messages, states, schedules, shortest):
    """The rendezvous path at family scale: counts against a plain BFS and a
    recursive schedule count, and the shortest deadlock against the BFS."""
    scenario = families.relay_chain(relays, messages, random.Random(0))
    sys = System(scenario)
    report = explore(scenario)
    assert report.states_visited == len(reachable(sys)) == states
    assert report.schedules_complete == maximal_schedule_count(sys) == schedules
    assert report.violation_classes == {"deadlock"}
    deadlocks = [len(path) for state, path in schedules_to(sys).items()
                 if not sys.enabled_actions(state) and not sys.all_terminated(state)]
    assert len(find_shortest(scenario, "deadlock").trace) == min(deadlocks) == shortest


def test_explore_keys_its_memo_on_packed_states(monkeypatch):
    """The memo, the caches and the monitors without a hit never hash a view."""
    hashed = []
    view_hash = GlobalState.__hash__

    def counting(self):
        hashed.append(self)
        return view_hash(self)

    monkeypatch.setattr(GlobalState, "__hash__", counting)
    report = explore(families.lost_update((2, 2), random.Random(0)))
    assert report.schedules_complete == families.lost_update_schedules((2, 2))
    assert hashed == []
