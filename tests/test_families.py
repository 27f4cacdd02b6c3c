"""The benchmark's scenario families at small sizes.

``bench/families.py`` builds the scaled scenarios the benchmark times and
gives their schedule counts in closed form. Here the explorer must match
those counts, and its state counts must match a plain breadth-first
search, on sizes that run in well under a second.
"""

import random

import pytest

from lockstep.explorer import explore
from lockstep.kernel import GlobalState, System

from helpers import bench_families, reachable

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
