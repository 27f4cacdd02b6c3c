"""Golden walk summaries: same-seed random walks pinned across refactors.

Each draw of a walk indexes the edge order of the state it stands on, so a
change to the order of a state's edges, or to which edges a state offers,
moves what a seeded batch of walks collects. ``tests/data/walk_summaries.json``
holds, for every catalog entry and every op scenario of ``test_golden``, the
classes of ``random_walks`` at each seed, number of walks and bounds below.
A refactor of the kernel, the mechanisms or the explorer must reproduce it
byte for byte.

Regenerate the fixture only for an intended observable change::

    PYTHONPATH=src python tests/test_walk_golden.py
"""

import json
import pathlib

import pytest

from lockstep import catalog
from lockstep.explorer import random_walks
from lockstep.kernel import System

from test_golden import _op_scenarios

FIXTURE = pathlib.Path(__file__).parent / "data" / "walk_summaries.json"
SEEDS = (0, 1, 5, 2026)
WALKS = (1, 13, 100, 1000)
# name -> bounds override: the scenario's own, a shallow depth bound, a small store
BOUNDS = {"own": None, "depth-4": {"max_depth": 4}, "states-12": {"max_states": 12}}


def _scenarios():
    out = {e.name: e.build() for e in catalog.entries()}
    out.update((sc.name, sc) for sc in _op_scenarios())
    return out


def walk_doc(scenario):
    """``"<seed>/<walks>/<bounds>"`` -> the sorted classes of those walks,
    every batch walked on one System."""
    sys = System(scenario)
    return {f"{seed}/{walks}/{name}": sorted(random_walks(sys, walks, seed, bounds).classes)
            for seed in SEEDS for walks in WALKS for name, bounds in BOUNDS.items()}


def build_walks():
    return {name: walk_doc(sc) for name, sc in _scenarios().items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(_scenarios())


def test_some_batch_misses_a_class_another_finds(golden):
    """The pins depend on the walks' draws: on some scenario a batch finds
    fewer classes than another batch with the same bounds."""
    assert any(len({tuple(classes) for key, classes in doc.items()
                    if key.endswith("/own")}) > 1 for doc in golden.values())


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_reproduces_golden_walks(golden, name):
    assert walk_doc(_scenarios()[name]) == golden[name]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(build_walks(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
