"""The benchmark's workloads and their known answers.

Each workload is a closed batch: one process, one thread, a fixed amount
of exhaustive or seeded work per repetition. ``build`` makes the
workload's scenarios from a seeded RNG; ``verdict`` runs the lockstep
strategies on compiled systems and checks every answer; ``work`` gives the
states one verdict examines and the transitions it applies. For the
exhaustive and breadth-first workloads those are the distinct states
reached, fixed by the scenario, so they are known constants here (the
tests count them); the walks' states and steps depend on the seed, so a
reference walker counts them.

The workloads are chosen so that each layer a later change is likely to
optimise does most of the work in one workload and little in another:

- lost-update: kernel stepping and the DFS memo (state hash and equality);
  monitors idle.
- torn-read: the same DFS, but every state runs two monitors and every
  monitor hit pays a SHA-256 state hash; word-level raw-cell path.
- shortest-relay: the only BFS and the only rendezvous / choose path.
- walks-catalog: random walks, no memo, one enabled_actions and one apply
  per step, over every catalog entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from lockstep import catalog, explorer, kernel, scenarios

import families


class Tally:
    """Answer checks of one verdict: operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.explored = 0   # states visited, summed over explore() reports
        self.kept = 0       # violations kept, summed over explore() reports
        self.walks = 0      # walks completed by random_walks()

    def check(self, what, op):
        """Run one operation. ``op`` returns a problem string or None. An
        operation that raises counts as failed, and the run continues."""
        self.attempted += 1
        try:
            problem = op()
        except Exception as e:  # a defect under test must not end the run
            problem = f"raised {type(e).__name__}: {e}"
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable      # random.Random -> list of Scenario
    verdict: Callable    # (systems, seed) -> Tally
    work: Callable       # (systems, seed) -> (states examined, transitions)


def setup(workload, seed):
    """Build, validate and compile the workload's scenarios."""
    systems = []
    for scenario in workload.build(random.Random(seed)):
        scenarios.validate(scenario)
        systems.append(kernel.System(scenario))
    return systems


def _differs(what, got, want):
    return None if got == want else f"{what} {got!r}, expected {want!r}"


def _explore(tally, sys, states, schedules, classes):
    """explore() and the check of its report; returns the report."""
    out = []

    def op():
        report = explorer.explore(sys)
        out.append(report)
        tally.explored += report.states_visited
        tally.kept += len(report.violations)
        return (_differs("bounds hit", report.bounds_hit, False)
                or _differs("states", report.states_visited, states)
                or _differs("schedules", report.schedules_complete, schedules)
                or _differs("classes", set(report.violation_classes), set(classes)))

    tally.check(f"explore {sys.scenario.name}", op)
    return out[0] if out else None


def _shortest(tally, sys, kind, length):
    out = []

    def op():
        v = explorer.find_shortest(sys, kind)
        if v is None:
            return f"no {kind} witness"
        out.append(v)
        return _differs("witness length", len(v.trace), length)

    tally.check(f"find_shortest {sys.scenario.name} {kind}", op)
    return out[0] if out else None


def _verify(tally, sys, violation):
    tally.check(f"verify_violation {sys.scenario.name} {violation.cls}",
                lambda: None if explorer.verify_violation(sys, violation)
                else "witness does not replay to its class and state hash")


def _known(states, transitions):
    return lambda systems, seed: (states, transitions)


# -- lost-update -----------------------------------------------------------------


def lost_update(incs=(3, 3, 2), states=50_085, transitions=112_086):
    schedules = families.lost_update_schedules(incs)

    def verdict(systems, seed):
        tally = Tally()
        _explore(tally, systems[0], states, schedules, ())
        return tally

    return Workload(
        "lost-update",
        lambda rng: [families.lost_update(incs, rng)],
        verdict, _known(states, transitions))


# -- torn-read ---------------------------------------------------------------------


def torn_read(writers=3, width=2, readers=2, states=14_688, transitions=24_049,
              witness=3):
    schedules = families.torn_read_schedules(writers, width, readers)

    def verdict(systems, seed):
        tally = Tally()
        sys = systems[0]
        report = _explore(tally, sys, states, schedules, {"torn_read"})
        for v in (report.violations if report else ()):
            _verify(tally, sys, v)
        v = _shortest(tally, sys, "torn_read", witness)
        if v is not None:
            _verify(tally, sys, v)
        return tally

    return Workload(
        "torn-read",
        lambda rng: [families.torn_read(writers, width, readers, rng)],
        verdict, _known(states, transitions))


# -- shortest-relay -----------------------------------------------------------------


def shortest_relay(relays=4, messages=3, states=9_329, transitions=28_497, witness=16):
    def verdict(systems, seed):
        tally = Tally()
        sys = systems[0]
        v = _shortest(tally, sys, "deadlock", witness)
        if v is not None:
            _verify(tally, sys, v)
        return tally

    return Workload(
        "shortest-relay",
        lambda rng: [families.relay_chain(relays, messages, rng)],
        verdict, _known(states, transitions))


# -- walks-catalog -------------------------------------------------------------------


def walks_catalog(walks=1000):
    expected = {e.name: e.expected_classes for e in catalog.entries()}

    def verdict(systems, seed):
        tally = Tally()
        for sys in systems:
            def op(sys=sys):
                summary = explorer.random_walks(sys, walks=walks, seed=seed)
                tally.walks += summary.walks
                extra = summary.classes - expected[sys.scenario.name]
                return (_differs("walks", summary.walks, walks)
                        or (f"classes {sorted(extra)} not expected" if extra else None))
            tally.check(f"random_walks {sys.scenario.name}", op)
        return tally

    def work(systems, seed):
        """Reference walker: the states the same seeded walks stand on,
        repeats included since walks memoise nothing, and their steps,
        independent of how random_walks serves them."""
        steps = 0
        for sys in systems:
            rng = random.Random(seed)
            max_depth = explorer.resolve_bounds(sys, None).max_depth
            for _ in range(walks):
                state, depth = sys.initial_state(), 0
                while depth < max_depth:
                    edges = sys.enabled_actions(state)
                    if not edges:
                        break
                    state = sys.apply(state, edges[rng.randrange(len(edges))])
                    depth += 1
                steps += depth
        return len(systems) * walks + steps, steps

    return Workload(
        "walks-catalog",
        lambda rng: [e.build() for e in catalog.entries()],
        verdict, work)


WORKLOADS = {w.name: w for w in (lost_update(), torn_read(), shortest_relay(), walks_catalog())}
