"""A System's cold path against the per-state code it replaced.

A System keeps one position entry per (process, program position): the
slots its offers read, their getter, whether it is idle, and its receive
heads. Each process state gets only its own offers. A process's offers are
sorted only when there are two or more. Process states are NamedTuples and
mechanism transitions call their class's constructor. Each test here holds
one of these to the code it replaced, kept in ``helpers`` or below.
"""

import dataclasses

import pytest

import lockstep.scenarios as s
from lockstep import catalog, machines
from lockstep.explorer import explore, random_walks
from lockstep.kernel import ProcState, System, _action_sort_key

from helpers import (CountingSystem, reachable, reference_edges, reference_receiver,
                     reference_view)
from test_golden import _op_scenarios
from test_kernel import SCENARIOS, _family_scenarios


def _many_offer_scenarios():
    """A choose between two writes, listed against sort order, and a send
    with two ready receivers that shares a choose with a word write: each
    makes a process's offers a list of two or more."""
    return [
        s.Scenario.from_parts(
            "choose-two-writes", 1, [s.message_cell("a"), s.message_cell("b")],
            [s.process(0, s.choose([s.write("a", [2])], [s.write("b", [1])]),
                       s.write("a", [3])),
             s.process(1, s.read("a", "x"))]),
        s.Scenario.from_parts(
            "send-to-two-ready-receivers", 1, [s.direct_channel("dc"), s.raw_cell("c", [0])],
            [s.process(0, s.choose([s.write_word("c", 0, 3)], [s.send("dc", [1])])),
             s.process(1, s.receive("dc", "x")),
             s.process(2, s.receive("dc", "y"))]),
    ]


TABLE_SCENARIOS = SCENARIOS + _family_scenarios() + _many_offer_scenarios()


class TestPositionTables:
    @pytest.mark.parametrize("scenario", TABLE_SCENARIOS, ids=lambda sc: sc.name)
    def test_each_state_reads_as_the_per_state_tables_did(self, scenario):
        """At every reachable state, each process's view entry has the slots
        and the idle verdict the per-state tables gave, its getter reads
        those slots, each receive head is the one a scan finds, and the
        edges are the reference's, in the same order."""
        sys = System(scenario)
        channels = [m["id"] for m in scenario.mechanisms if m["kind"] == "direct_channel"]
        for state in reachable(sys):
            edges = sys.edges(state)
            assert [(e[0], e[2]) for e in edges] == reference_edges(sys, state)
            for p, ps in enumerate(state[sys.n_mechs:]):
                entry, pc = sys._views[p][ps], sys._parts[ps].pc
                slots, idle = reference_view(sys, p, ps)
                assert (entry is None) == idle
                if entry is not None:
                    read, _, got = entry
                    assert got == slots and read is sys._positions[p][pc][0]
                    assert read(state) == (tuple(map(state.__getitem__, slots))
                                           if len(slots) > 1 else
                                           state[slots[0]] if slots else len(state))
                for mech_id in channels:
                    assert sys._receiver(p, pc, mech_id) is \
                        reference_receiver(sys, p, pc, mech_id)

    @pytest.mark.parametrize("scenario", _many_offer_scenarios(), ids=lambda sc: sc.name)
    def test_two_or_more_offers_are_still_sorted(self, scenario):
        """Every process's offers come out in ``_action_sort_key`` order, and
        at some state a process offers two or more edges that the sort
        moved out of the order of the heads that offer them."""
        sys = System(scenario)
        moved = False
        for state in reachable(sys):
            for p, ps in enumerate(state[sys.n_mechs:]):
                edges = sys._edges_of(p, ps, state)
                actions = [e[0] for e in edges]
                assert actions == sorted(actions, key=_action_sort_key)
                program = sys.programs[p]
                place = {id(program.instrs[i]): k
                         for k, i in enumerate(program.heads[sys._parts[ps].pc])}
                order = [place[id(e[2])] for e in edges]
                moved = moved or order != sorted(order)
        assert moved

    @pytest.mark.parametrize("scenario", TABLE_SCENARIOS, ids=lambda sc: sc.name)
    def test_each_position_is_computed_once_per_system(self, scenario):
        """However many searches run on one System, it computes each (p, pc)
        entry once, each process's offers once per offer key and each move
        once, and holds an entry for every position a state reaches."""
        sys = CountingSystem(scenario)
        explore(sys)
        random_walks(sys, walks=50, seed=3)
        states = reachable(sys)
        assert set(sys.positions.values()) == {1}
        assert set(sys.local_offers.values()) == {1}
        assert set(sys.moves.values()) == {1}
        assert {(p, sys._parts[ps].pc) for state in states
                for p, ps in enumerate(state[sys.n_mechs:])} <= set(sys.positions)

    def test_process_states_share_their_position_s_entry(self):
        """On lost-update 2/2 the process states outnumber their positions,
        and each position's entry is computed once for all of them."""
        sys = CountingSystem(_family_scenarios()[0])
        explore(sys)
        views = sum(len(table) for table in sys._views)
        assert len(sys.positions) < views
        assert sum(sys.positions.values()) == len(sys.positions)


# the transitions as they were written with ``dataclasses.replace``, by kind
_REPLACED = {
    "lock": lambda m, pid: dataclasses.replace(m, owner=pid),
    "unlock": lambda m, pid: dataclasses.replace(m, owner=None),
    "write_word": lambda m, pid, index, word: dataclasses.replace(
        m, words=m.words[:index] + (word,) + m.words[index + 1:]),
    "update": lambda m, pid, fn: dataclasses.replace(
        m, content=machines.apply_update(fn, m.content)),
}


def _replaced_write(m, pid, value):
    if isinstance(m, machines.MessageCell):
        return dataclasses.replace(m, content=value, read_since_write=False,
                                   sent=m.sent + (value,))
    if isinstance(m, machines.DuplexChannel):
        return dataclasses.replace(m, content=value, dest=m.other(pid), sent=m.sent + (value,))
    if isinstance(m, machines.StatusChannel):
        return dataclasses.replace(m, content=value, sent=m.sent + (value,))
    return dataclasses.replace(m, content=value)   # a shared register


def _replaced_read(m, pid):
    if isinstance(m, machines.MessageCell):
        if m.content is None:
            return None, dataclasses.replace(m, read_since_write=True)
        return m.content, dataclasses.replace(m, read_since_write=True,
                                              received=m.received + (m.content,))
    if isinstance(m, machines.DuplexChannel):
        return m.content, dataclasses.replace(m, content=None, dest=None,
                                              received=m.received + (m.content,))
    if isinstance(m, machines.StatusChannel):
        return m.content, dataclasses.replace(m, content=None,
                                              received=m.received + (m.content,))
    return m.content, m   # a shared register


_REPLACED.update(write=_replaced_write, read=_replaced_read)


def _arguments(m, width):
    """Sample fields for each transition the snapshot ``m`` has."""
    return {"lock": [()], "unlock": [()], "read": [()],
            "write": [((1,) * width,), ((7,) * width,)],
            "write_word": [(i, w) for i in range(len(getattr(m, "words", ()))) for w in (0, 5)],
            "update": [(("inc",),), (("add", 3),), (("double",),)]}


def _reached_snapshots():
    """(snapshot, word width, pids) for every mechanism snapshot the catalog
    and the golden op scenarios reach."""
    out = {}
    for sc in [catalog.get(name) for name in catalog.names()] + _op_scenarios():
        sys = System(sc)
        for state in reachable(sys):
            for m in sys.view(state).mechs:
                out.setdefault(m, (sc.word_width, range(sys.n_procs)))
    return out


class TestParts:
    def test_each_transition_equals_dataclasses_replace(self):
        """Every transition of every mechanism kind, on every snapshot the
        catalog reaches, for every pid and some fields, is the snapshot
        ``dataclasses.replace`` built: equal, of the same type, with the
        same ``repr``."""
        snapshots = _reached_snapshots()
        assert {type(m).__name__ for m in snapshots} >= {
            "RawCell", "LockedCell", "MessageCell", "StatusChannel", "LastMessageChannel",
            "DuplexChannel", "SharedRegister"}
        checked = set()
        for m, (width, pids) in snapshots.items():
            for pid in pids:
                for name, calls in _arguments(m, width).items():
                    if not hasattr(m, name):
                        continue
                    for fields in calls:
                        got = getattr(m, name)(pid, *fields)
                        want = _REPLACED[name](m, pid, *fields)
                        assert got == want and repr(got) == repr(want)
                        snapshot = got[1] if name == "read" else got
                        target = want[1] if name == "read" else want
                        assert type(snapshot) is type(target) is type(m)
                        checked.add((type(m).__name__, name))
        assert len(checked) == 17   # every transition of the seven kinds that have one

    def test_a_process_state_prints_as_the_dataclass_did(self):
        assert repr(ProcState(pc=0)) == "ProcState(pc=0, store=(), failed=None)"
        assert repr(ProcState(3, (("x", (1, 2)), ("y", None)), "p0.x")) == \
            "ProcState(pc=3, store=(('x', (1, 2)), ('y', None)), failed='p0.x')"

    @pytest.mark.parametrize("scenario", [catalog.get(name) for name in catalog.names()]
                             + _op_scenarios(), ids=lambda sc: sc.name)
    def test_no_two_parts_of_different_types_compare_equal(self, scenario):
        """Within one intern table, no part equals a part of another type."""
        sys = System(scenario)
        reachable(sys)
        by_type = {}
        for part in sys._parts:
            by_type.setdefault(type(part), []).append(part)
        kinds = list(by_type)
        for a, kind in enumerate(kinds):
            for other in kinds[a + 1:]:
                assert not any(x == y for x in by_type[kind] for y in by_type[other])

    def test_equal_fields_of_two_channel_kinds_are_two_parts(self):
        """An empty status channel and an empty last-message channel hold the
        same fields but are two parts with two indices."""
        sys = System(s.Scenario.from_parts(
            "twin-channels", 1, [s.status_channel("a"), s.last_message_channel("b")],
            [s.process(0, s.write("a", [1]), s.write("b", [1]))]))
        a, b = sys.initial_state()[:2]
        assert a != b and sys._parts[a] != sys._parts[b]
        post = sys.apply(sys.apply(sys.initial_state(), (0, ("write", (1,)), "a")),
                         (0, ("write", (1,)), "b"))
        assert post[0] != post[1]
        assert type(sys._parts[post[0]]) is machines.StatusChannel
        assert type(sys._parts[post[1]]) is machines.LastMessageChannel


class _SinkCountingSystem(System):
    """Counts ``all_terminated`` calls and the ``edges`` calls that find no edge."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.decided = self.sinks = 0

    def all_terminated(self, state):
        self.decided += 1
        return super().all_terminated(state)

    def edges(self, state):
        out = super().edges(state)
        self.sinks += not out
        return out


def test_explore_decides_each_sink_once():
    """``explore`` asks whether a sink has terminated once and hands the
    answer to ``sink``: as many ``all_terminated`` calls as sinks, on entries
    with terminal states and with deadlocks."""
    deadlocks = terminals = 0
    for name in catalog.names():
        sys = _SinkCountingSystem(catalog.get(name))
        report = explore(sys)
        assert sys.decided == sys.sinks > 0
        deadlocks += "deadlock" in report.violation_classes
        terminals += report.distinct_terminal_states > 0
    assert deadlocks and terminals
