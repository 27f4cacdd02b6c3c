"""Monitor behavior, both directly on fabricated states and via exploration."""

import json
import random

import pytest

import lockstep.scenarios as s
from lockstep import catalog
from lockstep.explorer import explore, terminal_values
from lockstep.kernel import GlobalState, ProcState, System
from lockstep.machines import DuplexChannel, MessageCell, StatusChannel
from lockstep.monitors import (LostUnread, MutualExclusion, RecipientTag,
                               SentReceivedOrder, TerminalAssert, TornValue,
                               compile_monitors)
from lockstep.scenarios import loads

from helpers import bench_families, reachable
from test_golden import _op_scenarios


def state(mech=None, stores=((),)):
    return GlobalState(mechs=(mech,) if mech is not None else (),
                       procs=tuple(ProcState(pc=0, store=st) for st in stores))


class TestMutualExclusion:
    mon = MutualExclusion({"markers": [[0, "cs"], [1, "cs"]]})

    def test_two_inside_is_a_hit(self):
        st = state(stores=((("cs", (1,)),), (("cs", (1,)),)))
        hits = self.mon.on_state(None, st)
        assert hits and hits[0][0] == "monitor_assert"
        assert hits[0][1] == "mutual_exclusion"
        assert "p0, p1" in hits[0][2]

    def test_one_inside_is_fine(self):
        st = state(stores=((("cs", (1,)),), (("cs", (0,)),)))
        assert self.mon.on_state(None, st) == ()

    def test_unbound_marker_is_outside(self):
        st = state(stores=((), (("cs", (1,)),)))
        assert self.mon.on_state(None, st) == ()

    def test_a_process_marked_twice_is_inside_once(self):
        """A process cannot exclude itself: it is one process inside, however
        many of the markers name it."""
        st = state(stores=((("cs", (1,)),), (("cs", (1,)),)))
        assert MutualExclusion({"markers": [[0, "cs"], [0, "cs"]]}).on_state(None, st) == ()
        twice = MutualExclusion({"markers": [[0, "cs"], [1, "cs"], [0, "cs"]]})
        assert twice.on_state(None, st)[0][2] == "p0, p1 inside together"
        sc = s.Scenario.from_parts("marked-twice", 1, [], [s.process(0, s.local("cs", [1]))],
                                   [s.mutual_exclusion([[0, "cs"], [0, "cs"]])])
        assert explore(System(sc)).violations == ()


class TestSentReceivedOrder:
    mon = SentReceivedOrder({"mechanism": "ch"}, index=0)

    def test_prefix_ok(self):
        ch = StatusChannel(sent=((1,), (2,)), received=((1,),))
        assert self.mon.on_state(None, state(ch)) == ()

    def test_non_prefix_is_a_hit(self):
        ch = StatusChannel(sent=((1,), (2,)), received=((2,),))
        hits = self.mon.on_state(None, state(ch))
        assert hits and hits[0][1] == "sent_received_order"

    def test_terminal_requires_equality(self):
        ch = StatusChannel(sent=((1,), (2,)), received=((1,),))
        hits = self.mon.on_terminal(ch)
        assert hits and "terminated with" in hits[0][2]


class TestTornValue:
    mon = TornValue({"process": 0, "vars": ["a", "b"],
                     "allowed": [[1, 1], [2, 2]], "mechanism": "cell"})

    def test_mixed_value_is_torn(self):
        st = state(stores=((("a", 1), ("b", 2)),))
        hits = self.mon.on_state(None, st)
        assert hits and hits[0][0] == "torn_read"
        assert "(1, 2)" in hits[0][2] and "'cell'" in hits[0][2]

    def test_whole_value_is_fine(self):
        st = state(stores=((("a", 2), ("b", 2)),))
        assert self.mon.on_state(None, st) == ()

    def test_waits_for_all_vars(self):
        st = state(stores=((("a", 1),),))
        assert self.mon.on_state(None, st) == ()


class TestTornValueMemo:
    def monitor(self):
        return TornValue({"process": 0, "vars": ["a", "b"],
                          "allowed": [[1, 1], [2, 2]], "mechanism": "cell"})

    def test_other_processes_do_not_change_the_hits(self):
        mon = self.monitor()
        torn = (("a", 1), ("b", 2))
        first = mon.on_state(None, state(stores=(torn, (("x", 1),))))
        second = mon.on_state(None, state(stores=(torn, (("x", 2),))))
        assert first and first == second

    def test_hits_are_a_tuple(self):
        mon = self.monitor()
        assert isinstance(mon.on_state(None, state(stores=((("a", 1), ("b", 2)),))), tuple)
        assert mon.on_state(None, state(stores=((("a", 1), ("b", 1)),))) == ()

    def test_a_different_reader_store_is_checked_afresh(self):
        mon = self.monitor()
        torn = state(stores=((("a", 1), ("b", 2)),))
        whole = state(stores=((("a", 2), ("b", 2)),))
        assert mon.on_state(None, torn)
        assert mon.on_state(None, whole) == ()
        assert mon.on_state(None, torn)


class TestRecipientTag:
    mon = RecipientTag({"mechanism": "dx"}, index=0)

    def test_reading_your_own_message_is_a_hit(self):
        # fabricated: the guards never let this state arise
        dx = DuplexChannel(side_a=0, side_b=1, content=(1,), dest=1)
        hits = self.mon.on_event((0, ("read",), "dx"), dx)
        assert hits and hits[0][0] == "wrong_recipient"

    def test_intended_reader_is_fine(self):
        dx = DuplexChannel(side_a=0, side_b=1, content=(1,), dest=1)
        assert self.mon.on_event((1, ("read",), "dx"), dx) == ()

    def test_unreachable_in_the_real_mechanism(self):
        for name in ("duplex-strict", "duplex-last-message"):
            report = explore(catalog.get(name))
            assert "wrong_recipient" not in report.violation_classes


class TestTerminalAssert:
    def test_mismatch_reported(self):
        mon = TerminalAssert({"process": 0, "var": "r", "expected": [3]})
        hits = mon.on_terminal(ProcState(pc=0, store=(("r", (2,)),)))
        assert hits and "expected (3,)" in hits[0][2]

    def test_unbound_variable_reported(self):
        mon = TerminalAssert({"process": 0, "var": "r", "expected": [3]})
        hits = mon.on_terminal(ProcState(pc=0))
        assert hits and "<unbound>" in hits[0][2]

    def test_status_token_expectation(self):
        mon = TerminalAssert({"process": 0, "var": "t", "expected": "empty"})
        assert mon.on_terminal(ProcState(pc=0, store=(("t", "empty"),))) == ()

    def test_a_left_out_expected_is_null(self):
        """validate reads a terminal_assert without ``expected`` as expecting
        null, and so does the monitor, so the run reports a hit."""
        doc = catalog.get("last-message-unidirectional").to_doc()
        del doc["monitors"][0]["expected"]
        report = explore(loads(json.dumps(doc)))
        assert [(v.name, v.detail) for v in report.violations] == [
            ("terminal_assert", "p1.r is (3,), expected None")]


class TestLostUnread:
    mon = LostUnread({"mechanism": "m"}, index=0)

    def event(self, prev_mech, pid=0):
        return self.mon.on_event((pid, ("write", (9,)), "m"), prev_mech)

    def test_overwriting_an_unread_message(self):
        hits = self.event(MessageCell(content=(1,), read_since_write=False))
        assert hits == [("lost_message", None, None)]

    def test_overwriting_a_read_message_is_fine(self):
        assert self.event(MessageCell(content=(1,), read_since_write=True)) == ()

    def test_first_write_is_fine(self):
        assert self.event(MessageCell()) == ()

    def test_duplex_own_outgoing(self):
        dx = DuplexChannel(side_a=0, side_b=1, content=(1,), dest=1)
        assert self.event(dx, pid=0) == [("lost_message", None, "own-outgoing")]

    def test_duplex_incoming(self):
        dx = DuplexChannel(side_a=0, side_b=1, content=(1,), dest=1)
        assert self.event(dx, pid=1) == [("lost_message", None, "incoming")]

    def test_other_mechanisms_report_plain(self):
        assert self.event(StatusChannel(content=(1,))) == [("lost_message", None, None)]

    def test_a_message_read_twice_is_not_lost(self):
        """A write over an unread message is flagged, a second read of one is not."""
        sc = s.Scenario.from_parts("read-twice", 1, [s.message_cell("m")],
                                   [s.process(0, s.write("m", [1])),
                                    s.process(1, s.read("m", "a"), s.read("m", "b"))],
                                   [s.lost_unread("m")])
        sys = System(sc)
        report = explore(sys)
        assert ((1,), (1,)) in terminal_values(sys, 1, ("a", "b"))
        assert "lost_message" not in report.violation_classes
        assert report.violations == ()


class TestCompileMonitors:
    def test_local_asserts_always_installed(self):
        sys = System(catalog.get("deadlock-direct-duplex"))  # no monitors declared
        mons = compile_monitors(sys)
        assert len(mons) == 1 and type(mons[0]).__name__ == "LocalAsserts"

    def test_scenario_monitors_follow(self):
        sys = System(catalog.get("duplex-strict"))
        kinds = [type(m).__name__ for m in compile_monitors(sys)]
        assert kinds == ["LocalAsserts", "RecipientTag", "SentReceivedOrder",
                         "LostUnread"]


class TestAssertLocalIntegration:
    def test_failed_assert_becomes_a_violation_class(self):
        sc = s.Scenario.from_parts(
            "bad-assert", 1, [s.status_channel("ch")],
            [s.process(0, s.write("ch", [1])),
             s.process(1, s.read("ch", "v"), s.assert_local("v", [2]))])
        report = explore(sc)
        assert report.violation_classes == {"monitor_assert:assert_local"}
        v = report.violations[0]
        assert v.detail == "p1.v"

    def test_passing_assert_is_silent(self):
        sc = s.Scenario.from_parts(
            "good-assert", 1, [s.status_channel("ch")],
            [s.process(0, s.write("ch", [1])),
             s.process(1, s.read("ch", "v"), s.assert_local("v", [1]))])
        assert explore(sc).violation_classes == frozenset()


def unguarded_sections():
    """Three processes enter a critical section with no guard, and each fails
    an assert_local inside it: states where several processes have failed and
    several are inside together."""
    steps = [s.local("cs", [1]), s.assert_local("cs", [0]), s.local("cs", [0])]
    return s.Scenario.from_parts(
        "unguarded-sections", 1, [], [s.process(p, *steps) for p in range(3)],
        [s.mutual_exclusion([[0, "cs"], [1, "cs"], [2, "cs"]])])


def _watched_scenarios():
    families, rng = bench_families(), random.Random(0)
    return ([catalog.get(n) for n in catalog.names()] + _op_scenarios()
            + [unguarded_sections(), families.lost_update((2, 2), rng),
               families.torn_read(2, 2, 2, rng), families.relay_chain(2, 2, rng)])


class TestWatches:
    @pytest.mark.parametrize("scenario", _watched_scenarios(), ids=lambda sc: sc.name)
    def test_cached_verdicts_are_the_hits_on_views(self, scenario):
        """A System keeps each verdict per parts it reads; on every
        reachable state it gives the hits, in order, that every monitor's
        on_state gives on the state's view."""
        sys = System(scenario)
        monitors = compile_monitors(sys)
        for state in reachable(sys):
            view = sys.view(state)
            assert sys.hits(state) == [h for m in monitors for h in m.on_state(sys, view)]

    def test_the_differential_sees_hits_of_every_state_monitor(self):
        seen = set()
        for scenario in _watched_scenarios():
            sys = System(scenario)
            seen.update((kind, name) for state in reachable(sys)
                        for kind, name, _ in sys.hits(state))
        assert seen == {("monitor_assert", "assert_local"), ("torn_read", None),
                        ("monitor_assert", "mutual_exclusion"),
                        ("monitor_assert", "sent_received_order")}

    def test_hits_keep_pid_order_then_monitor_order(self):
        sys = System(unguarded_sections())
        everyone = [("monitor_assert", "assert_local", f"p{p}.cs") for p in range(3)] + [
            ("monitor_assert", "mutual_exclusion", "p0, p1, p2 inside together")]
        assert everyone in [sys.hits(st) for st in reachable(sys)]
