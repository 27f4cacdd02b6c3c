"""Stepping-engine tests: enabledness, application, replay, serialization."""

import os
import pathlib
import random
import subprocess
import sys as _sys
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lockstep.scenarios as s
from lockstep import catalog, cli, kernel, machines
from lockstep.explorer import (_interchangeable, explore, replay_with_checks,
                               terminal_values)
from lockstep.monitors import compile_monitors
from lockstep.kernel import (ChoiceNotEnabled, GlobalState, KernelError, NotEnabledAtStep,
                             ProcState, System, Trace, _action_sort_key, event_from_doc,
                             event_to_doc, label_from_doc, label_to_doc,
                             store_get, store_set)

from helpers import (CountingSystem, bench_families, fold, head_for, offered_sends,
                     offers_by_process, reachable, reachable_edges, reference_offer,
                     reference_sort_key, schedules_to)
from test_golden import _op_scenarios


def make(name, width, mechs, procs, monitors=()):
    return System(s.Scenario.from_parts(name, width, mechs, procs, monitors))


def _merge_scenarios():
    """A choose listed against sort order, and a send from a lower pid than a
    process with offers of its own: both need more than concatenating the
    processes' offers in pid order."""
    return [
        s.Scenario.from_parts(
            "choose-against-sort-order", 2, [s.raw_cell("c", [0, 0])],
            [s.process(0, s.choose([s.write_word("c", 1, 3)], [s.write_word("c", 0, 2)]))]),
        s.Scenario.from_parts(
            "send-below-other-offers", 1, [s.direct_channel("dc")],
            [s.process(0, s.send("dc", [1])), s.process(1, s.receive("dc", "x")),
             s.process(2, s.local("y", [0]))]),
    ]


def _rendezvous_scenarios():
    """Sends that meet more than one receiver, a receiver with a lower pid
    than its senders, and sends that share a ``choose`` with other offers."""
    return [
        s.Scenario.from_parts(
            "fan-in-to-a-lower-pid", 1, [s.direct_channel("dc")],
            [s.process(0, s.receive("dc", "x"), s.receive("dc", "y")),
             s.process(1, s.send("dc", [1])),
             s.process(2, s.local("m", None), s.send("dc", s.var("m")))]),
        s.Scenario.from_parts(
            "choose-send-or-receive", 1, [s.direct_channel("dc")],
            [s.process(0, s.choose([s.send("dc", [1])], [s.receive("dc", "x")])),
             s.process(1, s.receive("dc", "y")),
             s.process(2, s.send("dc", [2]))]),
        s.Scenario.from_parts(
            "choose-two-sends-or-a-write", 1,
            [s.direct_channel("a"), s.direct_channel("b"), s.raw_cell("c", [0])],
            [s.process(0, s.receive("b", "y"), s.receive("a", "z")),
             s.process(1, s.loop(2, [s.choose([s.send("a", [1])], [s.send("b", [2])],
                                              [s.write_word("c", 0, 3)])])),
             s.process(2, s.receive("a", "x"))]),
        s.Scenario.from_parts(
            "choose-a-send-of-nothing-or-of-one", 1,
            [s.direct_channel("a"), s.direct_channel("b")],
            [s.process(0, s.local("m", None),
                       s.choose([s.send("a", [1])], [s.send("b", s.var("m"))])),
             s.process(1, s.choose([s.receive("a", "x")], [s.receive("b", "x")])),
             s.process(2, s.choose([s.receive("a", "y")], [s.receive("b", "y")]))]),
        bench_families().relay_chain(2, 2, random.Random(0)),
    ]


RENDEZVOUS = _rendezvous_scenarios()
SCENARIOS = ([catalog.get(name) for name in catalog.names()] + _op_scenarios()
             + _merge_scenarios() + RENDEZVOUS)


def _family_scenarios():
    """The bench's three families at small sizes."""
    families, rng = bench_families(), random.Random(0)
    return [families.lost_update((2, 2), rng), families.torn_read(2, 2, 2, rng),
            families.relay_chain(2, 2, rng)]


@pytest.fixture
def status_sys():
    return System(catalog.get("status-channel-exact"))


@pytest.fixture
def deadlock_sys():
    return System(catalog.get("deadlock-direct-duplex"))


class TestStore:
    def test_set_keeps_sorted_order(self):
        st_ = store_set(store_set((), "b", 1), "a", 2)
        assert st_ == (("a", 2), ("b", 1))

    def test_set_replaces(self):
        st_ = store_set((("a", 1),), "a", 9)
        assert st_ == (("a", 9),)

    def test_get_and_has(self):
        st_ = (("a", 1),)
        assert store_get(st_, "a") == 1
        assert store_get(st_, "a", None) == 1
        assert store_get(st_, "b", None) is None
        assert store_get((("a", None),), "a", 0) is None  # None is a value, not "unbound"
        with pytest.raises(KeyError):
            store_get(st_, "b")


class TestEnabledness:
    def test_empty_status_channel_offers_only_the_write(self, status_sys):
        acts = status_sys.enabled_actions(status_sys.initial_state())
        assert acts == [(0, ("write", (1,)), "ch")]

    def test_full_status_channel_offers_only_the_read(self, status_sys):
        st0 = status_sys.initial_state()
        st1 = status_sys.apply(st0, (0, ("write", (1,)), "ch"))
        assert status_sys.enabled_actions(st1) == [(1, ("read",), "ch")]

    def test_deadlock_state_offers_nothing(self, deadlock_sys):
        st0 = deadlock_sys.initial_state()
        for ev in [(0, ("local",), None), (1, ("local",), None)]:
            st0 = deadlock_sys.apply(st0, ev)
        assert deadlock_sys.enabled_actions(st0) == []
        assert not deadlock_sys.all_terminated(st0)
        assert deadlock_sys.live_processes(st0) == [0, 1]

    def test_lock_excludes_other_lockers(self):
        sys = make("locks", 1, [s.locked_cell("c", [0])],
                   [s.process(0, s.lock("c"), s.write_word("c", 0, 1), s.unlock("c")),
                    s.process(1, s.lock("c"), s.write_word("c", 0, 2), s.unlock("c"))])
        st0 = sys.initial_state()
        st1 = sys.apply(st0, (0, ("lock",), "c"))
        acts = sys.enabled_actions(st1)
        assert acts == [(0, ("write_word", 0, 1), "c")]  # p1's lock is gone

    def test_wait_word_blocks_until_match(self):
        sys = make("wait", 1, [s.raw_cell("f", [0])],
                   [s.process(0, s.wait_word("f", 0, 1)),
                    s.process(1, s.write_word("f", 0, 1))])
        st0 = sys.initial_state()
        assert (0, ("read_word", 0), "f") not in sys.enabled_actions(st0)
        st1 = sys.apply(st0, (1, ("write_word", 0, 1), "f"))
        assert sys.enabled_actions(st1) == [(0, ("read_word", 0), "f")]

    def test_actions_come_out_in_sort_order(self, deadlock_sys):
        for state in reachable(deadlock_sys):
            acts = deadlock_sys.enabled_actions(state)
            assert acts == sorted(acts, key=_action_sort_key)

    def test_write_of_an_empty_variable_fails_fast(self):
        sys = make("oops", 1, [s.message_cell("mc")],
                   [s.process(0, s.read("mc", "v"), s.write("mc", s.var("v")))])
        st0 = sys.initial_state()
        st1 = sys.apply(st0, (0, ("read",), "mc"))  # reads None: never written
        with pytest.raises(KernelError, match="empty indicator"):
            sys.enabled_actions(st1)

    def test_a_fault_is_not_cached(self):
        sys = make("oops", 1, [s.message_cell("mc")],
                   [s.process(0, s.read("mc", "v"), s.write("mc", s.var("v")))])
        st1 = sys.apply(sys.initial_state(), (0, ("read",), "mc"))
        for _ in range(2):
            with pytest.raises(KernelError, match="empty indicator"):
                sys.enabled_actions(st1)

    def test_a_fault_inside_apply_is_not_cached(self):
        """A local whose value faults raises where it is the next step, in
        ``enabled_actions`` as in ``apply``, every time."""
        sys = make("oops", 1, [s.message_cell("mc")],
                   [s.process(0, s.read("mc", "t"), s.local("g", s.applied("inc", "t")))])
        st1 = sys.apply(sys.initial_state(), (0, ("read",), "mc"))  # t is None
        for _ in range(2):
            with pytest.raises(KernelError, match="cannot apply inc"):
                sys.enabled_actions(st1)
            with pytest.raises(KernelError, match="cannot apply inc"):
                sys.apply(st1, (0, ("local",), None))

    def test_a_faulting_step_stores_no_move(self):
        """p0's step faults and p1's offer faults. Each raises in ``edges``,
        which stores no offer for it and so no move, so it raises again; and
        ``apply`` computes only the acting process's offers, so neither fault
        reaches p2's step."""
        sys = make("oops", 1, [s.message_cell("mc")],
                   [s.process(0, s.read("mc", "t"), s.local("g", s.applied("inc", "t"))),
                    s.process(1, s.read("mc", "v"), s.write("mc", s.var("v"))),
                    s.process(2, s.local("x", [1]))])
        n = sys.n_mechs
        st1 = sys.apply(sys.initial_state(), (0, ("read",), "mc"))  # t is None
        for _ in range(2):
            with pytest.raises(KernelError, match="cannot apply inc"):
                sys.edges(st1)
            assert sys._views[0][st1[n]][1] == {}
        st2 = sys.apply(st1, (1, ("read",), "mc"))  # v is None
        with pytest.raises(KernelError, match="empty indicator"):
            sys.apply(st2, (1, ("write", (0,)), "mc"))
        assert sys._views[1][st2[n + 1]][1] == {}
        assert sys.view(sys.apply(st2, (2, ("local",), None))).procs[2].pc == 1
        with pytest.raises(KernelError, match="cannot apply inc"):
            sys.apply(st2, (0, ("local",), None))

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
    def test_actions_come_out_in_sort_order_everywhere(self, scenario):
        sys = System(scenario)
        for state in reachable(sys):
            acts = sys.enabled_actions(state)
            assert acts == sorted(acts, key=_action_sort_key)

    @pytest.mark.parametrize("scenario", SCENARIOS + _family_scenarios(),
                             ids=lambda sc: sc.name)
    def test_each_edge_keeps_the_head_its_label_names(self, scenario):
        """Differential against the lookup from action label back to head
        instruction that edges replaced: at every reachable state, each edge's
        instruction is the one head its action names, and a send's receiver
        has the one receive head on that channel that ``_receiver`` finds."""
        sys = System(scenario)
        for state in reachable(sys):
            procs = sys.view(state).procs
            for (p, label, mech_id), _, ins, _ in sys.edges(state):
                assert ins is head_for(sys, p, procs[p].pc, label, mech_id)
                if label[0] == "send":
                    q = label[2]
                    recv = head_for(sys, q, procs[q].pc, ("receive",), mech_id)
                    assert recv is not None and sys._receiver(q, procs[q].pc, mech_id) is recv


class TestFastPaths:
    """``edges`` and ``all_terminated`` against the per-process paths they inline."""

    @pytest.mark.parametrize("scenario", SCENARIOS + _family_scenarios(),
                             ids=lambda sc: sc.name)
    def test_edges_are_every_process_s_local_offers(self, scenario):
        """At every reachable state, the warm tables give each process's
        offers as computed afresh, in pid order, through ``edges`` and
        through ``_edges_of`` (``apply``'s path), which gives () for a
        process that ``edges`` skips as idle."""
        sys = System(scenario)
        for state in reachable(sys):
            by_process = offers_by_process(sys, state)
            assert [(e[0], e[2]) for e in sys.edges(state)] == \
                [offer for offers in by_process for offer in offers]
            for p, ps in enumerate(state[sys.n_mechs:]):
                assert [(e[0], e[2]) for e in sys._edges_of(p, ps, state)] == by_process[p]

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
    def test_all_terminated_is_every_process_terminated(self, scenario):
        sys = System(scenario)
        for state in reachable(sys):
            assert sys.all_terminated(state) == \
                all(sys.terminated(state, p) for p in range(sys.n_procs))

    def test_an_idle_process_has_no_view(self):
        """A terminated or receive-only ProcState's entry is None; a process
        whose heads include any other op has a view."""
        sys = make("idle", 1, [s.direct_channel("dc")],
                   [s.process(0, s.send("dc", [5])), s.process(1, s.receive("dc", "x"))])
        init = sys.initial_state()
        post = sys.apply(init, (0, ("send", (5,), 1), "dc"))
        sys.edges(init)
        sys.edges(post)
        n = sys.n_mechs
        assert sys._views[0][init[n]] is not None                           # a send
        assert sys._views[1][init[n + 1]] is None                           # a receive
        assert sys._views[0][post[n]] is sys._views[1][post[n + 1]] is None  # terminated
        assert sys.edges(post) == [] and sys._edges_of(1, init[n + 1], init) == ()
        with pytest.raises(ChoiceNotEnabled):
            sys.apply(init, (1, ("local",), None))


class TestLabelRules:
    """Offers and their order against the per-op switch and the type-ranked
    sort key that ``kernel.LABELS`` and ``_action_sort_key`` replaced."""

    @pytest.mark.parametrize("scenario", SCENARIOS + _family_scenarios(),
                             ids=lambda sc: sc.name)
    def test_offers_and_their_order_match_the_per_op_switch(self, scenario):
        """At every reachable state, every head but a send or receive offers
        what the switch gives, and each process's offers, computed afresh,
        come out in the reference order."""
        sys = System(scenario)
        for state in reachable(sys):
            view = sys.view(state)
            for p, ps in enumerate(view.procs):
                program = sys.programs[p]
                for ins in map(program.instrs.__getitem__, program.heads[ps.pc]):
                    if ins.op not in ("send", "receive"):
                        m = None if ins.mech is None else view.mechs[ins.mech]
                        assert sys._offer(p, ps, m, ins) == reference_offer(sys, p, ps, m, ins)
            for offers in offers_by_process(sys, state):
                actions = [a for a, _ in offers]
                assert actions == sorted(actions, key=reference_sort_key)

    def test_a_send_of_nothing_comes_before_a_send_of_a_value(self):
        sys = System(next(sc for sc in RENDEZVOUS
                          if sc.name == "choose-a-send-of-nothing-or-of-one"))
        state = sys.apply(sys.initial_state(), (0, ("local",), None))
        assert sys.enabled_actions(state) == [
            (0, ("send", None, 1), "b"), (0, ("send", None, 2), "b"),
            (0, ("send", (1,), 1), "a"), (0, ("send", (1,), 2), "a")]

    def test_a_faulting_write_raises_only_when_its_guard_holds(self):
        """The guard is checked before the value is evaluated: p1's write of
        the empty indicator is not offered on a full channel, and faults on an
        empty one."""
        sys = make("guarded", 1, [s.status_channel("ch")],
                   [s.process(0, s.write("ch", [1])),
                    s.process(1, s.local("v", None), s.write("ch", s.var("v")))])
        full = sys.apply(sys.initial_state(), (0, ("write", (1,)), "ch"))
        assert sys.enabled_actions(sys.apply(full, (1, ("local",), None))) == []
        empty = sys.apply(sys.initial_state(), (1, ("local",), None))
        with pytest.raises(KernelError, match="empty indicator"):
            sys.enabled_actions(empty)


class TestSends:
    def test_rendezvous_advances_both_parties(self):
        sys = make("rdv", 1, [s.direct_channel("dc")],
                   [s.process(0, s.send("dc", [5])),
                    s.process(1, s.receive("dc", "x"))])
        st0 = sys.initial_state()
        assert sys.enabled_actions(st0) == [(0, ("send", (5,), 1), "dc")]
        st1 = sys.apply(st0, (0, ("send", (5,), 1), "dc"))
        assert sys.all_terminated(st1)
        assert store_get(sys.view(st1).procs[1].store, "x") == (5,)

    def test_send_without_receiver_is_not_offered(self):
        sys = make("norecv", 1, [s.direct_channel("dc"), s.status_channel("sc")],
                   [s.process(0, s.send("dc", [5])),
                    s.process(1, s.read("sc", "x"), s.receive("dc", "x"))])
        assert sys.enabled_actions(sys.initial_state()) == []

    def test_send_may_carry_the_empty_indicator(self):
        sys = make("nil", 1, [s.direct_channel("dc")],
                   [s.process(0, s.local("m", None), s.send("dc", s.var("m"))),
                    s.process(1, s.receive("dc", "x"))])
        st0 = sys.apply(sys.initial_state(), (0, ("local",), None))
        st1 = sys.apply(st0, (0, ("send", None, 1), "dc"))
        assert store_get(sys.view(st1).procs[1].store, "x") is None

    def test_one_sender_two_receivers_yields_two_actions(self):
        sys = make("fan", 1, [s.direct_channel("dc")],
                   [s.process(0, s.send("dc", [1])),
                    s.process(1, s.receive("dc", "x")),
                    s.process(2, s.receive("dc", "x"))])
        acts = sys.enabled_actions(sys.initial_state())
        assert acts == [(0, ("send", (1,), 1), "dc"), (0, ("send", (1,), 2), "dc")]

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
    def test_sends_match_the_heads_of_senders_and_receivers(self, scenario):
        sys = System(scenario)
        for state in reachable(sys):
            acts = sys.enabled_actions(state)
            assert {a for a in acts if a[1][0] == "send"} == offered_sends(sys, state)

    @pytest.mark.parametrize("scenario", RENDEZVOUS, ids=lambda sc: sc.name)
    def test_a_warm_system_offers_sends_from_its_cache(self, scenario, monkeypatch):
        """Once every state's offers are cached, no receiver is looked up and
        no action list is sorted again."""
        sys = System(scenario)
        explore(sys)
        states = reachable(sys)
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(System, "_receiver", counting("_receiver", System._receiver))
        monkeypatch.setattr(kernel, "_action_sort_key",
                            counting("_action_sort_key", kernel._action_sort_key))
        assert any(a[1][0] == "send" for state in states for a in sys.enabled_actions(state))
        assert calls == Counter()


class TestStepping:
    def test_step_checks_enabledness(self, status_sys):
        with pytest.raises(NotEnabledAtStep):
            replay_with_checks(status_sys, [(1, ("read",), "ch")])

    @pytest.mark.parametrize("action", [(0, ("read",), "ch"), (1, ("read",), "ch"),
                                        (0, ("write", (2,)), "ch"), (0, ("local",), None),
                                        (2, ("write", (1,)), "ch"), (-1, ("write", (1,)), "ch"),
                                        (0, ("send",), "ch"), (0, (), "ch")])
    def test_apply_refuses_an_action_the_state_does_not_offer(self, status_sys, action):
        with pytest.raises(ChoiceNotEnabled):
            status_sys.apply(status_sys.initial_state(), action)

    def test_apply_refuses_a_send_it_does_not_offer(self):
        sys = make("one-send", 1, [s.direct_channel("dc")],
                   [s.process(0, s.send("dc", [5])), s.process(1, s.receive("dc", "x"))])
        init = sys.initial_state()
        for label in (("send", (4,), 1), ("send", None, 1), ("send", (5,), 0),
                      ("send", (5,), 5), ("send", (5,), -1)):
            with pytest.raises(ChoiceNotEnabled):
                sys.apply(init, (0, label, "dc"))
        assert sys.all_terminated(sys.apply(init, (0, ("send", (5,), 1), "dc")))

    @pytest.mark.parametrize("scenario", [catalog.get(name) for name in catalog.names()]
                             + _op_scenarios(), ids=lambda sc: sc.name)
    def test_apply_refuses_each_action_at_the_states_that_do_not_offer_it(self, scenario):
        """Every step the states offer is cached first, so a cache hit cannot
        let an action through at a state that does not offer it."""
        sys = System(scenario)
        states = reachable(sys)
        offered = {state: set(sys.enabled_actions(state)) for state in states}
        anywhere = set().union(*offered.values())
        for state in states:
            for action in anywhere - offered[state]:
                with pytest.raises(ChoiceNotEnabled):
                    sys.apply(state, action)

    def test_step_equals_apply_on_every_reachable_edge(self):
        for name in ("status-channel-exact", "duplex-last-message",
                     "deadlock-fixed-indirect"):
            sys = System(catalog.get(name))
            for state in reachable(sys):
                for edge in sys.edges(state):
                    assert sys.take(state, edge) == sys.apply(state, edge[0])

    def test_assert_local_failure_is_sticky(self):
        sys = make("af", 1, [s.message_cell("mc")],
                   [s.process(0, s.local("x", [1]), s.assert_local("x", [2]),
                              s.write("mc", s.var("x")))])
        st0 = sys.initial_state()
        st1 = sys.apply(st0, (0, ("local",), None))
        st2 = sys.apply(st1, (0, ("local",), None))
        assert sys.view(st2).procs[0].failed == "p0.x"
        st3 = sys.apply(st2, (0, ("write", (1,)), "mc"))
        assert sys.view(st3).procs[0].failed == "p0.x"  # still set after later steps

    def test_terminated_predicates(self, status_sys):
        st = status_sys.initial_state()
        assert not status_sys.terminated(st, 0)
        for ev in [(0, ("write", (1,)), "ch"), (1, ("read",), "ch"),
                   (0, ("write", (2,)), "ch"), (1, ("read",), "ch"),
                   (0, ("write", (3,)), "ch")]:
            st = status_sys.apply(st, ev)
        assert status_sys.terminated(st, 0)
        assert not status_sys.all_terminated(st)
        st = status_sys.apply(st, (1, ("read",), "ch"))
        assert status_sys.all_terminated(st)


class TestLocksAndOperands:
    def test_shared_register_locked_in_turn_by_two_processes(self):
        sys = make("register-locks", 1, [s.shared_register("r", [0])],
                   [s.process(p, s.lock("r"), s.read("r", "v"),
                              s.write("r", s.applied("inc", "v")), s.unlock("r"))
                    for p in (0, 1)])
        st0 = sys.initial_state()
        assert sys.enabled_actions(st0) == [(0, ("lock",), "r"), (1, ("lock",), "r")]
        st1 = sys.apply(st0, (0, ("lock",), "r"))
        assert sys.view(st1).mechs == (machines.SharedRegister((0,), owner=0),)
        assert sys.enabled_actions(st1) == [(0, ("read",), "r")]  # p1 may not even lock
        st2 = fold(sys, [(0, ("lock",), "r"), (0, ("read",), "r"),
                         (0, ("write", (1,)), "r")])
        assert sys.enabled_actions(st2) == [(0, ("unlock",), "r")]
        st3 = sys.apply(st2, (0, ("unlock",), "r"))
        assert sys.view(st3).mechs == (machines.SharedRegister((1,)),)
        assert sys.enabled_actions(st3) == [(1, ("lock",), "r")]
        report = explore(sys)
        assert report.schedules_complete == 2 and not report.violations
        assert terminal_values(sys, "r", ("content", "owner")) == {((2,), None)}
        # an owner is a pid, so processes that lock are never interchangeable
        assert _interchangeable(sys, compile_monitors(sys)) == ()

    def test_update_doubles_in_one_step(self):
        sys = make("double", 2, [s.shared_register("r", [3, 5])],
                   [s.process(0, s.update("r", "double"))])
        st0 = sys.initial_state()
        assert sys.enabled_actions(st0) == [(0, ("update", ("double",)), "r")]
        st1 = sys.apply(st0, (0, ("update", ("double",)), "r"))
        assert sys.view(st1).mechs == (machines.SharedRegister((6, 2)),)

    def test_encapsulated_cell_offers_words_only_to_the_holder(self):
        sys = make("encapsulated", 1, [s.locked_cell("c", [0])],
                   [s.process(0, s.lock("c"), s.write_word("c", 0, 1), s.unlock("c")),
                    s.process(1, s.write_word("c", 0, 2))])
        st0 = sys.initial_state()
        assert sys.enabled_actions(st0) == [(0, ("lock",), "c")]
        st1 = sys.apply(st0, (0, ("lock",), "c"))
        assert sys.enabled_actions(st1) == [(0, ("write_word", 0, 1), "c")]
        with pytest.raises(ChoiceNotEnabled):
            sys.apply(st1, (1, ("write_word", 0, 2), "c"))

    def test_write_word_from_a_variable(self):
        sys = make("word-var", 1, [s.raw_cell("a", [6]), s.raw_cell("b", [0])],
                   [s.process(0, s.read_word("a", 0, "w"), s.write_word("b", 0, s.var("w")))])
        st1 = sys.apply(sys.initial_state(), (0, ("read_word", 0), "a"))
        assert sys.enabled_actions(st1) == [(0, ("write_word", 0, 6), "b")]
        st2 = sys.apply(st1, (0, ("write_word", 0, 6), "b"))
        assert sys.view(st2).mechs[1] == machines.RawCell((6,))

    def test_write_word_of_a_variable_holding_a_value_faults(self):
        sys = make("word-var", 1, [s.raw_cell("b", [0])],
                   [s.process(0, s.local("w", [6]), s.write_word("b", 0, s.var("w")))])
        st1 = sys.apply(sys.initial_state(), (0, ("local",), None))
        with pytest.raises(KernelError, match=r"variable 'w' holds \(6,\), not a word"):
            sys.enabled_actions(st1)

    def test_write_of_a_variable_holding_a_word_faults(self):
        sys = make("value-var", 1, [s.raw_cell("a", [6]), s.message_cell("mc")],
                   [s.process(0, s.read_word("a", 0, "w"), s.write("mc", s.var("w")))])
        st1 = sys.apply(sys.initial_state(), (0, ("read_word", 0), "a"))
        with pytest.raises(KernelError, match="expected a 1-word value, got 6"):
            sys.enabled_actions(st1)

    @pytest.mark.parametrize("mech, first, holds, other", [
        (s.raw_cell("m", [3]), s.read_word("m", 0, "x"), 3, 4),
        (s.status_channel("m"), s.check("m", "x"), "empty", "full")])
    def test_assert_local_compares_a_word_or_a_status_token(self, mech, first, holds, other):
        sys = make("asserts", 1, [mech],
                   [s.process(0, first, s.assert_local("x", holds), s.assert_local("x", other))])
        st = sys.initial_state()
        failed = []
        while sys.enabled_actions(st):
            st = sys.apply(st, sys.enabled_actions(st)[0])
            failed.append(sys.view(st).procs[0].failed)
        assert failed == [None, None, "p0.x"]


class TestHashing:
    def test_hash_shape(self, status_sys):
        h = status_sys.state_hash(status_sys.initial_state())
        assert len(h) == 16 and int(h, 16) >= 0

    def test_no_collisions_across_small_scenarios(self):
        # structural equality and hash equality must coincide
        for name in ("torn-read-raw", "register-atomic-update",
                     "decomposition-equivalence"):
            sys = System(catalog.get(name))
            states = reachable(sys)
            hashes = {sys.state_hash(st) for st in states}
            assert len(hashes) == len(states)

    def test_hashlib_is_loaded_only_when_a_state_is_hashed(self):
        """A run that records no violation hashes no state, so it does not
        load ``hashlib`` and OpenSSL with it. Checked in a fresh interpreter,
        since pytest may have imported ``hashlib`` in this one."""
        code = textwrap.dedent("""
            import sys
            import lockstep
            from lockstep import catalog, explore, random_walks
            assert not explore(catalog.get("torn-read-locked")).violations
            assert random_walks(catalog.get("torn-read-raw"), walks=50, seed=1).classes
            assert "hashlib" not in sys.modules
            assert explore(catalog.get("torn-read-raw")).violations
            assert "hashlib" in sys.modules
        """)
        src = str(pathlib.Path(kernel.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([_sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestCaches:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
    def test_warm_caches_answer_as_cold_ones(self, scenario):
        warm = System(scenario)
        states = reachable(warm)  # steps from and offers at every state, cached
        paths = schedules_to(warm)
        assert paths.keys() == states
        for state, events in paths.items():
            cold = System(scenario)
            cold_state = fold(cold, events)  # the same state, packed by another System
            acts = warm.enabled_actions(state)
            assert acts == cold.enabled_actions(cold_state)
            for a in acts:
                got, want = warm.apply(state, a), cold.apply(cold_state, a)
                assert warm.view(got) == cold.view(want)
                assert warm.state_hash(got) == cold.state_hash(want)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
    def test_equal_parts_are_one_object(self, scenario):
        sys = System(scenario)
        first = {}
        for state in reachable(sys):
            view = sys.view(state)
            for part in view.procs + view.mechs:
                assert first.setdefault(part, part) is part

    def test_each_local_step_and_offer_is_computed_once(self):
        step = [s.read("reg", "t"), s.local("g", s.applied("inc", "t")),
                s.write("reg", s.var("g"))]
        sys = CountingSystem(s.Scenario.from_parts(
            "lost-update-2-2", 1, [s.shared_register("reg", [0])],
            [s.process(0, s.loop(2, step)), s.process(1, s.loop(2, step))]))
        report = explore(sys)
        assert report.schedules_complete == 924  # C(12, 6)
        reg, n = sys.mech_index["reg"], sys.n_mechs
        edges = reachable_edges(sys)
        # the caches key on intern indices: a packed state is the mechanisms', then the
        # processes'; a step reads the register's slot if it names a mechanism, else none
        steps = {((a[0], pre[n + a[0]], pre[reg]) if a[2] else (a[0], pre[n + a[0]]), a)
                 for pre, a, _ in edges}
        offers = set()  # a process at a terminated head is idle and computes no offers
        for state in reachable(sys):
            for p, ps in enumerate(sys.view(state).procs):
                instrs = sys.programs[p].instrs
                if ps.pc < len(instrs):
                    touches = instrs[ps.pc].op != "local"
                    offers.add((p, state[n + p], state[reg]) if touches else (p, state[n + p]))
        assert sys.moves.keys() == steps and set(sys.moves.values()) == {1}
        assert sys.local_offers.keys() == offers and set(sys.local_offers.values()) == {1}
        assert len(steps) < len(edges) / 3 and len(offers) < report.states_visited


class TestReplay:
    def test_empty_schedule_is_the_initial_state(self, status_sys):
        assert replay_with_checks(status_sys, ())[0] == \
            status_sys.view(status_sys.initial_state())

    def test_replay_reaches_the_folded_state(self, status_sys):
        events = [(0, ("write", (1,)), "ch"), (1, ("read",), "ch")]
        assert replay_with_checks(status_sys, events)[0] == \
            status_sys.view(fold(status_sys, events))

    def test_stale_step_reports_index_and_alternatives(self, status_sys):
        with pytest.raises(NotEnabledAtStep) as ei:
            replay_with_checks(status_sys, [(1, ("read",), "ch")])
        assert ei.value.index == 0
        assert ei.value.enabled == ((0, ("write", (1,)), "ch"),)

    def test_a_scenario_is_accepted_in_place_of_a_system(self):
        final = replay_with_checks(catalog.get("status-channel-exact"),
                                   [(0, ("write", (1,)), "ch")])[0]
        assert final.mechs[0].content == (1,)

    def test_trace_accepted_in_place_of_events(self, status_sys):
        t = Trace(((0, ("write", (1,)), "ch"),))
        assert replay_with_checks(status_sys, t) == replay_with_checks(status_sys, t.events)


def random_schedule(sys, seed):
    """A maximal schedule of random enabled actions."""
    import random
    rng = random.Random(seed)
    state, events = sys.initial_state(), []
    while acts := sys.enabled_actions(state):
        events.append(acts[rng.randrange(len(acts))])
        state = sys.apply(state, events[-1])
    return events


class TestViews:
    """A packed state means something only to its System; what leaves a call is a view."""

    def test_a_view_holds_the_parts_in_scenario_order(self, status_sys):
        view = status_sys.view(status_sys.initial_state())
        assert type(view) is GlobalState
        assert [type(m).__name__ for m in view.mechs] == ["StatusChannel"]
        assert view.procs == (ProcState(pc=0),) * status_sys.n_procs

    def test_states_that_leave_a_call_are_views(self):
        sc = catalog.get("torn-read-raw")
        final, _ = replay_with_checks(sc, explore(sc).violations[0].trace)
        assert type(final) is GlobalState

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
    def test_two_systems_agree_on_views_and_hashes(self, scenario):
        """A System that interned its parts in another order packs the same
        state differently, but its view and its hash are the same."""
        fresh, explored = System(scenario), System(scenario)
        explore(explored)
        packed_differ = False
        for seed in range(5):
            events = random_schedule(fresh, seed)
            for k in range(len(events) + 1):
                a, b = fold(fresh, events[:k]), fold(explored, events[:k])
                packed_differ |= a != b
                assert fresh.view(a) == explored.view(b)
                assert fresh.state_hash(a) == explored.state_hash(b) == \
                    fresh.state_hash(fresh.view(a))
        if scenario.name == "torn-read-raw":
            assert packed_differ


class TestDocRoundTrip:
    LABELS = [
        ("lock",), ("unlock",), ("read",), ("check",), ("local",),
        ("write", (1, 2)),
        ("send", (3,), 1), ("send", None, 2),
        ("read_word", 0), ("write_word", 1, 7),
        ("update", ("inc",)), ("update", ("add", 3)), ("update", ("double",)),
    ]

    def test_label_round_trip(self):
        for label in self.LABELS:
            assert label_from_doc(label_to_doc(label)) == label

    def test_event_round_trip(self):
        for label in self.LABELS:
            ev = (1, label, "m" if label[0] != "local" else None)
            assert event_from_doc(event_to_doc(ev)) == ev

    def test_trace_round_trip(self):
        t = Trace(((0, ("write", (1,)), "ch"), (1, ("read",), "ch")))
        assert Trace.from_doc(t.to_doc()) == t

    def test_unknown_label_rejected_both_ways(self):
        with pytest.raises(ValueError):
            label_to_doc(("fork",))
        with pytest.raises(ValueError):
            label_from_doc({"kind": "fork"})

    EVENT_TEXT = {
        ("lock",): "p1 lock m", ("unlock",): "p1 unlock m", ("read",): "p1 read m",
        ("check",): "p1 check m", ("local",): "p1 local",
        ("write", (1, 2)): "p1 write [1, 2] -> m",
        ("send", (3,), 1): "p1 send [3] -> p1 via m",
        ("send", None, 2): "p1 send (nothing) -> p2 via m",
        ("read_word", 0): "p1 read m[0]", ("write_word", 1, 7): "p1 write m[1] = 7",
        ("update", ("inc",)): "p1 update m (inc)",
        ("update", ("add", 3)): "p1 update m (add 3)",
        ("update", ("double",)): "p1 update m (double)",
    }

    def test_event_text(self):
        """The exact text run and replay print for each label; the demos import
        format_event from cli, which must be the kernel's."""
        assert set(self.EVENT_TEXT) == set(self.LABELS)
        for label in self.LABELS:
            ev = (1, label, "m" if label[0] != "local" else None)
            assert kernel.format_event(ev) == self.EVENT_TEXT[label]
        assert cli.format_event is kernel.format_event


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_schedules_replay_deterministically(seed):
    import random
    sys = System(catalog.get("torn-read-raw"))
    rng = random.Random(seed)
    state = sys.initial_state()
    events = []
    while True:
        acts = sys.enabled_actions(state)
        if not acts:
            break
        ev = acts[rng.randrange(len(acts))]
        events.append(ev)
        state = sys.apply(state, ev)
    again, _ = replay_with_checks(sys, events)
    assert again == sys.view(state)
    assert sys.state_hash(again) == sys.state_hash(state)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cut=st.integers(0, 30))
def test_replay_of_any_prefix_is_legal(seed, cut):
    import random
    sys = System(catalog.get("register-atomic-update"))
    rng = random.Random(seed)
    state = sys.initial_state()
    events = []
    while True:
        acts = sys.enabled_actions(state)
        if not acts:
            break
        ev = acts[rng.randrange(len(acts))]
        events.append(ev)
        state = sys.apply(state, ev)
    prefix = events[:cut]
    replay_with_checks(sys, prefix)  # must not raise
