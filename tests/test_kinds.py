"""Mechanism kinds and monitor kinds: which ops and monitors each kind
accepts, with the validator's messages, and each kind's initial snapshot.

The expected values are literals, so a change to ``machines.KINDS`` or
``monitors.KINDS`` that moves any of them fails here.
"""

import copy

import pytest

from lockstep import machines, monitors
from lockstep.explorer import explore, find_shortest, random_walks, replay_with_checks
from lockstep.kernel import System
from lockstep.scenarios import Scenario, ValidationError, validate

MECHANISM_KINDS = ("raw_cell", "locked_cell", "message_cell", "status_channel",
                   "last_message_channel", "duplex_channel", "shared_register",
                   "direct_channel")

# op or monitor -> the kinds it accepts, one column per MECHANISM_KINDS entry:
# x accepts, . rejects
OP_ACCEPTS = {
    "lock":       ".x....x.",
    "unlock":     ".x....x.",
    "read":       "..xxxxx.",
    "write":      "..xxxxx.",
    "send":       ".......x",
    "receive":    ".......x",
    "read_word":  "xx......",
    "wait_word":  "xx......",
    "if_word":    "xx......",
    "write_word": "xx......",
    "check":      "...xxx..",
    "if_status":  "...xxx..",
    "update":     "......x.",
}
MONITOR_ACCEPTS = {
    "mutual_exclusion":    "xxxxxxxx",
    "sent_received_order": "..xxxx..",
    "torn_value":          "xx......",
    "recipient_tag":       ".....x..",
    "lost_unread":         "..xxxx..",
}

# the step each op case runs, word width 1
OP_STEPS = {
    "lock": {}, "unlock": {}, "read": {"var": "v"}, "write": {"value": [1]},
    "send": {"value": [1]}, "receive": {"var": "v"},
    "read_word": {"index": 0, "var": "v"}, "wait_word": {"index": 0, "word": 1},
    "if_word": {"index": 0, "word": 1, "then": [], "else": []},
    "write_word": {"index": 0, "word": 1}, "check": {"var": "v"},
    "if_status": {"full": [], "empty": []}, "update": {"fn": "inc"},
}
# the fields of each monitor case besides its kind
MONITOR_FIELDS = {
    "mutual_exclusion": {"mechanism": "m", "markers": [[0, "v"], [1, "v"]]},
    "sent_received_order": {"mechanism": "m"}, "recipient_tag": {"mechanism": "m"},
    "lost_unread": {"mechanism": "m"},
    "torn_value": {"mechanism": "m", "allowed": [[0]], "process": 0, "vars": ["v"]},
    "terminal_assert": {"process": 0, "var": "v", "expected": [0]},
}
# a step that every mechanism of the kind accepts, so a monitor case references it
REFERENCE_STEP = {"raw_cell": "read_word", "locked_cell": "read_word",
                  "direct_channel": "receive"}


def mechanism(kind):
    doc = {"id": "m", "kind": kind}
    if kind in ("raw_cell", "locked_cell", "shared_register"):
        doc["initial"] = [0]
    if kind == "locked_cell":
        doc["mode"] = "encapsulated"
    if kind == "duplex_channel":
        doc.update(side_a=0, side_b=1)
    return doc


def step(op):
    return {"op": op, "mechanism": "m", **OP_STEPS[op]}


def scenario(doc):
    return Scenario.from_doc({"name": "k", "word_width": 1, **doc})


def errors(doc):
    """The validator's messages for a document, () if it is valid."""
    try:
        validate(scenario(doc))
    except ValidationError as e:
        return e.errors
    return ()


def op_doc(op, kind):
    return {"mechanisms": [mechanism(kind)],
            "processes": [{"id": 0, "steps": [step(op)]}, {"id": 1, "steps": []}]}


def monitor_doc(monitor, kind):
    local = {"op": "local", "var": "v", "value": [0]}
    first = step(REFERENCE_STEP.get(kind, "read")) | {"var": "w"}
    return {"mechanisms": [mechanism(kind)],
            "processes": [{"id": 0, "steps": [first, local]}, {"id": 1, "steps": [local]}],
            "monitors": [{"kind": monitor, **MONITOR_FIELDS[monitor]}]}


def op_case(op, kind):
    return errors(op_doc(op, kind))


def monitor_case(monitor, kind):
    return errors(monitor_doc(monitor, kind))


def cases(accepts):
    return [(name, kind, row[col] == "x") for name, row in accepts.items()
            for col, kind in enumerate(MECHANISM_KINDS)]


@pytest.mark.parametrize("op, kind, accepted", cases(OP_ACCEPTS))
def test_op_by_kind(op, kind, accepted):
    expected = () if accepted else (
        f"processes[0].steps[0].mechanism: {op} is not defined for mechanism 'm' of kind {kind}",
        "mechanism 'm' is never referenced by any process step")
    assert op_case(op, kind) == expected


@pytest.mark.parametrize("monitor, kind, accepted", cases(MONITOR_ACCEPTS))
def test_monitor_by_kind(monitor, kind, accepted):
    expected = () if accepted else (
        f"monitors[0].mechanism: {monitor} is not defined for mechanism 'm' of kind {kind}",)
    assert monitor_case(monitor, kind) == expected


def test_the_tables_name_the_same_kinds():
    assert set(machines.KINDS) == set(MECHANISM_KINDS)
    assert set(monitors.KINDS) == {*MONITOR_ACCEPTS, "terminal_assert"}


def contract_doc(monitor, kind):
    """``monitor_doc`` with a message cell ``o`` declared before ``m``, so
    that ``m`` is slot 1, and written by process 1."""
    doc = monitor_doc(monitor, kind)
    doc["mechanisms"].insert(0, {"id": "o", "kind": "message_cell"})
    doc["processes"][1]["steps"].insert(0, {"op": "write", "mechanism": "o", "value": [0]})
    return doc


def event_watches(sys):
    """(monitor kind, slots, the slot of the monitor's mechanism by its place
    among the scenario's) for each event watch the scenario's monitors declare."""
    ids = [m["id"] for m in sys.scenario.mechanisms]
    made = monitors.compile_monitors(sys)[1:]   # after the built-in LocalAsserts
    return [(doc["kind"], slots, (ids.index(doc["mechanism"]),))
            for doc, m in zip(sys.scenario.monitors, made)
            for when, slots, _ in m.watches(sys.n_mechs, sys.n_procs) if when == "event"]


MONITOR_CASES = [(monitor, kind) for monitor, kind, accepted in cases(MONITOR_ACCEPTS)
                 if accepted] + [("terminal_assert", "message_cell")]


@pytest.mark.parametrize("monitor, kind", MONITOR_CASES)
def test_an_event_watch_names_its_own_mechanism_s_slot_alone(monitor, kind):
    """The System judges an event verdict only for steps on the one slot its
    watch names, so that slot must be the monitor's own mechanism's."""
    sys = System(scenario(contract_doc(monitor, kind)))
    assert [(slots, own) for _, slots, own in event_watches(sys)] == [
        ((1,), (1,))] * (monitor in ("lost_unread", "recipient_tag"))


def test_the_contract_finds_an_event_watch_on_a_second_slot(monkeypatch):
    """A ``lost_unread`` that also watches slot 0 breaks the contract, and a
    System refuses it."""
    sys = System(scenario(contract_doc("lost_unread", "message_cell")))
    monkeypatch.setattr(monitors.LostUnread, "watches", lambda self, n_mechs, n_procs: [
        ("event", (self.index, 0), self.on_event)])
    assert [(slots, own) for _, slots, own in event_watches(sys)] == [((1, 0), (1,))]
    with pytest.raises(ValueError):
        System(sys.scenario)


def all_kinds():
    """A scenario that declares one mechanism of every kind, each referenced."""
    mechs = [{"id": "raw", "kind": "raw_cell", "initial": [1, 2]},
             {"id": "locked", "kind": "locked_cell", "initial": [3, 4], "mode": "undisciplined"},
             {"id": "msg", "kind": "message_cell"},
             {"id": "status", "kind": "status_channel"},
             {"id": "last", "kind": "last_message_channel"},
             {"id": "duplex", "kind": "duplex_channel", "side_a": 1, "side_b": 0,
              "last_message": True},
             {"id": "reg", "kind": "shared_register", "initial": [5, 6]},
             {"id": "direct", "kind": "direct_channel"}]
    steps = [{"op": "read_word", "mechanism": "raw", "index": 0, "var": "a"},
             {"op": "read_word", "mechanism": "locked", "index": 0, "var": "a"},
             {"op": "read", "mechanism": "msg", "var": "a"},
             {"op": "read", "mechanism": "status", "var": "a"},
             {"op": "read", "mechanism": "last", "var": "a"},
             {"op": "read", "mechanism": "duplex", "var": "a"},
             {"op": "read", "mechanism": "reg", "var": "a"},
             {"op": "receive", "mechanism": "direct", "var": "a"}]
    sc = Scenario.from_doc({"name": "all-kinds", "word_width": 2, "mechanisms": mechs,
                            "processes": [{"id": 0, "steps": steps}, {"id": 1, "steps": []}]})
    validate(sc)
    return sc


@pytest.mark.parametrize("validated", [True, False])
def test_initial_snapshot_of_every_kind(validated):
    sc = all_kinds()
    if not validated:
        sc = Scenario.from_doc(sc.to_doc())
    sys = System(sc)
    view = sys.view(sys.initial_state())
    assert view.mechs == (
        machines.RawCell((1, 2)),
        machines.LockedCell((3, 4), encapsulated=False),
        machines.MessageCell(),
        machines.StatusChannel(),
        machines.LastMessageChannel(),
        machines.DuplexChannel(side_a=1, side_b=0, last_message=True),
        machines.SharedRegister((5, 6)),
        machines.DirectChannel())
    assert sys.state_hash(view) == "8a30a174c6de1226"


@pytest.mark.parametrize("kind", ["mailbox", ["raw_cell"]])
@pytest.mark.parametrize("referenced", [True, False])
def test_an_unvalidated_unknown_kind_stops_at_system(referenced, kind):
    steps = [{"op": "read", "mechanism": "box", "var": "v"}] if referenced else []
    doc = {"mechanisms": [{"id": "box", "kind": kind}],
           "processes": [{"id": 0, "steps": steps}]}
    with pytest.raises(ValidationError) as ei:
        System(scenario(doc))
    assert ei.value.errors == errors(doc) == (
        f"mechanisms[0].kind: unknown mechanism kind {kind!r}",)


@pytest.mark.parametrize("kind", ["liveness", ["torn_value"]])
def test_an_unvalidated_unknown_monitor_kind_stops_at_system(kind):
    sc = Scenario.from_doc(all_kinds().to_doc() | {"monitors": [{"kind": kind}]})
    with pytest.raises(ValidationError) as ei:
        System(sc)
    assert ei.value.errors == (f"monitors[0].kind: unknown monitor kind {kind!r}",)


STRATEGIES = {"explore": explore, "find_shortest": lambda sc: find_shortest(sc, "deadlock"),
              "random_walks": lambda sc: random_walks(sc, walks=3),
              "replay_with_checks": lambda sc: replay_with_checks(sc, ())}


@pytest.mark.parametrize("strategy", STRATEGIES.values(), ids=STRATEGIES)
def test_every_strategy_validates_what_it_is_given(strategy):
    """A strategy given a scenario that was never validated validates it: it
    raises validate's own errors for an invalid one, and keeps the programs
    of a valid one on the scenario."""
    bad = scenario(op_doc("lock", "raw_cell"))
    with pytest.raises(ValidationError) as ei:
        strategy(bad)
    assert ei.value.errors == op_case("lock", "raw_cell") and bad.compiled is None
    sc = Scenario.from_doc(all_kinds().to_doc())
    strategy(sc)
    assert sc.compiled == all_kinds().compiled


def edited(doc, table, drop=None, **fields):
    """A copy of ``doc`` whose first mechanism or monitor (``table``) has
    ``fields`` set and the field ``drop`` removed."""
    doc = copy.deepcopy(doc)
    doc[table][0].update(fields)
    doc[table][0].pop(drop, None)
    return doc


@pytest.mark.parametrize("twin", MECHANISM_KINDS)
def test_a_mechanism_kind_is_one_row(monkeypatch, twin):
    """A row added to machines.KINDS alone, its twin's under a new name, is
    validated as its twin is: every op and monitor is accepted or refused with
    the same messages, and so is a bad value in each field the row lists, or
    an unknown field. A System builds the twin's initial snapshot from it."""
    new = f"{twin}_again"
    monkeypatch.setitem(machines.KINDS, new, machines.KINDS[twin])
    base = op_doc(REFERENCE_STEP.get(twin, "read"), twin)
    docs = [op_doc(op, twin) for op in OP_ACCEPTS]
    docs += [monitor_doc(monitor, twin) for monitor in MONITOR_FIELDS]
    docs += [edited(base, "mechanisms", note=0)]
    docs += [edited(base, "mechanisms", **{name: "?"}) for name in machines.KINDS[twin][2]]
    for doc in docs:
        got = errors(edited(doc, "mechanisms", kind=new))
        assert tuple(e.replace(new, twin) for e in got) == errors(doc)
    assert errors(base) == ()
    sys, twin_sys = System(scenario(edited(base, "mechanisms", kind=new))), System(scenario(base))
    assert sys.view(sys.initial_state()) == twin_sys.view(twin_sys.initial_state())


@pytest.mark.parametrize("twin", MONITOR_FIELDS)
def test_a_monitor_kind_is_one_row(monkeypatch, twin):
    """A row added to monitors.KINDS alone, its twin's under a new name, is
    validated as its twin is: on a mechanism of every kind, and with each
    field the row lists left out, null, True or a bad value, or beside an
    unknown field. A System explores it as it explores its twin."""
    new = f"{twin}_again"
    monkeypatch.setitem(monitors.KINDS, new, monitors.KINDS[twin])
    accepts = MONITOR_ACCEPTS.get(twin, "x" * len(MECHANISM_KINDS))
    base = monitor_doc(twin, MECHANISM_KINDS[accepts.index("x")])
    docs = [monitor_doc(twin, kind) for kind in MECHANISM_KINDS]
    docs += [edited(base, "monitors", note=0)]
    for name in monitors.KINDS[twin][2]:
        docs += [edited(base, "monitors", drop=name)]
        docs += [edited(base, "monitors", **{name: value}) for value in (None, True, "?")]
    for doc in docs:
        got = errors(edited(doc, "monitors", kind=new))
        assert tuple(e.replace(new, twin) for e in got) == errors(doc)
    assert errors(base) == ()
    report = explore(scenario(edited(base, "monitors", kind=new)))
    assert report.to_doc() == explore(scenario(base)).to_doc()
