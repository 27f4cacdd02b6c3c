"""Mechanism kinds and monitor kinds: which ops and monitors each kind
accepts, with the validator's messages, and each kind's initial snapshot.

The expected values are literals, so a change to ``machines.KINDS`` or
``monitors.KINDS`` that moves any of them fails here.
"""

import re

import pytest

from lockstep import machines, monitors
from lockstep.kernel import KernelError, System
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
# the fields of each monitor case besides its kind and mechanism
MONITOR_FIELDS = {
    "mutual_exclusion": {"markers": [[0, "v"], [1, "v"]]},
    "sent_received_order": {}, "recipient_tag": {}, "lost_unread": {},
    "torn_value": {"allowed": [[0]], "process": 0, "vars": ["v"]},
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


def errors(doc):
    """The validator's messages for a document, () if it is valid."""
    try:
        validate(Scenario.from_doc({"name": "k", "word_width": 1, **doc}))
    except ValidationError as e:
        return e.errors
    return ()


def op_case(op, kind):
    return errors({"mechanisms": [mechanism(kind)],
                   "processes": [{"id": 0, "steps": [step(op)]}, {"id": 1, "steps": []}]})


def monitor_case(monitor, kind):
    local = {"op": "local", "var": "v", "value": [0]}
    first = step(REFERENCE_STEP.get(kind, "read")) | {"var": "w"}
    return errors({"mechanisms": [mechanism(kind)],
                   "processes": [{"id": 0, "steps": [first, local]},
                                 {"id": 1, "steps": [local]}],
                   "monitors": [{"kind": monitor, "mechanism": "m",
                                 **MONITOR_FIELDS[monitor]}]})


def cases(accepts):
    return [(name, kind, row[col] == "x") for name, row in accepts.items()
            for col, kind in enumerate(MECHANISM_KINDS)]


@pytest.mark.parametrize("op, kind, accepted", cases(OP_ACCEPTS))
def test_op_by_kind(op, kind, accepted):
    expected = () if accepted else (
        f"processes[0].steps[0]: {op} is not defined for mechanism 'm' of kind {kind}",
        "mechanism 'm' is never referenced by any process step")
    assert op_case(op, kind) == expected


@pytest.mark.parametrize("monitor, kind, accepted", cases(MONITOR_ACCEPTS))
def test_monitor_by_kind(monitor, kind, accepted):
    expected = () if accepted else (
        f"monitors[0].mechanism: 'm' has kind {kind}, which this monitor does not apply to",)
    assert monitor_case(monitor, kind) == expected


def test_the_tables_name_the_same_kinds():
    assert set(machines.KINDS) == set(MECHANISM_KINDS)
    assert set(monitors.KINDS) == {*MONITOR_ACCEPTS, "terminal_assert"}


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
def test_an_unvalidated_unknown_kind_is_a_kernel_error(referenced, kind):
    steps = [{"op": "read", "mechanism": "box", "var": "v"}] if referenced else []
    sc = Scenario.from_doc({"name": "k", "word_width": 1,
                            "mechanisms": [{"id": "box", "kind": kind}],
                            "processes": [{"id": 0, "steps": steps}]})
    with pytest.raises(KernelError, match=re.escape(f"unknown mechanism kind: {kind!r}")):
        System(sc)


@pytest.mark.parametrize("kind", ["liveness", ["torn_value"]])
def test_an_unvalidated_unknown_monitor_kind_is_a_value_error(kind):
    sc = Scenario.from_doc(all_kinds().to_doc() | {"monitors": [{"kind": kind}]})
    with pytest.raises(ValueError, match=re.escape(f"unknown monitor kind: {kind!r}")):
        monitors.compile_monitors(System(sc))
