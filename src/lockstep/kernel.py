"""Deterministic stepping engine.

A System is a compiled scenario: the initial snapshot, one instruction
graph per process, and the guard logic that turns a global state into the
set of enabled actions. States are immutable and stepping is a pure
function, so any recorded schedule replays to the same state, and two
states that compare equal behave identically from then on.

An action is the tuple ``(process, label, mechanism id)``. Rendezvous on a
direct channel appears as a single action carrying both parties: the label
``("send", value, receiver)`` advances sender and receiver in one step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import machines
from .programs import LABEL_KIND, CompileContext, Program, compile_program


class KernelError(Exception):
    """Raised when stepping hits something the static checks cannot see."""


class ChoiceNotEnabled(KernelError):
    def __init__(self, action):
        self.action = action
        super().__init__(f"action not enabled: {action!r}")


class NotEnabledAtStep(KernelError):
    """A replayed schedule asked for an action the state does not offer."""

    def __init__(self, index, action, enabled):
        self.index = index
        self.action = action
        self.enabled = tuple(enabled)
        super().__init__(f"step {index}: action {action!r} not enabled "
                         f"(enabled: {list(enabled)!r})")


# -- states ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ProcState:
    pc: int
    store: tuple = ()          # sorted (name, value) pairs
    failed: str | None = None  # first failed assert_local, sticky


@dataclass(frozen=True, slots=True)
class GlobalState:
    mechs: tuple
    procs: tuple


def store_get(store, name):
    for n, v in store:
        if n == name:
            return v
    raise KeyError(name)


def store_has(store, name):
    return any(n == name for n, _ in store)


def store_set(store, name, value):
    out = [(n, v) for n, v in store if n != name]
    out.append((name, value))
    out.sort(key=lambda item: item[0])
    return tuple(out)


# -- traces ------------------------------------------------------------------

@dataclass(frozen=True)
class Trace:
    """A schedule: the exact sequence of actions taken from the initial state."""

    events: tuple = ()

    def __len__(self):
        return len(self.events)

    def to_doc(self):
        return {"events": [event_to_doc(e) for e in self.events]}

    @classmethod
    def from_doc(cls, doc, path="events"):
        """Parse ``{"events": [...]}``; ``path`` names the list in error messages."""
        events = doc.get("events") if isinstance(doc, dict) else None
        if not isinstance(events, list):
            raise ValueError(f"{path}: expected a list of events, got {events!r}")
        return cls(tuple(event_from_doc(e, f"{path}[{k}]") for k, e in enumerate(events)))


def label_to_doc(label):
    kind = label[0]
    if kind == "write":
        return {"kind": "write", "value": list(label[1])}
    if kind == "send":
        v = label[1]
        return {"kind": "send", "value": None if v is None else list(v),
                "receiver": label[2]}
    if kind == "read_word":
        return {"kind": "read_word", "index": label[1]}
    if kind == "write_word":
        return {"kind": "write_word", "index": label[1], "word": label[2]}
    if kind == "update":
        fn = label[1]
        doc = {"kind": "update", "fn": fn[0]}
        if fn[0] == "add":
            doc["k"] = fn[1]
        return doc
    if kind in ("lock", "unlock", "read", "check", "local"):
        return {"kind": kind}
    raise ValueError(f"unknown action label: {label!r}")


def _doc_int(doc, key, path):
    v = doc.get(key)
    if type(v) is not int:  # a JSON boolean is not an id, index or word
        raise ValueError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _doc_words(doc, key, path, allow_none=False):
    v = doc.get(key)
    if v is None and allow_none:
        return None
    if not isinstance(v, list) or any(type(w) is not int for w in v):
        raise ValueError(f"{path}.{key}: expected a list of integers, got {v!r}")
    return tuple(v)


def label_from_doc(doc, path="action"):
    """Parse an action label; a ValueError names the JSON ``path`` at fault."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an action object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "write":
        return ("write", _doc_words(doc, "value", path))
    if kind == "send":
        return ("send", _doc_words(doc, "value", path, allow_none=True),
                _doc_int(doc, "receiver", path))
    if kind == "read_word":
        return ("read_word", _doc_int(doc, "index", path))
    if kind == "write_word":
        return ("write_word", _doc_int(doc, "index", path), _doc_int(doc, "word", path))
    if kind == "update":
        fn = doc.get("fn")
        if not isinstance(fn, str):
            raise ValueError(f"{path}.fn: expected a function name, got {fn!r}")
        return ("update", ("add", _doc_int(doc, "k", path)) if fn == "add" else (fn,))
    if kind in ("lock", "unlock", "read", "check", "local"):
        return (kind,)
    raise ValueError(f"{path}.kind: unknown action label kind {kind!r}")


def event_to_doc(event):
    pid, label, mech = event
    return {"process": pid, "action": label_to_doc(label), "mechanism": mech}


def event_from_doc(doc, path="event"):
    """Parse one event; a ValueError names the JSON ``path`` at fault."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an event object, got {doc!r}")
    mech = doc.get("mechanism")
    if mech is not None and not isinstance(mech, str):
        raise ValueError(f"{path}.mechanism: expected a mechanism id, got {mech!r}")
    pid = _doc_int(doc, "process", path)
    return (pid, label_from_doc(doc.get("action"), f"{path}.action"), mech)


def _norm_label(label):
    out = []
    for x in label:
        if x is None:
            out.append((0, 0))
        elif isinstance(x, int):
            out.append((1, x))
        elif isinstance(x, str):
            out.append((2, x))
        else:
            out.append((3, tuple(x)))
    return tuple(out)


def _action_sort_key(action):
    pid, label, mech = action
    return (pid, _norm_label(label), mech or "")


# -- the engine --------------------------------------------------------------

_UNBOUND = object()  # an op that binds no variable; None is a value a read can bind


def _initial_mechanism(doc):
    kind = doc["kind"]
    if kind == "raw_cell":
        return machines.RawCell(tuple(doc["initial"]))
    if kind == "locked_cell":
        return machines.LockedCell(tuple(doc["initial"]),
                                   encapsulated=doc["mode"] == "encapsulated")
    if kind == "message_cell":
        return machines.MessageCell()
    if kind == "status_channel":
        return machines.StatusChannel()
    if kind == "last_message_channel":
        return machines.LastMessageChannel()
    if kind == "duplex_channel":
        return machines.DuplexChannel(side_a=doc["side_a"], side_b=doc["side_b"],
                                      last_message=bool(doc.get("last_message", False)))
    if kind == "shared_register":
        return machines.SharedRegister(tuple(doc["initial"]))
    if kind == "direct_channel":
        return machines.DirectChannel()
    raise KernelError(f"unknown mechanism kind: {kind!r}")


class System:
    """A compiled scenario, ready to step."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.word_width = scenario.word_width
        self.mech_ids = tuple(m["id"] for m in scenario.mechanisms)
        self.mech_index = {mid: i for i, mid in enumerate(self.mech_ids)}
        self.mech_kind = {m["id"]: m["kind"] for m in scenario.mechanisms}
        self._mech_init = tuple(_initial_mechanism(m) for m in scenario.mechanisms)
        duplex_sides = {m["id"]: (m["side_a"], m["side_b"])
                        for m in scenario.mechanisms if m["kind"] == "duplex_channel"}
        procs = sorted(scenario.processes, key=lambda p: p["id"])
        self.n_procs = len(procs)
        self.programs: tuple[Program, ...] = tuple(
            compile_program(p["steps"], CompileContext(
                pid=p["id"], word_width=scenario.word_width,
                mech_kind=self.mech_kind, mech_index=self.mech_index,
                duplex_sides=duplex_sides))
            for p in procs)

    # -- state basics ------------------------------------------------------

    def initial_state(self) -> GlobalState:
        return GlobalState(mechs=self._mech_init,
                           procs=tuple(ProcState(pc=0) for _ in range(self.n_procs)))

    def terminated(self, state, pid) -> bool:
        return state.procs[pid].pc >= len(self.programs[pid].instrs)

    def all_terminated(self, state) -> bool:
        return all(self.terminated(state, p) for p in range(self.n_procs))

    def live_processes(self, state):
        return [p for p in range(self.n_procs) if not self.terminated(state, p)]

    def state_hash(self, state) -> str:
        return hashlib.sha256(repr(state).encode()).hexdigest()[:16]

    # -- enabledness ---------------------------------------------------------

    def enabled_actions(self, state):
        """All actions the state offers, in a fixed deterministic order."""
        heads_by = [self.programs[p].heads[state.procs[p].pc]
                    for p in range(self.n_procs)]
        actions = []
        senders = []
        for p in range(self.n_procs):
            instrs = self.programs[p].instrs
            for idx in heads_by[p]:
                ins = instrs[idx]
                if ins.op == "send":
                    senders.append((p, ins))
                elif ins.op == "receive":
                    continue  # engaged from the sending side
                else:
                    label = self._offer(state, p, ins)
                    if label is not None:
                        actions.append((p, label, ins.mech_id))
        for p, ins in senders:
            value = self._value(state.procs[p].store, ins.expr, allow_none=True)
            for q in range(self.n_procs):
                if q == p:
                    continue
                qinstrs = self.programs[q].instrs
                for jdx in heads_by[q]:
                    insq = qinstrs[jdx]
                    if insq.op == "receive" and insq.mech == ins.mech:
                        actions.append((p, ("send", value, q), ins.mech_id))
        actions.sort(key=_action_sort_key)
        return actions

    def _offer(self, state, p, ins):
        op = ins.op
        if op in ("local", "assert_local"):
            return ("local",)
        m = state.mechs[ins.mech]
        if op == "write":
            if not m.can_write(p):
                return None
            return ("write", self._value(state.procs[p].store, ins.expr, allow_none=False))
        if op == "read":
            return ("read",) if m.can_read(p) else None
        if op in ("read_word", "if_word"):
            return ("read_word", ins.index) if m.can_access(p) else None
        if op == "wait_word":
            if m.can_access(p) and m.words[ins.index] == ins.word:
                return ("read_word", ins.index)
            return None
        if op == "write_word":
            if not m.can_access(p):
                return None
            return ("write_word", ins.index,
                    self._word(state.procs[p].store, ins.expr))
        if op in ("check", "if_status"):
            return ("check",)
        if op == "lock":
            return ("lock",) if m.can_lock(p) else None
        if op == "unlock":
            return ("unlock",) if m.can_unlock(p) else None
        if op == "update":
            return ("update", ins.fn) if m.can_access(p) else None
        raise KernelError(f"cannot offer op {op!r}")  # pragma: no cover

    # -- expression evaluation ----------------------------------------------

    def _value(self, store, expr, allow_none):
        kind = expr[0]
        if kind == "lit":
            v = expr[1]
        elif kind == "var":
            v = store_get(store, expr[1])
        else:  # ("fn", fn, var)
            base = store_get(store, expr[2])
            if not isinstance(base, tuple):
                raise KernelError(
                    f"variable '{expr[2]}' holds {base!r}, cannot apply {expr[1][0]}")
            v = machines.apply_update(expr[1], base)
        if v is None:
            if not allow_none:
                raise KernelError("a write needs a value, the variable holds the empty indicator")
            return None
        if not isinstance(v, tuple) or len(v) != self.word_width:
            raise KernelError(f"expected a {self.word_width}-word value, got {v!r}")
        return v

    def _word(self, store, expr):
        if expr[0] == "lit":
            return expr[1]
        w = store_get(store, expr[1])
        if not isinstance(w, int) or not 0 <= w < machines.WORD_DOMAIN:
            raise KernelError(f"variable '{expr[1]}' holds {w!r}, not a word")
        return w

    # -- stepping -------------------------------------------------------------

    def step(self, state, action) -> GlobalState:
        """Apply one action after checking it is currently enabled."""
        if action not in self.enabled_actions(state):
            raise ChoiceNotEnabled(action)
        return self.apply(state, action)

    def apply(self, state, action) -> GlobalState:
        """Apply an action known to be enabled (no re-check; see step)."""
        p, label, mech_id = action
        ps = state.procs[p]
        ins = self._instr_for(p, ps.pc, label, mech_id)
        op = ins.op
        if op == "send":
            return self._apply_send(state, p, ins, label)
        # each op sets only what it changes (wait_word: nothing); ``v`` goes to ``ins.var``
        pc, failed, v = ins.succ, ps.failed, _UNBOUND
        m = m2 = None if ins.mech is None else state.mechs[ins.mech]

        if op == "local":
            v = self._value(ps.store, ins.expr, allow_none=True)
        elif op == "assert_local":
            if store_get(ps.store, ins.var) != ins.expected and failed is None:
                failed = f"p{p}.{ins.var}"
        elif op == "write":
            m2 = m.write(p, label[1])
        elif op == "read":
            v, m2 = m.read(p)
        elif op == "read_word":
            v = m.words[ins.index]
        elif op == "if_word":
            if m.words[ins.index] != ins.word:
                pc = ins.succ_else
        elif op == "write_word":
            m2 = m.write_word(ins.index, label[2])
        elif op == "check":
            v = m.status_token(p)
        elif op == "if_status":
            if m.status_token(p) != "full":
                pc = ins.succ_else
        elif op == "lock":
            m2 = m.lock(p)
        elif op == "unlock":
            m2 = m.unlock()
        elif op == "update":
            m2 = m.update(ins.fn)
        elif op != "wait_word":  # pragma: no cover
            raise KernelError(f"cannot apply op {op!r}")

        mechs = state.mechs
        if m2 is not m:
            i = ins.mech
            mechs = mechs[:i] + (m2,) + mechs[i + 1:]
        store = ps.store if v is _UNBOUND else store_set(ps.store, ins.var, v)
        procs = state.procs[:p] + (ProcState(pc, store, failed),) + state.procs[p + 1:]
        return GlobalState(mechs, procs)

    def _apply_send(self, state, p, ins, label):
        value, q = label[1], label[2]
        sps, rps = state.procs[p], state.procs[q]
        recv = self._receive_instr(q, rps.pc, ins.mech)
        procs = list(state.procs)
        procs[p] = ProcState(ins.succ, sps.store, sps.failed)
        procs[q] = ProcState(recv.succ, store_set(rps.store, recv.var, value), rps.failed)
        return GlobalState(state.mechs, tuple(procs))

    def _receive_instr(self, q, pc, mech):
        for jdx in self.programs[q].heads[pc]:
            insq = self.programs[q].instrs[jdx]
            if insq.op == "receive" and insq.mech == mech:
                return insq
        raise ChoiceNotEnabled((q, ("receive",), self.mech_ids[mech]))

    def _instr_for(self, p, pc, label, mech_id):
        heads = self.programs[p].heads[pc]
        instrs = self.programs[p].instrs
        if len(heads) == 1:
            return instrs[heads[0]]
        kind = label[0]
        for idx in heads:
            ins = instrs[idx]
            if LABEL_KIND.get(ins.op) != kind or ins.mech_id != mech_id:
                continue
            if kind in ("read_word", "write_word") and ins.index != label[1]:
                continue
            return ins
        raise ChoiceNotEnabled((p, label, mech_id))

    # -- replay ---------------------------------------------------------------

    def replay(self, events, on_step=None) -> GlobalState:
        """Re-run a recorded schedule, failing loudly on the first stale step."""
        if isinstance(events, Trace):
            events = events.events
        state = self.initial_state()
        for k, ev in enumerate(events):
            enabled = self.enabled_actions(state)
            if ev not in enabled:
                raise NotEnabledAtStep(k, ev, enabled)
            state = self.apply(state, ev)
            if on_step is not None:
                on_step(k, ev, state)
        return state


def replay(scenario, events, on_step=None) -> GlobalState:
    """Convenience wrapper: compile the scenario and replay the schedule."""
    return System(scenario).replay(events, on_step=on_step)
